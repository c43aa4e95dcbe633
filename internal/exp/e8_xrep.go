package exp

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// e8Iterations is the full-size repeat count of each measurement.
const e8Iterations = 200

// e8Sizes is the associative-memory item-count sweep.
var e8Sizes = []int{10, 100, 1000}

// RunE8ExternalRep reproduces §3.3: different internal representations
// (hash table vs tree) of one abstract type interoperate through a single
// external rep; encode/decode cost and wire size scale with value size;
// and the system-wide integer invariant (the 24-bit example) is enforced
// at the sending node.
func RunE8ExternalRep(scale Scale) (*Result, error) {
	iterations := scale.N(e8Iterations, 10)
	res := &Result{ID: "E8 (§3.3 abstract values)"}

	tab := metrics.NewTable(
		"§3.3 — associative memory across representations: encode/decode cost and wire size",
		"items", "wire-bytes", "encode(hash)", "decode(tree)", "encode(tree)", "decode(hash)", "round-trip-equal")
	res.Tables = append(res.Tables, tab)

	var changed []string
	for _, n := range e8Sizes {
		row, err := runE8Cell(n, iterations)
		if err != nil {
			return nil, err
		}
		tab.AddRow(n, row.wireBytes, row.encHash.String(), row.decTree.String(),
			row.encTree.String(), row.decHash.String(), row.equal)
		if !row.equal {
			changed = append(changed, fmt.Sprintf("hash→tree→hash round trip changed the value at n=%d", n))
		}
	}
	res.HoldsUnless(changed, "hash-table and tree representations interoperate through the single external rep")

	// Complex numbers: the paper's first example.
	cxTab := metrics.NewTable(
		"§3.3 — complex numbers: rectangular and polar nodes share one external rep",
		"direction", "wire-bytes", "max-error")
	res.Tables = append(res.Tables, cxTab)
	rect := xrep.RectComplex{Re: 3, Im: 4}
	v := xrep.MustEncode(rect)
	raw, err := wire.MarshalValue(v)
	if err != nil {
		return nil, err
	}
	polarAny, err := xrep.DecodePolarComplex(v)
	if err != nil {
		return nil, err
	}
	polar := polarAny.(xrep.PolarComplex)
	backAny, err := xrep.DecodeRectComplex(xrep.MustEncode(polar))
	if err != nil {
		return nil, err
	}
	back := backAny.(xrep.RectComplex)
	errRe, errIm := back.Re-rect.Re, back.Im-rect.Im
	maxErr := errRe
	if errIm > maxErr {
		maxErr = errIm
	}
	if maxErr < 0 {
		maxErr = -maxErr
	}
	cxTab.AddRow("rect → wire → polar → wire → rect", len(raw), fmt.Sprintf("%.2e", maxErr))
	if maxErr < 1e-9 {
		res.Holdsf("complex value survives rect↔polar representation change (max error %.2e)", maxErr)
	} else {
		res.Deviatesf("complex round trip error %.2e", maxErr)
	}

	// The 24-bit system standard.
	limTab := metrics.NewTable(
		"§3.3 — system-wide 24-bit integer standard enforced at the sending node",
		"value", "validates")
	res.Tables = append(res.Tables, limTab)
	for _, v := range []int64{1 << 20, 1<<23 - 1, 1 << 23, -(1 << 23), -(1<<23 + 1)} {
		err := xrep.Paper24BitLimits.Validate(xrep.Int(v))
		limTab.AddRow(v, err == nil)
	}
	if xrep.Paper24BitLimits.Validate(xrep.Int(1<<23)) != nil &&
		xrep.Paper24BitLimits.Validate(xrep.Int(1<<23-1)) == nil {
		res.Holdsf("integers outside the 24-bit standard cannot leave the node; the boundary is exact")
	} else {
		res.Deviatesf("24-bit boundary enforcement wrong")
	}
	return res, nil
}

type e8Row struct {
	wireBytes int
	encHash   time.Duration
	decTree   time.Duration
	encTree   time.Duration
	decHash   time.Duration
	equal     bool
}

func runE8Cell(n, iters int) (e8Row, error) {
	var row e8Row
	hash := xrep.NewHashAssocMem()
	for i := 0; i < n; i++ {
		hash.AddItem(fmt.Sprintf("key%06d", i), xrep.Int(i))
	}
	v1, err := xrep.Encode(hash)
	if err != nil {
		return row, err
	}
	raw, err := wire.MarshalValue(v1)
	if err != nil {
		return row, err
	}
	row.wireBytes = len(raw)

	timeIt := func(f func() error) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(iters), nil
	}
	if row.encHash, err = timeIt(func() error { _, err := xrep.Encode(hash); return err }); err != nil {
		return row, err
	}
	if row.decTree, err = timeIt(func() error { _, err := xrep.DecodeTreeAssocMem(v1); return err }); err != nil {
		return row, err
	}
	treeAny, err := xrep.DecodeTreeAssocMem(v1)
	if err != nil {
		return row, err
	}
	tree := treeAny.(*xrep.TreeAssocMem)
	if row.encTree, err = timeIt(func() error { _, err := xrep.Encode(tree); return err }); err != nil {
		return row, err
	}
	v2, err := xrep.Encode(tree)
	if err != nil {
		return row, err
	}
	if row.decHash, err = timeIt(func() error { _, err := xrep.DecodeHashAssocMem(v2); return err }); err != nil {
		return row, err
	}
	row.equal = xrep.Equal(v1, v2)
	return row, nil
}
