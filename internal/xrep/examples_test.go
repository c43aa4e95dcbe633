package xrep

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// --- Complex numbers: the paper's first §3.3 example ---

func TestComplexRectToPolarAcrossNodes(t *testing.T) {
	// Node A uses rectangular internally, node B polar. A encodes, B
	// decodes; the abstract value survives.
	nodeB := NewRegistry()
	nodeB.Register(ComplexTypeName, DecodePolarComplex)

	v := MustEncode(RectComplex{Re: 3, Im: 4})
	got, err := nodeB.Decode(v)
	if err != nil {
		t.Fatal(err)
	}
	p := got.(PolarComplex)
	if math.Abs(p.R-5) > 1e-12 {
		t.Fatalf("magnitude = %v, want 5", p.R)
	}
	if math.Abs(p.Theta-math.Atan2(4, 3)) > 1e-12 {
		t.Fatalf("angle = %v", p.Theta)
	}
}

func TestComplexPolarToRectAcrossNodes(t *testing.T) {
	nodeA := NewRegistry()
	nodeA.Register(ComplexTypeName, DecodeRectComplex)

	v := MustEncode(PolarComplex{R: 2, Theta: math.Pi / 2})
	got, err := nodeA.Decode(v)
	if err != nil {
		t.Fatal(err)
	}
	r := got.(RectComplex)
	if math.Abs(r.Re) > 1e-12 || math.Abs(r.Im-2) > 1e-12 {
		t.Fatalf("rect = %+v, want (0, 2)", r)
	}
}

func TestComplexRoundTripProperty(t *testing.T) {
	// rect → external → polar → external → rect preserves the value.
	reg := NewRegistry()
	reg.Register(ComplexTypeName, DecodePolarComplex)
	regRect := NewRegistry()
	regRect.Register(ComplexTypeName, DecodeRectComplex)
	f := func(re, im float64) bool {
		if math.IsNaN(re) || math.IsNaN(im) || math.IsInf(re, 0) || math.IsInf(im, 0) {
			return true
		}
		// Keep magnitudes moderate to avoid float blowup in the property.
		re = math.Mod(re, 1e6)
		im = math.Mod(im, 1e6)
		orig := RectComplex{Re: re, Im: im}
		v1 := MustEncode(orig)
		mid, err := reg.Decode(v1)
		if err != nil {
			return false
		}
		v2 := MustEncode(mid.(PolarComplex))
		back, err := regRect.Decode(v2)
		if err != nil {
			return false
		}
		b := back.(RectComplex)
		scale := math.Max(1, math.Hypot(re, im))
		return math.Abs(b.Re-re)/scale < 1e-9 && math.Abs(b.Im-im)/scale < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPolarEncodeRejectsNaN(t *testing.T) {
	// Encode may raise an exception, terminating the send (§3.4 step 1).
	if _, err := (PolarComplex{R: math.NaN(), Theta: 0}).EncodeX(); err == nil {
		t.Fatal("NaN polar encoded successfully")
	}
	if _, err := Encode(PolarComplex{R: math.NaN(), Theta: 0}); err == nil {
		t.Fatal("Encode did not propagate the encode exception")
	}
}

func TestComplexDecodeRejectsMalformed(t *testing.T) {
	bad := []Value{
		Int(1),
		Rec{Name: "other", Fields: Seq{Real(1), Real(2)}},
		Rec{Name: ComplexTypeName, Fields: Seq{Real(1)}},
		Rec{Name: ComplexTypeName, Fields: Seq{Str("x"), Real(2)}},
	}
	for _, v := range bad {
		if _, err := DecodeRectComplex(v); err == nil {
			t.Errorf("DecodeRectComplex accepted %v", v)
		}
		if _, err := DecodePolarComplex(v); err == nil {
			t.Errorf("DecodePolarComplex accepted %v", v)
		}
	}
}

// --- Associative memory: the paper's second §3.3 example ---

func fill(m AssocMem, n int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		m.AddItem(fmt.Sprintf("key%04d", r.Intn(n*4)), Int(i))
	}
}

func TestAssocMemHashBasics(t *testing.T) {
	h := NewHashAssocMem()
	if n := h.Len(); n != 0 {
		t.Fatalf("new memory not empty: %d", n)
	}
	h.AddItem("a", Int(1))
	h.AddItem("b", Int(2))
	h.AddItem("a", Int(3)) // replace
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
	v, ok := h.GetItem("a")
	if !ok || !Equal(v, Int(3)) {
		t.Fatalf("GetItem(a) = %v, %v", v, ok)
	}
	if _, ok := h.GetItem("zzz"); ok {
		t.Fatal("GetItem of absent key reported present")
	}
}

func TestAssocMemTreeBasics(t *testing.T) {
	tr := NewTreeAssocMem()
	keys := []string{"m", "c", "t", "a", "e", "z", "m"}
	for i, k := range keys {
		tr.AddItem(k, Int(i))
	}
	if tr.Len() != 6 {
		t.Fatalf("Len = %d, want 6 (one duplicate key)", tr.Len())
	}
	v, ok := tr.GetItem("m")
	if !ok || !Equal(v, Int(6)) {
		t.Fatalf("GetItem(m) = %v, %v; duplicate insert must replace", v, ok)
	}
	got := tr.Keys()
	want := []string{"a", "c", "e", "m", "t", "z"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", got, want)
		}
	}
}

func TestAssocMemHashToTreeAcrossNodes(t *testing.T) {
	// The paper's scenario verbatim: encode on node A (hash) builds a
	// sequence of key/item pairs; decode on node B constructs a tree.
	h := NewHashAssocMem()
	h.AddItem("boston", Str("BOS"))
	h.AddItem("chicago", Str("ORD"))
	h.AddItem("atlanta", Str("ATL"))

	nodeB := NewRegistry()
	nodeB.Register(AssocMemTypeName, DecodeTreeAssocMem)

	v := MustEncode(h)
	got, err := nodeB.Decode(v)
	if err != nil {
		t.Fatal(err)
	}
	tr := got.(*TreeAssocMem)
	if tr.Len() != 3 {
		t.Fatalf("tree Len = %d, want 3", tr.Len())
	}
	for k, want := range map[string]string{"boston": "BOS", "chicago": "ORD", "atlanta": "ATL"} {
		item, ok := tr.GetItem(k)
		if !ok || !Equal(item, Str(want)) {
			t.Fatalf("GetItem(%s) = %v, %v", k, item, ok)
		}
	}
}

func TestAssocMemTreeToHashAcrossNodes(t *testing.T) {
	tr := NewTreeAssocMem()
	fill(tr, 100, 1)
	nodeA := NewRegistry()
	nodeA.Register(AssocMemTypeName, DecodeHashAssocMem)
	v := MustEncode(tr)
	got, err := nodeA.Decode(v)
	if err != nil {
		t.Fatal(err)
	}
	h := got.(*HashAssocMem)
	if h.Len() != tr.Len() {
		t.Fatalf("hash Len = %d, tree Len = %d", h.Len(), tr.Len())
	}
	for _, k := range tr.Keys() {
		want, _ := tr.GetItem(k)
		gotV, ok := h.GetItem(k)
		if !ok || !Equal(gotV, want) {
			t.Fatalf("item %s lost in transit", k)
		}
	}
}

func TestAssocMemExternalRepCanonical(t *testing.T) {
	// Hash and tree holding the same pairs must produce identical external
	// reps: the single external rep is part of the type's fixed meaning.
	h := NewHashAssocMem()
	tr := NewTreeAssocMem()
	pairs := map[string]Value{"k1": Int(1), "k9": Str("x"), "k5": Bool(true)}
	for k, v := range pairs {
		h.AddItem(k, v)
		tr.AddItem(k, v)
	}
	vh, err := h.EncodeX()
	if err != nil {
		t.Fatal(err)
	}
	vt, err := tr.EncodeX()
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(vh, vt) {
		t.Fatalf("external reps differ:\nhash: %v\ntree: %v", vh, vt)
	}
}

func TestAssocMemRoundTripProperty(t *testing.T) {
	// Any hash memory survives hash → external → tree → external → hash.
	for seed := int64(0); seed < 30; seed++ {
		h := NewHashAssocMem()
		fill(h, 50, seed)
		v1 := MustEncode(h)
		mid, err := DecodeTreeAssocMem(v1)
		if err != nil {
			t.Fatal(err)
		}
		v2 := MustEncode(mid.(*TreeAssocMem))
		if !Equal(v1, v2) {
			t.Fatalf("seed %d: external rep changed across representations", seed)
		}
		back, err := DecodeHashAssocMem(v2)
		if err != nil {
			t.Fatal(err)
		}
		hb := back.(*HashAssocMem)
		if hb.Len() != h.Len() {
			t.Fatalf("seed %d: Len %d → %d", seed, h.Len(), hb.Len())
		}
	}
}

func TestAssocMemTreeDecodeBalanced(t *testing.T) {
	// Decoding a sorted external rep must not build a degenerate chain:
	// lookups on a 4096-item decode should touch ≤ ~13 nodes. We probe via
	// depth measurement.
	h := NewHashAssocMem()
	for i := 0; i < 4096; i++ {
		h.AddItem(fmt.Sprintf("k%08d", i), Int(i))
	}
	v := MustEncode(h)
	got, err := DecodeTreeAssocMem(v)
	if err != nil {
		t.Fatal(err)
	}
	tr := got.(*TreeAssocMem)
	var depth func(*treeNode) int
	depth = func(n *treeNode) int {
		if n == nil {
			return 0
		}
		l, r := depth(n.left), depth(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	if d := depth(tr.root); d > 14 {
		t.Fatalf("decoded tree depth = %d for 4096 items, want balanced (≤14)", d)
	}
}

func TestAssocMemDecodeRejectsMalformed(t *testing.T) {
	bad := []Value{
		Str("no"),
		Rec{Name: "other"},
		Rec{Name: AssocMemTypeName, Fields: Seq{Int(1)}},
		Rec{Name: AssocMemTypeName, Fields: Seq{Seq{Int(1), Int(2)}}}, // key not string
		Rec{Name: AssocMemTypeName, Fields: Seq{Seq{Str("k")}}},       // not a pair
	}
	for _, v := range bad {
		if _, err := DecodeHashAssocMem(v); err == nil {
			t.Errorf("DecodeHashAssocMem accepted %v", v)
		}
		if _, err := DecodeTreeAssocMem(v); err == nil {
			t.Errorf("DecodeTreeAssocMem accepted %v", v)
		}
	}
}

// forbiddenType demonstrates §3.3 reason 4: "for some types it may be
// desirable to forbid sending the abstract values in messages" — the type
// provides an encode operation that always refuses.
type forbiddenType struct{}

func (forbiddenType) XTypeName() string { return "unsendable" }
func (forbiddenType) EncodeX() (Value, error) {
	return nil, fmt.Errorf("unsendable: values of this type may not be transmitted")
}

func TestForbiddenTypeNeverLeavesNode(t *testing.T) {
	if _, err := Encode(forbiddenType{}); err == nil {
		t.Fatal("forbidden abstract value encoded")
	}
	if _, err := EncodeAll(1, forbiddenType{}, 2); err == nil {
		t.Fatal("forbidden value slipped through EncodeAll")
	}
}
