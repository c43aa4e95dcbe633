package xrep

import (
	"errors"
	"fmt"
	"reflect"
)

// Limits captures the system-wide type invariants of §3.3: "the meaning of
// a type must be fixed and invariant over all the nodes". A node with a
// wider native representation must still reject values outside the
// system-wide bounds, "otherwise it might be impossible to send an integer
// value in a message because it was too big."
type Limits struct {
	// IntBits is the width of the system-wide signed integer type. Zero
	// means the full 64 bits.
	IntBits int
	// MaxStringLen bounds string and byte values. Zero means unbounded.
	MaxStringLen int
	// MaxSeqLen bounds sequence lengths. Zero means unbounded.
	MaxSeqLen int
	// MaxDepth bounds value-tree nesting. Zero means a default of 64;
	// negative disables the check.
	MaxDepth int
}

// DefaultLimits is the system-wide standard used when a configuration does
// not override it: full 64-bit integers and a generous nesting bound.
var DefaultLimits = Limits{MaxDepth: 64}

// Paper24BitLimits reproduces the paper's worked example: a system standard
// of 24-bit integers that every node must enforce regardless of its native
// word size.
var Paper24BitLimits = Limits{IntBits: 24, MaxDepth: 64}

// Validation errors.
var (
	ErrIntRange  = errors.New("xrep: integer outside system-wide bounds")
	ErrTooLong   = errors.New("xrep: value exceeds system-wide length bound")
	ErrTooDeep   = errors.New("xrep: value exceeds system-wide nesting bound")
	ErrNilValue  = errors.New("xrep: nil value")
	ErrEmptyName = errors.New("xrep: record with empty type name")
)

// IntRange returns the inclusive legal range of the system integer type.
func (l Limits) IntRange() (min, max int64) {
	bits := l.IntBits
	if bits <= 0 || bits >= 64 {
		return -1 << 63, 1<<63 - 1
	}
	return -1 << (bits - 1), 1<<(bits-1) - 1
}

// CheckInt validates a single integer against the system-wide bound.
func (l Limits) CheckInt(v int64) error {
	min, max := l.IntRange()
	if v < min || v > max {
		return fmt.Errorf("%w: %d not in [%d, %d]", ErrIntRange, v, min, max)
	}
	return nil
}

// Validate walks a value tree and checks every system-wide invariant. It is
// called by the message layer at encode time, so a violating value can
// never leave its node.
func (l Limits) Validate(v Value) error {
	return l.ValidateAt(v, 0)
}

// ValidateSeq is Validate(s) for a sequence held under its static type, as
// a message's argument list is: the same checks and errors, and boxing s
// costs nothing because the walk keeps no value it is handed.
func (l Limits) ValidateSeq(s Seq) error {
	return l.ValidateAt(s, 0)
}

// ValidateAt is Validate for a value nested depth levels inside what is
// sent — a message's arguments are at 1 — so a sender that writes v into a
// larger value holds it to the depth its place there leaves.
func (l Limits) ValidateAt(v Value, depth int) error {
	k, n := KindNull, 0 // KindNull stands for every kind without a size
	switch x := v.(type) {
	case nil:
		return ErrNilValue
	case Null, Bool, Real, PortName:
		if l.within(k, n, depth) {
			return nil
		}
	case Int:
		if k = KindInt; l.within(k, n, depth) {
			return l.CheckInt(int64(x))
		}
	case Str:
		if k, n = KindString, len(x); l.within(k, n, depth) {
			return nil
		}
	case Bytes:
		if k, n = KindBytes, len(x); l.within(k, n, depth) {
			return nil
		}
	case Token:
		if k, n = KindToken, len(x.Body); l.within(k, n, depth) {
			return nil
		}
	case Seq:
		if k, n = KindSeq, len(x); l.within(k, n, depth) {
			return l.validateSeq(x, "", depth)
		}
	case Rec:
		if k = KindRec; l.within(k, n, depth) {
			if x.Name == "" {
				return ErrEmptyName
			}
			return l.validateSeq(x.Fields, x.Name, depth)
		}
	default:
		return fmt.Errorf("xrep: unknown value type %s", reflect.TypeOf(v))
	}
	return l.Check(k, n, depth)
}

// validateSeq checks the elements of a sequence at nesting level depth: a
// Seq value's own, or the fields of the record rec names.
func (l Limits) validateSeq(s Seq, rec string, depth int) error {
	for i, e := range s {
		if err := l.ValidateAt(e, depth+1); err != nil {
			if rec == "" {
				return fmt.Errorf("seq[%d]: %w", i, err)
			}
			return fmt.Errorf("%s.field[%d]: %w", rec, i, err)
		}
	}
	return nil
}

// Check holds one value of kind k, nested depth levels down, to the bounds
// that need none of its contents: the nesting bound, and the size bound of
// its kind on n — a string's, byte string's or token body's length in
// bytes, or a sequence's element count. An integer's own bound is
// CheckInt's. Validate is these over a whole tree; a writer that encodes Go
// values without building the tree calls them itself.
func (l Limits) Check(k Kind, n, depth int) error {
	switch {
	case l.within(k, n, depth):
		return nil
	case !l.within(KindNull, 0, depth):
		return fmt.Errorf("%w: depth %d", ErrTooDeep, depth)
	case k == KindSeq:
		return fmt.Errorf("%w: sequence of %d", ErrTooLong, n)
	}
	return fmt.Errorf("%w: %s of %d bytes", ErrTooLong, k, n)
}

// within is Check's verdict without its error, small enough that the walk
// inlines it. A MaxDepth of zero means 64, a negative one no bound; a size
// bound of zero or less is none.
func (l Limits) within(k Kind, n, depth int) bool {
	if max := l.MaxDepth; max == 0 && depth > 64 || max > 0 && depth > max {
		return false
	}
	switch k {
	case KindString, KindBytes, KindToken:
		return l.MaxStringLen <= 0 || n <= l.MaxStringLen
	case KindSeq:
		return l.MaxSeqLen <= 0 || n <= l.MaxSeqLen
	}
	return true
}
