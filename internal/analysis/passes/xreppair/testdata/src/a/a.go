// Package a is the golden input for xreppair's per-package checks.
package a

import "repro/internal/xrep"

// half declares only one side of the transmittable pair.
type half struct{} // want `declares XTypeName but not EncodeX`

func (half) XTypeName() string { return "half" }

// otherHalf declares only the encode operation.
type otherHalf struct{} // want `declares EncodeX but not XTypeName`

func (otherHalf) EncodeX() (xrep.Value, error) { return xrep.Str("o"), nil }

// roam computes its name at runtime: the name is part of the type's
// fixed system-wide meaning and must be constant.
type roam struct{ n string }

func (r roam) XTypeName() string { return r.n } // want `must return a single compile-time constant`

func (r roam) EncodeX() (xrep.Value, error) { return xrep.Str(r.n), nil }

// pair encodes two fields.
type pair struct{ a, b int64 }

func (pair) XTypeName() string { return "pair" }

func (p pair) EncodeX() (xrep.Value, error) {
	return xrep.Seq{xrep.Int(p.a), xrep.Int(p.b)}, nil
}

// decodePair expects three fields: the halves disagree.
func decodePair(v xrep.Value) (any, error) {
	f := xrep.ReadRec(v, "pair", 3)
	p := pair{a: f.Int(), b: f.Int()}
	f.Value()
	return p, f.Err()
}

func install(r *xrep.Registry) {
	r.Register("pair", decodePair) // want `decode for "pair" expects 3 external-rep fields but pair.EncodeX produces 2`
	r.Register("ghost", nil)       // want `installs no decode operation`
	name := "dyn"
	r.Register(name, decodePair) // want `must be a compile-time constant`
}
