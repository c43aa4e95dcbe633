package xrep

import (
	"errors"
	"fmt"
	"math"
)

// This file reproduces the paper's first worked example of abstract-value
// transmission (§3.3): complex numbers, "where on one node the
// representation might be real/imaginary coordinates, while on another
// polar coordinates might be used; the external rep might be the
// real/imaginary coordinates."

// ComplexTypeName is the system-wide name of the complex-number type.
const ComplexTypeName = "complex"

// RectComplex is the rectangular (real/imaginary) internal representation.
type RectComplex struct {
	Re, Im float64
}

// XTypeName implements Transmittable.
func (RectComplex) XTypeName() string { return ComplexTypeName }

// EncodeX implements Transmittable. The external rep is real/imaginary
// coordinates, so the rectangular implementation encodes trivially.
func (c RectComplex) EncodeX() (Value, error) {
	return Seq{Real(c.Re), Real(c.Im)}, nil
}

// PolarComplex is the polar (magnitude/angle) internal representation of
// the same abstract type.
type PolarComplex struct {
	R, Theta float64
}

// XTypeName implements Transmittable.
func (PolarComplex) XTypeName() string { return ComplexTypeName }

// EncodeX implements Transmittable: polar converts to the shared
// rectangular external rep.
func (c PolarComplex) EncodeX() (Value, error) {
	if math.IsNaN(c.R) || math.IsNaN(c.Theta) {
		return nil, errors.New("complex: NaN coordinate is not transmittable")
	}
	return Seq{Real(c.R * math.Cos(c.Theta)), Real(c.R * math.Sin(c.Theta))}, nil
}

// complexFields extracts and checks the two external-rep coordinates.
func complexFields(v Value) (re, im float64, err error) {
	f := ReadRec(v, ComplexTypeName, 2)
	re, im = f.Real(), f.Real()
	if err := f.Err(); err != nil {
		return 0, 0, fmt.Errorf("complex: %w", err)
	}
	return re, im, nil
}

// DecodeRectComplex is the decode operation for nodes using the
// rectangular representation.
func DecodeRectComplex(v Value) (any, error) {
	re, im, err := complexFields(v)
	if err != nil {
		return nil, err
	}
	return RectComplex{Re: re, Im: im}, nil
}

// DecodePolarComplex is the decode operation for nodes using the polar
// representation.
func DecodePolarComplex(v Value) (any, error) {
	re, im, err := complexFields(v)
	if err != nil {
		return nil, err
	}
	return PolarComplex{R: math.Hypot(re, im), Theta: math.Atan2(im, re)}, nil
}
