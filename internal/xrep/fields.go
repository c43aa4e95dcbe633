package xrep

import (
	"errors"
	"fmt"
)

// ErrMalformed is what Fields.Err wraps: the value is not the sequence or
// record its reader was opened for, or a field has the wrong kind.
var ErrMalformed = errors.New("xrep: malformed value")

// Fields reads the fields of one sequence or named record left to right —
// the decode-side twin of wire.Append*, and §3.3's "checked left to
// right" as one mechanism. Open it with ReadFields, ReadSeq or ReadRec, take
// the fields in order with Str, Int, Bool, Real, Bytes, Seq, Port or Value,
// and ask Err once at the end: the reader remembers the first arity or
// kind mismatch, every read after it returns the zero value, and a value
// whose Err is non-nil must not be applied. A Fields is a stack value, and
// reading a value it accepts allocates nothing.
type Fields struct {
	fs   Seq
	next int
	what string // "seq", or the record name opened for
	err  error  // the first failure
}

// ReadFields opens a reader on fs, which must hold at least n fields. Err
// refuses fields left unread, so n is the exact arity unless the caller
// takes optional trailing fields while More reports some.
func ReadFields(fs Seq, n int) Fields { return open(true, nil, "seq", fs, n) }

// ReadSeq is ReadFields for a value that must be a sequence.
func ReadSeq(v Value, n int) Fields {
	fs, ok := v.(Seq)
	return open(ok, v, "seq", fs, n)
}

// ReadRec is ReadFields for the fields of the record called name.
func ReadRec(v Value, name string, n int) Fields {
	rec, ok := v.(Rec)
	return open(ok && rec.Name == name, v, name, rec.Fields, n)
}

func open(ok bool, v Value, what string, fs Seq, n int) Fields {
	f := Fields{what: what, fs: fs}
	switch {
	case !ok:
		f.fs = nil
		f.fail("a %s where %s is wanted", kindOf(v), what)
	case len(fs) < n:
		f.fail("%s has %d fields, wants %d", what, len(fs), n)
	}
	return f
}

// fail remembers the first failure.
func (f *Fields) fail(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

// RecName returns the name of the record v, or "" when v is not a record:
// what a reader of several record kinds switches on before ReadRec.
func RecName(v Value) string {
	rec, _ := v.(Rec)
	return rec.Name
}

func kindOf(v Value) Kind {
	if v == nil {
		return KindNull
	}
	return v.Kind()
}

// More reports whether fields remain unread and no read has failed.
func (f *Fields) More() bool { return f.err == nil && f.next < len(f.fs) }

// Value returns the next field whatever its kind.
func (f *Fields) Value() Value {
	if f.err == nil && f.next >= len(f.fs) {
		f.fail("%s has %d fields, wants %d", f.what, len(f.fs), f.next+1)
	}
	if f.err != nil {
		return nil
	}
	f.next++
	return f.fs[f.next-1]
}

// Rest returns the fields not yet read and takes them all: how a reader
// that tolerates surplus trailing fields says so.
func (f *Fields) Rest() Seq {
	if f.err != nil {
		return nil
	}
	rest := f.fs[f.next:]
	f.next = len(f.fs)
	return rest
}

// typed remembers a kind mismatch on the field Value just handed out. The
// typed readers are written out rather than instantiated from one generic:
// a caller in another package cannot see that an instantiation keeps the
// reader on its stack, and the reader would move to the heap.
func (f *Fields) typed(ok bool, want Kind) {
	if !ok && f.err == nil {
		f.fail("%s field %d is a %s, not a %s", f.what, f.next-1, kindOf(f.fs[f.next-1]), want)
	}
}

// Str returns the next field, a string.
func (f *Fields) Str() string {
	v, ok := f.Value().(Str)
	f.typed(ok, KindString)
	return string(v)
}

// Int returns the next field, an integer.
func (f *Fields) Int() int64 {
	v, ok := f.Value().(Int)
	f.typed(ok, KindInt)
	return int64(v)
}

// Bool returns the next field, a boolean.
func (f *Fields) Bool() bool {
	v, ok := f.Value().(Bool)
	f.typed(ok, KindBool)
	return bool(v)
}

// Real returns the next field, a real.
func (f *Fields) Real() float64 {
	v, ok := f.Value().(Real)
	f.typed(ok, KindReal)
	return float64(v)
}

// Bytes returns the next field, a byte string.
func (f *Fields) Bytes() []byte {
	v, ok := f.Value().(Bytes)
	f.typed(ok, KindBytes)
	return v
}

// Seq returns the next field, a sequence.
func (f *Fields) Seq() Seq {
	v, ok := f.Value().(Seq)
	f.typed(ok, KindSeq)
	return v
}

// Port returns the next field, a port name.
func (f *Fields) Port() PortName {
	v, ok := f.Value().(PortName)
	f.typed(ok, KindPortName)
	return v
}

// Err reports the first mismatch, or fields left unread, as an error that
// wraps ErrMalformed; nil means every field was present, of the kind
// asked for, and taken.
func (f *Fields) Err() error {
	if f.err == nil && f.next < len(f.fs) {
		f.fail("%s has %d fields, %d read", f.what, len(f.fs), f.next)
	}
	return f.err
}
