// Package wire implements the system's low-level message machinery (§3.3,
// §3.4): turning a message (command identifier plus external-rep argument
// values) into "a string of bits with appropriate format", breaking large
// messages into packets and reassembling them, and using "redundant
// information for error detection" (CRC-32 checksums) so that a message is
// forwarded to its target port only "when the bits of the message are not
// in error".
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/xrep"
)

// Value tags on the wire. These are part of the system-wide fixed meaning
// of the built-in types and must never be renumbered.
const (
	tagNull  = 0x00
	tagFalse = 0x01
	tagTrue  = 0x02
	tagInt   = 0x03
	tagReal  = 0x04
	tagStr   = 0x05
	tagBytes = 0x06
	tagSeq   = 0x07
	tagRec   = 0x08
	tagPort  = 0x09
	tagToken = 0x0A
)

// Codec errors.
var (
	ErrTruncated  = errors.New("wire: truncated value")
	ErrBadTag     = errors.New("wire: unknown value tag")
	ErrOversize   = errors.New("wire: length field exceeds remaining input")
	ErrValueDepth = errors.New("wire: value nesting too deep")
)

// maxWireDepth bounds decoder recursion against hostile input.
const maxWireDepth = 128

// AppendValue appends the wire encoding of v to dst and returns the
// extended slice.
func AppendValue(dst []byte, v xrep.Value) ([]byte, error) {
	switch x := v.(type) {
	case nil, xrep.Null:
		return append(dst, tagNull), nil
	case xrep.Bool:
		return AppendBool(dst, bool(x)), nil
	case xrep.Int:
		return AppendInt(dst, int64(x)), nil
	case xrep.Real:
		dst = append(dst, tagReal)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(float64(x))), nil
	case xrep.Str:
		return AppendStr(dst, string(x)), nil
	case xrep.Bytes:
		dst = append(dst, tagBytes)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		return append(dst, x...), nil
	case xrep.Seq:
		return AppendSeq(dst, x)
	case xrep.Rec:
		return appendElems(AppendRecHeader(dst, x.Name, len(x.Fields)), x.Fields)
	case xrep.PortName:
		return AppendPortName(dst, x), nil
	case xrep.Token:
		dst = append(dst, tagToken)
		dst = binary.AppendUvarint(dst, x.Issuer)
		dst = binary.AppendUvarint(dst, uint64(len(x.Body)))
		dst = append(dst, x.Body...)
		dst = binary.AppendUvarint(dst, uint64(len(x.Seal)))
		return append(dst, x.Seal...), nil
	default:
		return nil, fmt.Errorf("wire: cannot encode %T", v)
	}
}

// The typed append vocabulary: each function writes exactly the bytes
// AppendValue writes for the corresponding xrep value, from a Go value, so
// an encoder that knows its record's shape (a log record, a call envelope)
// goes from its fields to bytes without building the tree. A header
// promises n elements; the caller appends exactly n values after it.

// AppendStr appends s as AppendValue appends xrep.Str(s).
func AppendStr(dst []byte, s string) []byte {
	dst = append(dst, tagStr)
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBool appends b as AppendValue appends xrep.Bool(b).
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, tagTrue)
	}
	return append(dst, tagFalse)
}

// AppendInt appends v as AppendValue appends xrep.Int(v).
func AppendInt(dst []byte, v int64) []byte {
	return binary.AppendVarint(append(dst, tagInt), v)
}

// AppendPortName appends p as AppendValue appends it.
func AppendPortName(dst []byte, p xrep.PortName) []byte {
	dst = append(dst, tagPort)
	dst = binary.AppendUvarint(dst, uint64(len(p.Node)))
	dst = append(dst, p.Node...)
	dst = binary.AppendUvarint(dst, p.Guardian)
	return binary.AppendUvarint(dst, p.Port)
}

// AppendSeqHeader opens a sequence of n elements.
func AppendSeqHeader(dst []byte, n int) []byte {
	return binary.AppendUvarint(append(dst, tagSeq), uint64(n))
}

// AppendRecHeader opens a record of the named type with n fields.
func AppendRecHeader(dst []byte, name string, n int) []byte {
	dst = append(dst, tagRec)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	return binary.AppendUvarint(dst, uint64(n))
}

// AppendSeq appends x under its static type: AppendValue's sequence case
// without first boxing the slice into an xrep.Value.
func AppendSeq(dst []byte, x xrep.Seq) ([]byte, error) {
	return appendElems(AppendSeqHeader(dst, len(x)), x)
}

func appendElems(dst []byte, x xrep.Seq) ([]byte, error) {
	var err error
	for _, e := range x {
		if dst, err = AppendValue(dst, e); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// MarshalValue returns the wire encoding of v.
func MarshalValue(v xrep.Value) ([]byte, error) {
	return AppendValue(nil, v)
}

// reader is a cursor over an immutable byte slice.
type reader struct {
	buf []byte
	off int
	// elems is the sequence elements promised so far, at every nesting
	// level. Each owns at least its tag byte, so an honest encoding never
	// promises more than len(buf); holding every sequence to that keeps
	// what a decode allocates proportional to its input however the
	// length fields nest.
	elems uint64
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, ErrTruncated
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.off += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.off += n
	return v, nil
}

func (r *reader) take(n uint64) ([]byte, error) {
	if n > uint64(r.remaining()) {
		return nil, ErrOversize
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// value decodes one value at the cursor; depth is its nesting level.
func (r *reader) value(depth int) (xrep.Value, error) {
	if depth > maxWireDepth {
		return nil, ErrValueDepth
	}
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNull:
		return xrep.Null{}, nil
	case tagFalse:
		return xrep.Bool(false), nil
	case tagTrue:
		return xrep.Bool(true), nil
	case tagInt:
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		return xrep.Int(v), nil
	case tagReal:
		b, err := r.take(8)
		if err != nil {
			return nil, err
		}
		return xrep.Real(math.Float64frombits(binary.BigEndian.Uint64(b))), nil
	case tagStr:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := r.take(n)
		if err != nil {
			return nil, err
		}
		return xrep.Str(b), nil
	case tagBytes:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := r.take(n)
		if err != nil {
			return nil, err
		}
		out := make([]byte, n)
		copy(out, b)
		return xrep.Bytes(out), nil
	case tagSeq:
		seq, err := r.seq(depth)
		if err != nil {
			return nil, err
		}
		return seq, nil
	case tagRec:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		name, err := r.take(n)
		if err != nil {
			return nil, err
		}
		fields, err := r.seq(depth)
		if err != nil {
			return nil, err
		}
		return xrep.Rec{Name: string(name), Fields: fields}, nil
	case tagPort:
		p, err := r.portName()
		if err != nil {
			return nil, err
		}
		return p, nil
	case tagToken:
		issuer, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		bn, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		body, err := r.take(bn)
		if err != nil {
			return nil, err
		}
		sn, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		seal, err := r.take(sn)
		if err != nil {
			return nil, err
		}
		bodyC := make([]byte, len(body))
		copy(bodyC, body)
		sealC := make([]byte, len(seal))
		copy(sealC, seal)
		return xrep.Token{Issuer: issuer, Body: bodyC, Seal: sealC}, nil
	default:
		return nil, fmt.Errorf("%w: 0x%02x", ErrBadTag, tag)
	}
}

// seq decodes a sequence's count and elements — what follows tagSeq, and a
// record's fields. depth is the sequence's own nesting level.
func (r *reader) seq(depth int) (xrep.Seq, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) || r.elems+n > uint64(len(r.buf)) {
		return nil, ErrOversize // each element needs ≥1 byte
	}
	r.elems += n
	seq := make(xrep.Seq, n)
	for i := range seq {
		if seq[i], err = r.value(depth + 1); err != nil {
			return nil, err
		}
	}
	return seq, nil
}

// portName decodes what follows tagPort.
func (r *reader) portName() (xrep.PortName, error) {
	node, g, p, err := r.portNameParts()
	if err != nil {
		return xrep.PortName{}, err
	}
	return xrep.PortName{Node: string(node), Guardian: g, Port: p}, nil
}

// portNameParts is portName without copying the node name out of the input.
func (r *reader) portNameParts() (node []byte, guardian, port uint64, err error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, 0, 0, err
	}
	if node, err = r.take(n); err != nil {
		return nil, 0, 0, err
	}
	if guardian, err = r.uvarint(); err != nil {
		return nil, 0, 0, err
	}
	if port, err = r.uvarint(); err != nil {
		return nil, 0, 0, err
	}
	return node, guardian, port, nil
}

// UnmarshalValue decodes a single value, requiring the buffer to be fully
// consumed.
func UnmarshalValue(buf []byte) (xrep.Value, error) {
	r := reader{buf: buf}
	v, err := r.value(0)
	if err != nil {
		return nil, err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after value", r.remaining())
	}
	return v, nil
}
