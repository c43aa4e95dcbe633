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
	"strings"

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
	ErrTrailing   = errors.New("wire: trailing bytes")
)

// maxWireDepth bounds decoder recursion against hostile input.
const maxWireDepth = 128

// AppendValue appends the wire encoding of v to dst and returns the
// extended slice. It recurses only into itself, which keeps dst from
// escaping: a sender may write into a buffer on its stack.
func AppendValue(dst []byte, v xrep.Value) ([]byte, error) {
	var elems xrep.Seq
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
		dst, elems = AppendSeqHeader(dst, len(x)), x
	case xrep.Rec:
		dst, elems = AppendRecHeader(dst, x.Name, len(x.Fields)), x.Fields
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
	var err error
	for _, e := range elems {
		if dst, err = AppendValue(dst, e); err != nil {
			return nil, err
		}
	}
	return dst, nil
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
	dst = AppendSeqHeader(dst, len(x))
	var err error
	for _, e := range x {
		if dst, err = AppendValue(dst, e); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// AppendArgs appends args as AppendSeq appends xrep.EncodeAll(args...): a
// send's step 1 and its argument field in one pass, with no value tree
// between the common Go values and the bytes. It refuses what l refuses of
// that sequence nested depth levels down (0 for a message's argument list),
// with the same sentinel errors, reporting the first fault left to right.
// Like AppendValue it recurses only into itself.
func AppendArgs(dst []byte, l xrep.Limits, depth int, args []any) ([]byte, error) {
	if err := l.Check(xrep.KindSeq, len(args), depth); err != nil {
		return nil, err
	}
	dst = AppendSeqHeader(dst, len(args))
	depth++
	for i, x := range args {
		var err error
		switch v := x.(type) {
		case string:
			err, dst = l.Check(xrep.KindString, len(v), depth), AppendStr(dst, v)
		case int64:
			err, dst = errors.Join(l.Check(xrep.KindInt, 0, depth), l.CheckInt(v)), AppendInt(dst, v)
		case int:
			err, dst = errors.Join(l.Check(xrep.KindInt, 0, depth), l.CheckInt(int64(v))), AppendInt(dst, int64(v))
		case []any:
			dst, err = AppendArgs(dst, l, depth, v)
		default:
			// Every other argument goes through xrep.Encode: a Value
			// passes as itself, the rarer Go kinds are boxed on the way.
			var val xrep.Value
			if val, err = xrep.Encode(x); err == nil {
				if err = l.ValidateAt(val, depth); err == nil {
					dst, err = AppendValue(dst, val)
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("seq[%d]: %w", i, err)
		}
	}
	return dst, nil
}

// MarshalValue returns the wire encoding of v.
func MarshalValue(v xrep.Value) ([]byte, error) {
	return AppendValue(nil, v)
}

// The decoder runs twice over a message. The sizing pass walks the encoding
// without allocating: it is the whole validation (tags, nesting depth, every
// length against what is left, the element budget), so hostile bytes are
// refused before the first make, and it counts the sequence slots and string
// bytes the message needs. The fill pass then carves every Seq out of one
// []xrep.Value and every string out of one string allocation: a message's
// values are one slab the receiver owns, copied out of the input, never a
// view of it. Bytes and Token bodies are mutable, so each stays its own copy.

// reader is a cursor over immutable input that arrives in one piece or in
// several — the payloads of a message's fragments, in order. Its error is
// sticky: the first failed read is remembered, and every read after it
// returns zeros without moving.
type reader struct {
	buf   []byte    // the segment under the cursor, cut to what of it is readable
	off   int       // the cursor in buf
	rest  []*[]byte // the segments after it
	after int       // bytes readable in rest; it holds at least that many
	err   error
}

// remaining is the bytes still readable.
func (r *reader) remaining() int { return len(r.buf) - r.off + r.after }

// first returns a cursor over the next n bytes of r alone, n ≤ r.remaining().
func (r reader) first(n int) reader {
	r.buf = r.buf[:min(len(r.buf), r.off+n)]
	r.after = n - (len(r.buf) - r.off)
	return r
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off, r.after = len(r.buf), 0
}

// chunk consumes and returns the next run of contiguous bytes, at most max
// of them. It comes back empty only when max or r.remaining() is zero.
func (r *reader) chunk(max int) []byte {
	for r.off == len(r.buf) && r.after > 0 {
		next := *r.rest[0]
		r.buf, r.off, r.rest = next[:min(len(next), r.after)], 0, r.rest[1:]
		r.after -= len(r.buf)
	}
	c := r.buf[r.off:min(len(r.buf), r.off+max)]
	r.off += len(c)
	return c
}

func (r *reader) byte() byte {
	if r.off < len(r.buf) {
		r.off++
		return r.buf[r.off-1]
	}
	if c := r.chunk(1); len(c) == 1 {
		return c[0]
	}
	r.fail(ErrTruncated)
	return 0
}

func (r *reader) uvarint() uint64 {
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 { // one byte: most lengths and counts
		r.off++
		return uint64(r.buf[r.off-1])
	}
	return r.uvarintLong()
}

func (r *reader) uvarintLong() uint64 {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n > 0 {
		r.off += n
		return v
	}
	if n < 0 {
		r.fail(ErrTruncated) // overflows 64 bits; reported as it always was
		return 0
	}
	// Byte by byte: the segment ends inside the varint, if the input does not.
	v = 0
	for shift := uint(0); shift < 64; shift += 7 {
		b := r.byte()
		if r.err != nil {
			return 0
		}
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break // overflow
			}
			return v | uint64(b)<<shift
		}
		v |= uint64(b&0x7f) << shift
	}
	r.fail(ErrTruncated)
	return 0
}

func (r *reader) varint() int64 {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// skip consumes n bytes.
func (r *reader) skip(n uint64) {
	if n > uint64(r.remaining()) {
		r.fail(ErrOversize)
		return
	}
	for m := int(n); m > 0; {
		m -= len(r.chunk(m))
	}
}

// read fills dst from the input, as far as the input goes.
func (r *reader) read(dst []byte) {
	for len(dst) > 0 && r.remaining() > 0 {
		dst = dst[copy(dst, r.chunk(len(dst))):]
	}
}

// decoder is one message's decode: the sizing pass's counts, then the two
// slabs the fill pass carves them from.
type decoder struct {
	r reader
	// limit is the input's length. Every sequence element owns at least its
	// tag byte, so an honest encoding never promises more than limit of them
	// over all its sequences; holding elems to that keeps the slot slab
	// proportional to the input however the length fields nest.
	limit    uint64
	elems    uint64 // sequence elements promised, at every nesting level
	strBytes uint64 // bytes of Str, record-name, node-name and header strings

	slots []xrep.Value    // the slot slab's unclaimed tail
	strs  strings.Builder // the string slab, grown once
}

// beginFill ends the sizing pass: it takes the slot slab, which holds at
// least the slots that pass counted, makes the string slab it measured and
// puts the cursor back at start for the fill pass.
func (d *decoder) beginFill(start reader, slots []xrep.Value) {
	d.slots = slots
	d.strs.Grow(int(d.strBytes))
	d.r = start
}

// sizeValue is the sizing pass over one value; depth is its nesting level.
// Failures are bare sentinels in d.r.err, so refusing an input allocates
// nothing at all.
func (d *decoder) sizeValue(depth int) {
	if depth > maxWireDepth {
		d.r.fail(ErrValueDepth)
		return
	}
	switch d.r.byte() {
	case tagNull, tagFalse, tagTrue:
	case tagInt:
		d.r.uvarint()
	case tagReal:
		d.r.skip(8)
	case tagStr:
		d.sizeStr()
	case tagBytes:
		d.r.skip(d.r.uvarint())
	case tagSeq:
		d.sizeSeq(depth)
	case tagRec:
		d.sizeStr()
		d.sizeSeq(depth)
	case tagPort:
		d.sizePortName()
	case tagToken:
		d.r.uvarint()
		d.r.skip(d.r.uvarint())
		d.r.skip(d.r.uvarint())
	default:
		d.r.fail(ErrBadTag)
	}
}

// sizeSeq sizes a sequence's count and elements — what follows tagSeq, and
// a record's fields. depth is the sequence's own nesting level.
func (d *decoder) sizeSeq(depth int) {
	n := d.r.uvarint()
	if n > uint64(d.r.remaining()) || d.elems+n > d.limit {
		d.r.fail(ErrOversize) // each element needs ≥1 byte
		return
	}
	d.elems += n
	for ; n > 0 && d.r.err == nil; n-- {
		d.sizeValue(depth + 1)
	}
}

// sizeStr sizes a length-prefixed string bound for the string slab.
func (d *decoder) sizeStr() {
	n := d.r.uvarint()
	d.r.skip(n)
	d.strBytes += n
}

// sizePortName sizes what follows tagPort.
func (d *decoder) sizePortName() {
	d.sizeStr()
	d.r.uvarint()
	d.r.uvarint()
}

// value is the fill pass over one value: it reads what the sizing pass
// accepted, so none of its reads can fail and it checks nothing again.
func (d *decoder) value() xrep.Value {
	switch d.r.byte() {
	case tagNull:
		return xrep.Null{}
	case tagFalse:
		return xrep.Bool(false)
	case tagTrue:
		return xrep.Bool(true)
	case tagInt:
		return xrep.Int(d.r.varint())
	case tagReal:
		var b [8]byte
		d.r.read(b[:])
		return xrep.Real(math.Float64frombits(binary.BigEndian.Uint64(b[:])))
	case tagStr:
		return xrep.Str(d.str())
	case tagBytes:
		return xrep.Bytes(d.blob())
	case tagSeq:
		return d.seq()
	case tagRec:
		name := d.str()
		return xrep.Rec{Name: name, Fields: d.seq()}
	case tagPort:
		return d.portName()
	default: // tagToken: the sizing pass admits no other
		issuer := d.r.uvarint()
		body := d.blob()
		return xrep.Token{Issuer: issuer, Body: body, Seal: d.blob()}
	}
}

// seq carves a sequence from the slot slab and fills it. Its capacity is
// its length, so appending to it copies it rather than reach the slots of
// the sequence carved next. An empty one is nil, which boxes into a Value
// without an allocation.
func (d *decoder) seq() xrep.Seq {
	n := d.r.uvarint()
	if n == 0 {
		return nil
	}
	seq := xrep.Seq(d.slots[:n:n])
	d.slots = d.slots[n:]
	for i := range seq {
		seq[i] = d.value()
	}
	return seq
}

// blob copies a length-prefixed run of bytes into an allocation of its
// own: Bytes and Token bodies are mutable, so they share nothing.
func (d *decoder) blob() []byte {
	out := make([]byte, d.r.uvarint())
	d.r.read(out)
	return out
}

// str copies a length-prefixed string into the string slab, piece by piece
// where it straddles segments. The builder never outgrows what beginFill
// reserved, so the strings it has handed out stay one allocation.
func (d *decoder) str() string {
	start := d.strs.Len()
	for n := int(d.r.uvarint()); n > 0 && d.r.remaining() > 0; {
		c := d.r.chunk(n)
		d.strs.Write(c)
		n -= len(c)
	}
	return d.strs.String()[start:]
}

func (d *decoder) portName() xrep.PortName {
	node := d.str()
	g := d.r.uvarint()
	return xrep.PortName{Node: node, Guardian: g, Port: d.r.uvarint()}
}

// UnmarshalValue decodes a single value, requiring the buffer to be fully
// consumed. The value shares no memory with buf.
func UnmarshalValue(buf []byte) (xrep.Value, error) {
	start := reader{buf: buf}
	d := decoder{r: start, limit: uint64(len(buf))}
	d.sizeValue(0)
	if d.r.remaining() != 0 {
		d.r.fail(ErrTrailing)
	}
	if d.r.err != nil {
		return nil, d.r.err
	}
	d.beginFill(start, make([]xrep.Value, d.elems))
	return d.value(), nil
}
