package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"repro/internal/xrep"
)

// Frame is a complete message as constructed by the send command (§3.4
// step 2): the destination port, the command identifier, the encoded
// arguments, and the optional replyto port (which "is really an extra
// argument of the message").
type Frame struct {
	// Dest is the target port's global name.
	Dest xrep.PortName
	// SrcNode is the sending node's address, used to route system failure
	// replies and for reassembly keying.
	SrcNode string
	// MsgID is unique per sending and receiving node pair; it keys
	// fragment reassembly.
	MsgID uint64
	// SrcGuardian identifies the sending guardian on SrcNode. The runtime
	// stamps it; receiving guardians may use it as the principal for
	// access-control checks (§2.3).
	SrcGuardian uint64
	// Command is the command identifier.
	Command string
	// Args holds the already-encoded argument values, left to right.
	Args xrep.Seq
	// ReplyTo, when non-zero, is where responses (including system failure
	// messages) should be sent.
	ReplyTo xrep.PortName
}

// Frame format constants.
const (
	frameMagic   = 0x4C477D9 // "LG" + 1979 & 0xFFF
	frameVersion = 1

	flagHasReply = 0x01
)

// Frame errors.
var (
	ErrBadMagic    = errors.New("wire: bad frame magic")
	ErrBadVersion  = errors.New("wire: unsupported frame version")
	ErrBadChecksum = errors.New("wire: frame checksum mismatch")
	ErrFrameShort  = errors.New("wire: frame too short")
	ErrFrameField  = errors.New("wire: frame field of the wrong kind")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends f's wire encoding to dst and returns the extended
// slice: header, the typed destination, source and command fields, the
// arguments, the optional replyto port, and last a CRC-32C of all of it —
// the "redundant information for error detection" the paper assigns to the
// system. A sender that reuses dst across frames encodes without
// allocating.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	return AppendFrameWith(dst, f, func(dst []byte) ([]byte, error) { return AppendSeq(dst, f.Args) })
}

// AppendFrameWith is AppendFrame with the arguments written by args, which
// appends one sequence value to what it is given — as AppendArgs or
// AppendSeq writes one — instead of f.Args. An error from args is
// returned as is.
func AppendFrameWith(dst []byte, f *Frame, args func(dst []byte) ([]byte, error)) ([]byte, error) {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, frameMagic)
	dst = append(dst, frameVersion)
	flags := byte(0)
	if !f.ReplyTo.IsZero() {
		flags |= flagHasReply
	}
	dst = append(dst, flags)
	dst = AppendPortName(dst, f.Dest)
	dst = binary.AppendUvarint(dst, uint64(len(f.SrcNode)))
	dst = append(dst, f.SrcNode...)
	dst = binary.AppendUvarint(dst, f.MsgID)
	dst = binary.AppendUvarint(dst, f.SrcGuardian)
	dst = binary.AppendUvarint(dst, uint64(len(f.Command)))
	dst = append(dst, f.Command...)
	dst, err := args(dst)
	if err != nil {
		return nil, err
	}
	if flags&flagHasReply != 0 {
		dst = AppendPortName(dst, f.ReplyTo)
	}
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable)), nil
}

// Marshal returns the frame's wire encoding in a buffer of its own.
func (f *Frame) Marshal() ([]byte, error) {
	return AppendFrame(make([]byte, 0, 64+len(f.Command)), f)
}

// UnmarshalFrame verifies the checksum and decodes a frame. A checksum
// mismatch returns ErrBadChecksum; the runtime discards such messages, so a
// corrupted message is never forwarded to its target port. The frame shares
// no memory with buf: every string and byte value is copied out of it. A
// frame that is refused costs no allocation.
func UnmarshalFrame(buf []byte) (*Frame, error) {
	var r FrameReader
	n, err := r.Size(Contiguous(buf))
	if err != nil {
		return nil, err
	}
	f := new(Frame)
	r.Fill(f, make([]xrep.Value, n))
	return f, nil
}

// UnmarshalSegments is UnmarshalFrame into a Frame the caller owns, for a
// frame as the reassembler hands it over, decoded straight from the
// fragments that carried it. A frame that is refused leaves f untouched and
// costs no allocation. One that is accepted is two slabs (see decoder): its
// strings — the four header strings, every Str, record name and node name
// in the arguments — are substrings of one allocation and its sequences
// sub-slices of another, so retaining any one value keeps its whole message
// reachable.
func UnmarshalSegments(f *Frame, s Segments) error {
	var r FrameReader
	n, err := r.Size(s)
	if err != nil {
		return err
	}
	r.Fill(f, make([]xrep.Value, n))
	return nil
}

// FrameReader decodes one frame in the decoder's two passes, so that its
// caller can allocate the frame's sequence slots between them, together
// with what it will keep the frame in: Size verifies the frame and says how
// many slots it needs, and Fill decodes it into slots the caller provides.
// The zero FrameReader is ready for Size; the segments Size was given must
// stay readable until Fill returns.
type FrameReader struct {
	d     decoder
	start reader // the body, for the fill pass
	flags byte
}

// Size verifies s's checksum and runs the sizing pass, which is every check
// a frame must pass, and returns how many sequence slots Fill needs: the
// elements of every sequence in the arguments, at every nesting level. It
// allocates nothing, whether it accepts the frame or refuses it; a checksum
// mismatch returns ErrBadChecksum.
func (r *FrameReader) Size(s Segments) (slots int, err error) {
	all := s.reader()
	body := all.remaining() - 4 // all but the trailing checksum
	if body < 6 {
		return 0, ErrFrameShort
	}
	start, crc := all.first(body), uint32(0)
	for n := body; n > 0; {
		c := all.chunk(n)
		crc = crc32.Update(crc, crcTable, c)
		n -= len(c)
	}
	var want [4]byte
	all.read(want[:])
	if crc != binary.BigEndian.Uint32(want[:]) {
		return 0, ErrBadChecksum
	}
	r.d = decoder{r: start, limit: uint64(body)}
	r.flags = r.d.sizeFrame()
	if r.d.r.err != nil {
		return 0, r.d.r.err
	}
	r.start = start
	return int(r.d.elems), nil
}

// Fill runs the fill pass over the frame Size accepted, into f. The
// frame's sequences are carved from the first slots of slots, as many as
// Size returned; each gets a capacity equal to its length, so appending to
// one copies it. Its strings are one allocation of Fill's own.
func (r *FrameReader) Fill(f *Frame, slots []xrep.Value) {
	r.d.beginFill(r.start, slots)
	r.d.frame(f, r.flags)
}

// sizeFrame is the sizing pass over a frame's body: every check a frame
// must pass, and the slab sizes of what it holds.
func (d *decoder) sizeFrame() (flags byte) {
	var hdr [6]byte
	d.r.read(hdr[:]) // all there: the body is at least six bytes
	if binary.BigEndian.Uint32(hdr[:]) != frameMagic {
		d.r.fail(ErrBadMagic)
	} else if hdr[4] != frameVersion {
		d.r.fail(ErrBadVersion)
	}
	d.sizeField(tagPort) // dest
	d.sizeStr()          // source node
	d.r.uvarint()        // message id
	d.r.uvarint()        // source guardian
	d.sizeStr()          // command
	d.sizeField(tagSeq)  // args
	if hdr[5]&flagHasReply != 0 {
		d.sizeField(tagPort) // replyto
	}
	if d.r.remaining() != 0 {
		d.r.fail(ErrTrailing)
	}
	return hdr[5]
}

// sizeField sizes a frame field that is encoded as a value and must be of
// the kind tag names: a port name or a sequence.
func (d *decoder) sizeField(tag byte) {
	if d.r.byte() != tag {
		d.r.fail(ErrFrameField) // or, the first failure, that there was no byte
	} else if tag == tagPort {
		d.sizePortName()
	} else {
		d.sizeSeq(0)
	}
}

// frame is the fill pass over the body sizeFrame accepted.
func (d *decoder) frame(f *Frame, flags byte) {
	*f = Frame{}
	d.r.skip(6 + 1) // magic, version, flags; dest's tag
	f.Dest = d.portName()
	f.SrcNode = d.str()
	f.MsgID = d.r.uvarint()
	f.SrcGuardian = d.r.uvarint()
	f.Command = d.str()
	d.r.skip(1) // args' tag
	f.Args = d.seq()
	if flags&flagHasReply != 0 {
		d.r.skip(1) // replyto's tag
		f.ReplyTo = d.portName()
	}
}
