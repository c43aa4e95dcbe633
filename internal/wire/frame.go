package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
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
	// MsgID is unique per sending node; it keys fragment reassembly.
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
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends f's wire encoding to dst and returns the extended
// slice: header, the typed destination, source and command fields, the
// arguments, the optional replyto port, and last a CRC-32C of all of it —
// the "redundant information for error detection" the paper assigns to the
// system. A sender that reuses dst across frames encodes without
// allocating.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, frameMagic)
	dst = append(dst, frameVersion)
	flags := byte(0)
	if !f.ReplyTo.IsZero() {
		flags |= flagHasReply
	}
	dst = append(dst, flags)
	dst = appendPortName(dst, f.Dest)
	dst = binary.AppendUvarint(dst, uint64(len(f.SrcNode)))
	dst = append(dst, f.SrcNode...)
	dst = binary.AppendUvarint(dst, f.MsgID)
	dst = binary.AppendUvarint(dst, f.SrcGuardian)
	dst = binary.AppendUvarint(dst, uint64(len(f.Command)))
	dst = append(dst, f.Command...)
	dst, err := appendSeq(dst, f.Args)
	if err != nil {
		return nil, err
	}
	if flags&flagHasReply != 0 {
		dst = appendPortName(dst, f.ReplyTo)
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
// no memory with buf: every string and byte value is copied out of it.
func UnmarshalFrame(buf []byte) (*Frame, error) {
	if len(buf) < 10 {
		return nil, ErrFrameShort
	}
	body, sum := buf[:len(buf)-4], binary.BigEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return nil, ErrBadChecksum
	}
	r := reader{buf: body}
	magic, err := r.take(4)
	if err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint32(magic) != frameMagic {
		return nil, ErrBadMagic
	}
	ver, err := r.byte()
	if err != nil {
		return nil, err
	}
	if ver != frameVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	flags, err := r.byte()
	if err != nil {
		return nil, err
	}
	f := &Frame{}
	if f.Dest, err = r.taggedPortName("dest"); err != nil {
		return nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	src, err := r.take(n)
	if err != nil {
		return nil, err
	}
	f.SrcNode = string(src)
	if f.MsgID, err = r.uvarint(); err != nil {
		return nil, err
	}
	if f.SrcGuardian, err = r.uvarint(); err != nil {
		return nil, err
	}
	cn, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	cmd, err := r.take(cn)
	if err != nil {
		return nil, err
	}
	f.Command = string(cmd)
	if tag, err := r.byte(); err != nil {
		return nil, fmt.Errorf("wire: frame args: %w", err)
	} else if tag != tagSeq {
		return nil, errors.New("wire: frame args are not a sequence")
	}
	if f.Args, err = r.seq(0); err != nil {
		return nil, fmt.Errorf("wire: frame args: %w", err)
	}
	if flags&flagHasReply != 0 {
		if f.ReplyTo, err = r.taggedPortName("replyto"); err != nil {
			return nil, err
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes in frame", r.remaining())
	}
	return f, nil
}

// taggedPortName decodes a port-name value straight into its static type;
// field names the frame field in errors.
func (r *reader) taggedPortName(field string) (xrep.PortName, error) {
	tag, err := r.byte()
	if err != nil {
		return xrep.PortName{}, fmt.Errorf("wire: frame %s: %w", field, err)
	}
	if tag != tagPort {
		return xrep.PortName{}, fmt.Errorf("wire: frame %s is not a port name", field)
	}
	p, err := r.portName()
	if err != nil {
		return xrep.PortName{}, fmt.Errorf("wire: frame %s: %w", field, err)
	}
	return p, nil
}
