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
	dst = AppendPortName(dst, f.Dest)
	dst = binary.AppendUvarint(dst, uint64(len(f.SrcNode)))
	dst = append(dst, f.SrcNode...)
	dst = binary.AppendUvarint(dst, f.MsgID)
	dst = binary.AppendUvarint(dst, f.SrcGuardian)
	dst = binary.AppendUvarint(dst, uint64(len(f.Command)))
	dst = append(dst, f.Command...)
	dst, err := AppendSeq(dst, f.Args)
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
// no memory with buf: every string and byte value is copied out of it.
func UnmarshalFrame(buf []byte) (*Frame, error) {
	f := new(Frame)
	if err := UnmarshalFrameInto(f, buf); err != nil {
		return nil, err
	}
	return f, nil
}

// UnmarshalFrameInto is UnmarshalFrame into a Frame the caller owns, so a
// receiver that turns the frame into something else at once need not
// allocate it. On error f's contents are unspecified. The four header
// strings (Dest.Node, SrcNode, Command, ReplyTo.Node) are slices of one
// allocation; argument values each own their memory, because receivers
// retain them individually.
func UnmarshalFrameInto(f *Frame, buf []byte) error {
	if len(buf) < 10 {
		return ErrFrameShort
	}
	body, sum := buf[:len(buf)-4], binary.BigEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return ErrBadChecksum
	}
	r := reader{buf: body}
	magic, err := r.take(4)
	if err != nil {
		return err
	}
	if binary.BigEndian.Uint32(magic) != frameMagic {
		return ErrBadMagic
	}
	ver, err := r.byte()
	if err != nil {
		return err
	}
	if ver != frameVersion {
		return fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	flags, err := r.byte()
	if err != nil {
		return err
	}
	*f = Frame{}
	var destNode, src, cmd, replyNode []byte
	if destNode, f.Dest.Guardian, f.Dest.Port, err = r.taggedPortName("dest"); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if src, err = r.take(n); err != nil {
		return err
	}
	if f.MsgID, err = r.uvarint(); err != nil {
		return err
	}
	if f.SrcGuardian, err = r.uvarint(); err != nil {
		return err
	}
	cn, err := r.uvarint()
	if err != nil {
		return err
	}
	if cmd, err = r.take(cn); err != nil {
		return err
	}
	if tag, err := r.byte(); err != nil {
		return fmt.Errorf("wire: frame args: %w", err)
	} else if tag != tagSeq {
		return errors.New("wire: frame args are not a sequence")
	}
	if f.Args, err = r.seq(0); err != nil {
		return fmt.Errorf("wire: frame args: %w", err)
	}
	if flags&flagHasReply != 0 {
		if replyNode, f.ReplyTo.Guardian, f.ReplyTo.Port, err = r.taggedPortName("replyto"); err != nil {
			return err
		}
	}
	if r.remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes in frame", r.remaining())
	}
	// One allocation: the conversions are temporaries of the concatenation.
	s := string(destNode) + string(src) + string(cmd) + string(replyNode)
	f.Dest.Node, s = s[:len(destNode)], s[len(destNode):]
	f.SrcNode, s = s[:len(src)], s[len(src):]
	f.Command, f.ReplyTo.Node = s[:len(cmd)], s[len(cmd):]
	return nil
}

// taggedPortName decodes a port-name value's parts; node aliases the
// input. field names the frame field in errors.
func (r *reader) taggedPortName(field string) (node []byte, guardian, port uint64, err error) {
	tag, err := r.byte()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wire: frame %s: %w", field, err)
	}
	if tag != tagPort {
		return nil, 0, 0, fmt.Errorf("wire: frame %s is not a port name", field)
	}
	if node, guardian, port, err = r.portNameParts(); err != nil {
		return nil, 0, 0, fmt.Errorf("wire: frame %s: %w", field, err)
	}
	return node, guardian, port, nil
}
