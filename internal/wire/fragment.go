package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"
)

// This file implements §3.4 step 3: "The message is sent (after being
// broken into packets if necessary)" and the receiving side's rule that a
// message is forwarded to its port only "when the message is entirely and
// correctly received at the receiving node (i.e., all packets have arrived,
// and the bits of the message are not in error)".

// Packet header layout (big endian):
//
//	byte  0     magic 'K'
//	bytes 1-8   message id
//	then uvarint index, uvarint count, uvarint payload length, payload,
//	and a trailing CRC-32C over everything before it.
const packetMagic = 0x4B

// Fragmentation errors.
var (
	ErrBadPacket    = errors.New("wire: malformed packet")
	ErrPacketCRC    = errors.New("wire: packet checksum mismatch")
	ErrInconsistent = errors.New("wire: packet inconsistent with earlier fragments")
)

// packetOverhead is a safe upper bound on header+trailer bytes per packet.
const packetOverhead = 1 + 8 + 5 + 5 + 5 + 4

// maxFragments bounds the packets of one message, at both ends: a sender
// refuses to split a frame further, and a receiver drops a packet claiming
// more, so a hostile count cannot size the reassembly table. At the default
// 16 KiB MTU it allows a 1 GiB message.
const maxFragments = 1 << 16

// Packets reports how a marshalled frame of frameLen bytes is split for a
// network whose packets may not exceed mtu: count packets, each but the
// last carrying chunk payload bytes. When mtu is zero or the frame (plus
// one header) fits, that is a single packet.
func Packets(frameLen, mtu int) (chunk, count int, err error) {
	if frameLen == 0 {
		return 0, 0, errors.New("wire: empty frame")
	}
	chunk = frameLen
	if mtu > 0 {
		avail := mtu - packetOverhead
		if avail <= 0 {
			return 0, 0, fmt.Errorf("wire: MTU %d cannot fit packet overhead %d", mtu, packetOverhead)
		}
		chunk = min(chunk, avail)
	}
	count = (frameLen + chunk - 1) / chunk
	if count > maxFragments {
		return 0, 0, fmt.Errorf("wire: %d-byte frame needs %d packets at MTU %d, more than %d", frameLen, count, mtu, maxFragments)
	}
	return chunk, count, nil
}

// AppendPacket appends to dst the packet carrying payload as fragment
// index of count of message msgID, and returns the extended slice. The
// msgID ties the fragments back together at the receiver.
func AppendPacket(dst []byte, msgID uint64, index, count int, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, packetMagic)
	dst = binary.BigEndian.AppendUint64(dst, msgID)
	dst = binary.AppendUvarint(dst, uint64(index))
	dst = binary.AppendUvarint(dst, uint64(count))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// Fragment splits a marshalled frame into packets no larger than mtu, as
// Packets describes. The packets are consecutive slices of one allocation.
func Fragment(msgID uint64, frame []byte, mtu int) ([][]byte, error) {
	chunk, count, err := Packets(len(frame), mtu)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(frame)+count*packetOverhead)
	out := make([][]byte, count)
	for i := range out {
		start := len(buf)
		buf = AppendPacket(buf, msgID, i, count, frame[i*chunk:min((i+1)*chunk, len(frame))])
		out[i] = buf[start:len(buf):len(buf)]
	}
	return out, nil
}

// parsedPacket is one decoded, checksum-verified fragment. Its payload
// aliases the packet it was parsed from.
type parsedPacket struct {
	msgID   uint64
	index   uint64
	count   uint64
	payload []byte
}

// parsePacket verifies the packet checksum and decodes the header. Corrupt
// packets fail here and are dropped, which is how "the bits of the message
// are not in error" is enforced.
func parsePacket(pkt []byte) (p parsedPacket, err error) {
	// Minimum well-formed packet: magic(1) + id(8) + three 1-byte varints
	// + empty payload + CRC(4).
	if len(pkt) < 16 {
		return p, ErrBadPacket
	}
	body, sum := pkt[:len(pkt)-4], binary.BigEndian.Uint32(pkt[len(pkt)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return p, ErrPacketCRC
	}
	if body[0] != packetMagic {
		return p, ErrBadPacket
	}
	r := reader{buf: body, off: 1}
	idBytes, err := r.take(8)
	if err != nil {
		return p, ErrBadPacket
	}
	p.msgID = binary.BigEndian.Uint64(idBytes)
	if p.index, err = r.uvarint(); err != nil {
		return p, ErrBadPacket
	}
	if p.count, err = r.uvarint(); err != nil {
		return p, ErrBadPacket
	}
	n, err := r.uvarint()
	if err != nil {
		return p, ErrBadPacket
	}
	if p.payload, err = r.take(n); err != nil {
		return p, ErrBadPacket
	}
	if r.remaining() != 0 || p.count == 0 || p.count > maxFragments || p.index >= p.count {
		return p, ErrBadPacket
	}
	return p, nil
}

// Reassembler collects fragments per (sender, message id) and yields the
// complete frame once every fragment has arrived. Duplicate fragments are
// ignored; partial messages are evicted after MaxAge, modeling the receiver
// giving up on a message some of whose packets were lost.
//
// Add takes ownership of the packets it is given: it keeps fragment
// payloads by reference until their message completes, and a single-packet
// message's frame is a slice of its packet. A caller must not modify a
// packet after passing it to Add.
type Reassembler struct {
	// MaxAge, when positive, is how long a partial message or a completed
	// id is remembered: Add sweeps older ones, at most once per MaxAge.
	// Zero leaves eviction to explicit Sweep calls. Set it before the
	// first Add.
	MaxAge time.Duration

	mu        sync.Mutex
	pending   map[reasmKey]*reasmState
	lastSweep time.Time
	// completed remembers recently finished message ids so duplicated
	// trailing fragments do not resurrect a message.
	completed map[reasmKey]time.Time
}

type reasmKey struct {
	sender string
	msgID  uint64
}

type reasmState struct {
	parts    [][]byte
	have     int
	firstAdd time.Time
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{
		pending:   make(map[reasmKey]*reasmState),
		completed: make(map[reasmKey]time.Time),
	}
}

// Add processes one packet from sender. When the packet completes a
// message it returns the reassembled frame bytes; otherwise it returns nil.
// Corrupt or inconsistent packets return an error and are dropped. now is
// the receiver's clock reading, used for age-based eviction.
func (ra *Reassembler) Add(sender string, pkt []byte, now time.Time) ([]byte, error) {
	p, err := parsePacket(pkt)
	if err != nil {
		return nil, err
	}
	key := reasmKey{sender, p.msgID}
	ra.mu.Lock()
	defer ra.mu.Unlock()
	if ra.MaxAge > 0 && now.Sub(ra.lastSweep) > ra.MaxAge {
		ra.lastSweep = now
		ra.sweep(now, ra.MaxAge)
	}
	if _, done := ra.completed[key]; done {
		return nil, nil // duplicate of an already-delivered message
	}
	st, ok := ra.pending[key]
	if !ok {
		if p.count == 1 {
			// The whole message: nothing to collect or join.
			ra.completed[key] = now
			return p.payload, nil
		}
		st = &reasmState{parts: make([][]byte, p.count), firstAdd: now}
		ra.pending[key] = st
	}
	if int(p.count) != len(st.parts) {
		return nil, fmt.Errorf("%w: count %d vs %d", ErrInconsistent, p.count, len(st.parts))
	}
	if st.parts[p.index] != nil {
		return nil, nil // duplicate fragment
	}
	st.parts[p.index] = p.payload
	st.have++
	if st.have < len(st.parts) {
		return nil, nil
	}
	delete(ra.pending, key)
	ra.completed[key] = now
	total := 0
	for _, part := range st.parts {
		total += len(part)
	}
	frame := make([]byte, 0, total)
	for _, part := range st.parts {
		frame = append(frame, part...)
	}
	return frame, nil
}

// Sweep evicts partial messages older than maxAge and forgets completed
// ids older than maxAge. It returns the number of partial messages
// abandoned (each is a message that will never be delivered — exactly the
// paper's best-effort contract).
func (ra *Reassembler) Sweep(now time.Time, maxAge time.Duration) int {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	return ra.sweep(now, maxAge)
}

func (ra *Reassembler) sweep(now time.Time, maxAge time.Duration) int {
	dropped := 0
	for k, st := range ra.pending {
		if now.Sub(st.firstAdd) > maxAge {
			delete(ra.pending, k)
			dropped++
		}
	}
	for k, t := range ra.completed {
		if now.Sub(t) > maxAge {
			delete(ra.completed, k)
		}
	}
	return dropped
}

// Pending reports the number of incomplete messages held.
func (ra *Reassembler) Pending() int {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	return len(ra.pending)
}
