package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"sort"
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
	p.msgID = binary.BigEndian.Uint64(body[1:9])
	r := reader{buf: body[9:]}
	p.index, p.count = r.uvarint(), r.uvarint()
	n := r.uvarint()
	if r.err != nil || n > uint64(r.remaining()) {
		return p, ErrBadPacket
	}
	p.payload = r.chunk(int(n))
	if r.remaining() != 0 || p.count == 0 || p.count > maxFragments || p.index >= p.count {
		return p, ErrBadPacket
	}
	return p, nil
}

// Segments is a complete frame's bytes as the reassembler hands them over:
// in order, in the pieces that carried them — a view of the payload of the
// message's one packet, or the reassembler's copies of its fragments'
// payloads. The zero Segments is no frame.
type Segments struct {
	one  []byte
	many []*[]byte
}

// Contiguous is the Segments of a frame in one piece, buf.
func Contiguous(buf []byte) Segments { return Segments{one: buf} }

// IsZero reports whether s is no frame: the message is not complete yet.
func (s Segments) IsZero() bool { return s.one == nil && s.many == nil }

// Bytes returns the frame in one piece: the packet's payload itself, or a
// joined copy of the fragments', for a caller that wants the bytes rather
// than the frame (FrameReader does not need them joined).
func (s Segments) Bytes() []byte {
	if s.many == nil {
		return s.one
	}
	n := 0
	for _, part := range s.many {
		n += len(*part)
	}
	joined := make([]byte, 0, n)
	for _, part := range s.many {
		joined = append(joined, *part...)
	}
	return joined
}

// reader returns a cursor at the start of the frame, over all of it.
func (s Segments) reader() reader {
	r := reader{buf: s.one}
	if len(s.many) > 0 {
		r.buf, r.rest = *s.many[0], s.many[1:]
	}
	for _, part := range r.rest {
		r.after += len(*part)
	}
	return r
}

// fragmentBufs recycles the reassembler's fragment copies (Release). A
// sync.Pool and not a free list, so one huge message's buffers go back to
// the GC instead of staying pinned; entries are pointers, so Get and Put
// allocate nothing.
var fragmentBufs = sync.Pool{New: func() any { return new([]byte) }}

// Reassembler collects fragments per (sender, message id) and yields the
// complete frame once every fragment has arrived. Duplicate fragments are
// ignored; partial messages are evicted after MaxAge, modeling the receiver
// giving up on a message some of whose packets were lost.
//
// Collect borrows the packets it is given, as a transport handler borrows
// its payload (transport.Handler): it reads a packet only until it returns,
// so a fragment that must wait for the rest of its message is copied, into a
// recycled buffer. A single-packet message is handed back as a view of its
// packet, readable until the packet's lender reuses it; a fragmented one as
// the copies, which Release gives back once the frame has been decoded.
type Reassembler struct {
	// MaxAge, when positive, is how long a partial message or a completed
	// id is remembered: Add sweeps older ones, at most once per MaxAge/2,
	// and forgets a completed id within 2×MaxAge. Zero leaves eviction to
	// explicit Sweep calls. Set it before the first Add.
	MaxAge time.Duration

	mu        sync.Mutex
	pending   map[reasmKey]*reasmState
	lastSweep time.Time
	// completed remembers recently finished message ids, per sender, so
	// duplicated trailing fragments do not resurrect a message.
	completed map[string]*idSet
}

// idSet is one sender's recently completed message ids: runs of consecutive
// ids, ascending in id and in completion time, for ids above every id in
// runs, and late for the rest. Its cost depends on the order ids reach this
// receiver: consecutive per sender-receiver pair (a guardian node numbers its
// frames per destination), O(1) time and memory; ascending with gaps (lost
// messages, or a sender numbering across its peers), a 64-byte run each,
// appended; out of order, a map entry each. A run grows
// only while it spans under MaxAge/2, so dropping it once its newest id is
// older than MaxAge keeps each id at least MaxAge and at most 2×MaxAge.
type idSet struct {
	runs []idRun
	late map[uint64]time.Time
}

type idRun struct {
	lo, hi      uint64    // the ids lo..hi
	first, last time.Time // when its oldest and newest id completed
}

func (s *idSet) has(id uint64) bool {
	_, late := s.late[id]
	r, n := s.runs, len(s.runs) // a sender's next id is past every run: no search
	return late || n > 0 && r[n-1].hi >= id && r[sort.Search(n, func(i int) bool { return r[i].hi >= id })].lo <= id
}

// add records id, not yet held, as completed at now (not before the last).
func (s *idSet) add(id uint64, now time.Time, maxAge time.Duration) {
	n := len(s.runs)
	switch {
	case n > 0 && s.runs[n-1].hi > id:
		s.late[id] = now
	case n > 0 && s.runs[n-1].hi == id-1 && (maxAge <= 0 || now.Sub(s.runs[n-1].first) < maxAge/2):
		s.runs[n-1].hi, s.runs[n-1].last = id, now
	default:
		s.runs = append(s.runs, idRun{lo: id, hi: id, first: now, last: now})
	}
}

// sweep forgets ids completed over maxAge before now (runs found by a search
// and cut in place, so appends reuse the array); it reports s left empty.
func (s *idSet) sweep(now time.Time, maxAge time.Duration) bool {
	s.runs = slices.Delete(s.runs, 0, sort.Search(len(s.runs), func(i int) bool { return now.Sub(s.runs[i].last) <= maxAge }))
	maps.DeleteFunc(s.late, func(_ uint64, t time.Time) bool { return now.Sub(t) > maxAge })
	return len(s.runs) == 0 && len(s.late) == 0
}

type reasmKey struct {
	sender string
	msgID  uint64
}

type reasmState struct {
	parts    []*[]byte // one pointer per expected fragment: nil, or its copy
	have     int
	firstAdd time.Time
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{
		pending:   make(map[reasmKey]*reasmState),
		completed: make(map[string]*idSet),
	}
}

// Collect processes one packet from sender. When the packet completes a
// message it returns the frame's segments; otherwise the zero Segments.
// Corrupt or inconsistent packets return an error and are dropped. now is
// the receiver's clock reading, used for age-based eviction.
func (ra *Reassembler) Collect(sender string, pkt []byte, now time.Time) (Segments, error) {
	p, err := parsePacket(pkt)
	if err != nil {
		return Segments{}, err
	}
	ra.mu.Lock()
	defer ra.mu.Unlock()
	if ra.MaxAge > 0 && now.Sub(ra.lastSweep) > ra.MaxAge/2 {
		ra.lastSweep = now
		ra.sweep(now, ra.MaxAge)
	}
	done := ra.completed[sender]
	if done == nil {
		done = &idSet{late: make(map[uint64]time.Time)}
		ra.completed[sender] = done // a sweep deletes it once it is empty
	}
	if done.has(p.msgID) {
		return Segments{}, nil // duplicate of an already-delivered message
	}
	key := reasmKey{sender, p.msgID}
	st, ok := ra.pending[key]
	if !ok {
		if p.count == 1 {
			// The whole message: nothing to collect.
			done.add(p.msgID, now, ra.MaxAge)
			return Segments{one: p.payload}, nil
		}
		st = &reasmState{parts: make([]*[]byte, p.count), firstAdd: now}
		ra.pending[key] = st
	}
	if int(p.count) != len(st.parts) {
		return Segments{}, fmt.Errorf("%w: count %d vs %d", ErrInconsistent, p.count, len(st.parts))
	}
	if st.parts[p.index] != nil {
		return Segments{}, nil // duplicate fragment
	}
	part := fragmentBufs.Get().(*[]byte)
	*part = append((*part)[:0], p.payload...)
	st.parts[p.index] = part
	st.have++
	if st.have < len(st.parts) {
		return Segments{}, nil
	}
	delete(ra.pending, key)
	done.add(p.msgID, now, ra.MaxAge)
	return Segments{many: st.parts}, nil
}

// Release gives back the fragment copies of a frame Collect completed, once
// it has been decoded; s must not be read afterwards. A single-packet frame
// has none, and a partial message that is swept leaves its copies to the GC.
func (ra *Reassembler) Release(s Segments) {
	for _, part := range s.many {
		fragmentBufs.Put(part)
	}
}

// Add is Collect for a caller that wants the frame as contiguous bytes: nil
// until the message completes, then Segments.Bytes — a view of pkt for a
// single-packet message, a joined copy otherwise.
func (ra *Reassembler) Add(sender string, pkt []byte, now time.Time) ([]byte, error) {
	s, err := ra.Collect(sender, pkt, now)
	frame := s.Bytes()
	ra.Release(s)
	return frame, err
}

// Sweep evicts partial messages older than maxAge and forgets completed ids
// older than maxAge (a run of them once its newest is). It returns the
// number of partial messages abandoned (each is a message that will never
// be delivered — exactly the paper's best-effort contract).
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
	for sender, done := range ra.completed {
		if done.sweep(now, maxAge) {
			delete(ra.completed, sender)
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
