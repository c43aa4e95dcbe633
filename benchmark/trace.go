package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/durable"
	"repro/internal/transport"
)

// Span names. A span is one call into a layer, timed from outside: the
// harness wraps the calls it makes itself, and decorates the two seams the
// runtime exposes (Config.Transport, Config.Store) for the rest.
const (
	spOp         = iota // one client operation, call to reply
	spSend              // Transport.Send of one packet
	spDispatch          // the node's packet handler: reassemble, unmarshal, dispatch, port deliver
	spAppend            // Log.Append
	spSync              // Log.Sync or Log.AppendSync
	spCheckpoint        // Log.Checkpoint
	spProcSend          // Process.Send, around a probe's own send
	spWake              // packet handler return to Receive return, from a probe
	spSendprim          // one sendprim.Call, from a probe
	spAmoCall           // one amo.Caller.Call, from a probe
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"op", "transport.send", "guardian.dispatch", "durable.append", "durable.sync",
	"durable.checkpoint", "guardian.send", "guardian.wake", "sendprim.call", "amo.call",
}

// span is one timed call. Times are nanoseconds since the tracer's base.
type span struct {
	name   uint8
	kind   uint8  // op kind for spOp; 1 on an spSync that also appended, and on a message's last packet
	node   uint16 // where it ran: sender for spSend, receiver for spDispatch
	peer   uint16 // the other end of a packet span
	frag   uint16 // fragment index of a packet span
	bytes  int32  // packet or record size
	parent int32  // index of the enclosing span, -1 if none; resolved at exit
	start  int64
	end    int64
	op     uint64 // (client+1)<<40 | seq of the op it served; 0 if unknown
	msg    uint64 // wire message id of a packet span (unique per sending node)
}

func (s *span) dur() int64 { return s.end - s.start }

// capture is one sent packet, copied into the tracer's arena for the
// replay through wire and xrep.
type capture struct {
	span     int32
	off, len int32
}

const (
	// captureBudget bounds the packet bytes kept for replay from the traced
	// window, probeBudget those kept from the probes after it.
	captureBudget = 24 << 20
	probeBudget   = 8 << 20
	// captureCapacity bounds the packets kept.
	captureCapacity = 1 << 20
)

// tracer holds the spans and captured packets of one traced round in
// buffers mapped outside the Go heap. Recording is an atomic index bump and
// a store, or a copy; it never allocates. The buffers are off the heap
// because the collector paces itself by the live heap: a hundred megabytes
// of span buffer on it made collections 25 times rarer than in an untraced
// round, and call_bulk, which allocates 1.4 MB an operation, twice as fast.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	spans []span
	n     atomic.Int64
	lost  atomic.Int64

	mu       sync.RWMutex
	nodeIdx  map[string]uint16
	nodes    []string
	captured []capture // off-heap, filled up to nCaptured
	arena    []byte    // off-heap, filled up to capBytes
	capLimit int       // how much of the arena may be used now
	capBytes int
	capFull  atomic.Bool

	mapped [][]byte
}

func newTracer(capacity int) (*tracer, error) {
	t := &tracer{base: time.Now(), nodeIdx: make(map[string]uint16), capLimit: captureBudget}
	spans, err := t.offHeap(capacity * int(unsafe.Sizeof(span{})))
	if err != nil {
		return nil, err
	}
	caps, err := t.offHeap(captureCapacity * int(unsafe.Sizeof(capture{})))
	if err != nil {
		return nil, err
	}
	if t.arena, err = t.offHeap(captureBudget + probeBudget); err != nil {
		return nil, err
	}
	t.spans = unsafe.Slice((*span)(unsafe.Pointer(&spans[0])), capacity)
	t.captured = unsafe.Slice((*capture)(unsafe.Pointer(&caps[0])), captureCapacity)[:0]
	return t, nil
}

// offHeap maps n zeroed bytes the collector neither scans nor counts. span
// and capture hold no pointers, so nothing in them needs scanning.
func (t *tracer) offHeap(n int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d bytes of trace buffer: %w", n, err)
	}
	t.mapped = append(t.mapped, b)
	return b, nil
}

// release unmaps the buffers; spans, snapshots of them and captured
// payloads must not be touched afterwards.
func (t *tracer) release() {
	for _, b := range t.mapped {
		_ = syscall.Munmap(b)
	}
	t.mapped, t.spans, t.captured, t.arena = nil, nil, nil, nil
}

// payload is a captured packet's bytes.
func (t *tracer) payload(c capture) []byte { return t.arena[c.off : c.off+c.len] }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// node interns a node name.
func (t *tracer) node(name string) uint16 {
	t.mu.RLock()
	i, ok := t.nodeIdx[name]
	t.mu.RUnlock()
	if ok {
		return i
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.nodeIdx[name]; ok {
		return i
	}
	i = uint16(len(t.nodes))
	t.nodes = append(t.nodes, name)
	t.nodeIdx[name] = i
	return i
}

// add records a span and returns its index, or -1 if the tracer is off or
// full.
func (t *tracer) add(s span) int32 {
	if !t.on.Load() {
		return -1
	}
	return t.record(s)
}

// record is add without the on check.
func (t *tracer) record(s span) int32 {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.lost.Add(1)
		return -1
	}
	s.parent = -1
	t.spans[i] = s
	return int32(i)
}

func opID(client int, seq uint64) uint64 { return uint64(client+1)<<40 | seq }

func (t *tracer) op(client int, seq uint64, kind int, t0, t1 time.Time) {
	t.add(span{name: spOp, kind: uint8(kind), start: int64(t0.Sub(t.base)), end: int64(t1.Sub(t.base)), op: opID(client, seq)})
}

// packetID reads the message id, the fragment index and whether this is the
// message's last fragment from a wire packet's header (magic 'K', 8-byte
// id, uvarint index, uvarint count; see wire/fragment.go). It is the only
// knowledge of the packet format the harness has, and is used solely to
// pair a packet's send with its dispatch.
func packetID(p []byte) (msg uint64, frag uint16, last bool) {
	if len(p) < 11 || p[0] != 'K' {
		return 0, 0, false
	}
	idx, n := binary.Uvarint(p[9:])
	if n <= 0 {
		return 0, 0, false
	}
	count, _ := binary.Uvarint(p[9+n:])
	return binary.BigEndian.Uint64(p[1:9]), uint16(idx), idx+1 == count
}

func (t *tracer) packet(name uint8, node, peer uint16, t0, t1 int64, p []byte) {
	msg, frag, last := packetID(p)
	var kind uint8
	if last {
		kind = 1
	}
	i := t.add(span{name: name, kind: kind, node: node, peer: peer, start: t0, end: t1, bytes: int32(len(p)), msg: msg, frag: frag})
	if name != spSend || i < 0 || t.capFull.Load() {
		return
	}
	t.mu.Lock()
	if t.capBytes+len(p) <= t.capLimit && len(t.captured) < cap(t.captured) {
		copy(t.arena[t.capBytes:], p)
		t.captured = append(t.captured, capture{span: i, off: int32(t.capBytes), len: int32(len(p))})
		t.capBytes += len(p)
	} else {
		t.capFull.Store(true)
	}
	t.mu.Unlock()
}

// snapshot returns the recorded spans. Call it only after every recording
// goroutine has stopped.
func (t *tracer) snapshot() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// ---- the Transport decorator ----

// tracedTransport times every Send and every handler invocation of the
// transport it wraps. Everything else passes through.
type tracedTransport struct {
	transport.Transport
	tr *tracer
}

// logicalName strips a stream transport's observed "host:port|name" source
// down to the logical node name; simulator sources already are names.
func logicalName(a transport.Addr) string {
	s := string(a)
	if i := strings.LastIndexByte(s, '|'); i >= 0 {
		return s[i+1:]
	}
	return s
}

func (t *tracedTransport) Attach(a transport.Addr, h transport.Handler) error {
	node := t.tr.node(string(a))
	return t.Transport.Attach(a, func(from transport.Addr, p []byte) {
		if !t.tr.on.Load() {
			h(from, p)
			return
		}
		t0 := t.tr.now()
		h(from, p)
		t.tr.packet(spDispatch, node, t.tr.node(logicalName(from)), t0, t.tr.now(), p)
	})
}

func (t *tracedTransport) Send(from, to transport.Addr, p []byte) error {
	if !t.tr.on.Load() {
		return t.Transport.Send(from, to, p)
	}
	t0 := t.tr.now()
	err := t.Transport.Send(from, to, p)
	t.tr.packet(spSend, t.tr.node(string(from)), t.tr.node(string(to)), t0, t.tr.now(), p)
	return err
}

// ---- the Store decorator ----

type tracedStore struct {
	durable.Store
	tr   *tracer
	node uint16
}

func (s *tracedStore) OpenLog(name string) (durable.Log, error) {
	l, err := s.Store.OpenLog(name)
	if err != nil {
		return nil, err
	}
	return &tracedLog{Log: l, tr: s.tr, node: s.node}, nil
}

type tracedLog struct {
	durable.Log
	tr   *tracer
	node uint16
}

func (l *tracedLog) Append(data []byte) uint64 {
	t0 := l.tr.now()
	seq := l.Log.Append(data)
	l.tr.add(span{name: spAppend, node: l.node, start: t0, end: l.tr.now(), bytes: int32(len(data))})
	return seq
}

func (l *tracedLog) Sync() {
	t0 := l.tr.now()
	l.Log.Sync()
	l.tr.add(span{name: spSync, node: l.node, start: t0, end: l.tr.now()})
}

func (l *tracedLog) AppendSync(data []byte) uint64 {
	t0 := l.tr.now()
	seq := l.Log.AppendSync(data)
	l.tr.add(span{name: spSync, kind: 1, node: l.node, start: t0, end: l.tr.now(), bytes: int32(len(data))})
	return seq
}

func (l *tracedLog) Checkpoint(state []byte, upTo uint64) {
	t0 := l.tr.now()
	l.Log.Checkpoint(state, upTo)
	// Checkpoints are rare and a window may see none, so they are recorded
	// through the whole round.
	l.tr.record(span{name: spCheckpoint, node: l.node, start: t0, end: l.tr.now(), bytes: int32(len(state))})
}

// SkipTo keeps the optional durable.Skipper extension reachable through
// the decorator.
func (l *tracedLog) SkipTo(seq uint64) { durable.SkipTo(l.Log, seq) }

// wrapTransport and wrapStore install the decorators when e is traced and
// are the identity otherwise.
func (e *env) wrapTransport(t transport.Transport) transport.Transport {
	if e.tr == nil {
		return t
	}
	return &tracedTransport{Transport: t, tr: e.tr}
}

func (e *env) wrapStore(node string, s durable.Store) durable.Store {
	if e.tr == nil {
		return s
	}
	return &tracedStore{Store: s, tr: e.tr, node: e.tr.node(node)}
}

// ---- span arithmetic ----

// cover returns how much of [lo, hi) the given intervals cover, counting
// overlapping stretches once. ivs is sorted by start as a side effect.
func cover(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	at := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) int64 {
	ivs := make([][2]int64, len(children))
	for i, c := range children {
		ivs[i] = [2]int64{c.start, c.end}
	}
	return parent.dur() - cover(parent.start, parent.end, ivs)
}

// ---- the span file ----

type spanJSON struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     uint64 `json:"op"`
	Node   string `json:"node,omitempty"`
	Peer   string `json:"peer,omitempty"`
	Bytes  int32  `json:"bytes,omitempty"`
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, s := range spans {
		j := spanJSON{ID: i, Name: spanNames[s.name], Start: s.start, End: s.end, Parent: s.parent, Op: s.op, Bytes: s.bytes}
		if s.name != spOp && s.name < spProcSend {
			j.Node = t.nodes[s.node]
		}
		if s.name == spSend || s.name == spDispatch {
			j.Peer = t.nodes[s.peer]
		}
		if err := enc.Encode(j); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return f.Close()
}
