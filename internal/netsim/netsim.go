// Package netsim simulates the communications network assumed by the paper:
// a set of autonomous nodes connected pairwise, communicating only by
// datagrams, with no shared memory and no delivery guarantees.
//
// The simulator delivers best-effort: packets may be delayed, lost,
// duplicated, corrupted, or reordered, according to per-network defaults
// that can be overridden per directed link. Nodes attach a handler to
// receive; detaching a node (a crash) silently discards traffic addressed
// to it, exactly as a dead node would.
//
// Every fate decision (loss, duplication, corruption, jitter, reordering) is
// drawn at Send time from one seeded fault.Dice, so fault schedules are
// reproducible. Each destination then has one delivery queue,
// ordered by (due time, send order), and one worker that waits on the
// supplied clock for the head and invokes the destination handler.
package netsim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/vtime"
)

// Addr names a node on the network. Addresses are opaque strings; the
// network makes no attempt to interpret them.
type Addr string

// Handler receives a datagram. Handlers are invoked on their address's
// delivery worker, one packet at a time, and must return promptly: a
// blocking handler delays every later packet to the same address.
//
// The payload is lent: nothing else writes it until the handler returns,
// and the network reuses its memory for a later delivery afterwards, so a
// handler that keeps bytes copies them.
type Handler func(from Addr, payload []byte)

// Errors returned by Send.
var (
	ErrTooLarge      = errors.New("netsim: datagram exceeds MTU")
	ErrUnknownSender = errors.New("netsim: sender not attached")
	ErrEmptyPayload  = errors.New("netsim: empty payload")
)

// Config holds the fault and delay model for the network or for one
// directed link.
type Config struct {
	// Seed initializes the fault dice. Used only in the network-wide
	// default config passed to New; ignored in per-link overrides.
	Seed int64
	// BaseLatency is the minimum one-way delivery delay.
	BaseLatency time.Duration
	// Jitter is the maximum additional uniformly-random delay.
	Jitter time.Duration
	// LossRate is the probability in [0,1] that a packet is silently lost.
	LossRate float64
	// DupRate is the probability that a packet is delivered twice.
	DupRate float64
	// CorruptRate is the probability that a delivered packet has one bit
	// flipped. Corruption is applied to a copy; senders' buffers are never
	// mutated.
	CorruptRate float64
	// ReorderRate is the probability that a packet is held for an extra
	// ReorderDelay, letting later packets overtake it.
	ReorderRate float64
	// ReorderDelay is the extra hold applied to reordered packets. Zero
	// means one BaseLatency.
	ReorderDelay time.Duration
	// BandwidthBps, when positive, adds a serialization delay of
	// len(payload)/BandwidthBps seconds per packet.
	BandwidthBps int64
	// MTU, when positive, bounds the datagram size; larger sends fail with
	// ErrTooLarge. Fragmentation is the wire layer's job.
	MTU int
}

// Stats aggregates network-wide packet accounting. All counts are since the
// network was created.
type Stats struct {
	Sent       int64 // datagrams accepted by Send
	Delivered  int64 // handler invocations (includes duplicates)
	Lost       int64 // dropped by the loss model
	DroppedDst int64 // dropped because the destination was not attached
	Duplicated int64 // extra deliveries from the duplication model
	Corrupted  int64 // deliveries with a flipped bit
	Reordered  int64 // deliveries given the extra reorder hold
	Partition  int64 // dropped by an active partition or disconnect
	BytesSent  int64
}

// Network is the simulated communications medium.
type Network struct {
	clock vtime.Clock

	mu       sync.Mutex
	dice     fault.Dice
	defaults Config
	inboxes  map[Addr]*inbox      // attached addresses and those with packets in flight
	links    map[linkKey]*Config  // per directed link overrides
	cut      map[linkKey]struct{} // severed directed links
	group    map[Addr]int         // partition group; absent = group 0
	parted   bool
	stats    Stats
	inflight int        // packets accepted but not yet delivered or dropped
	workers  int        // delivery workers running
	idle     *sync.Cond // broadcast when inflight or workers returns to zero
}

type linkKey struct{ from, to Addr }

// inbox is one address's side of the network: its handler, the packets in
// flight to it and the worker that delivers them. The worker runs while the
// address is attached or its queue is non-empty; all fields are guarded by
// Network.mu.
type inbox struct {
	h       Handler  // nil while detached
	queue   []packet // queue[head:] sorted by due; equal dues in send order
	head    int
	running bool          // a worker goroutine owns the inbox
	wake    chan struct{} // buffered(1): nudges the worker, never blocks
}

// packet is one planned delivery: the payload copy the handler will borrow.
type packet struct {
	from    Addr
	payload *[]byte // from payloads; back there once delivered or dropped
	due     time.Time
}

// payloads recycles delivery copies: a handler has its payload only until it
// returns, so the buffer is a later Send's. Entries are pointers, so Get and
// Put allocate nothing.
var payloads = sync.Pool{New: func() any { return new([]byte) }}

func (b *inbox) empty() bool { return b.head == len(b.queue) }

// push inserts p after every queued packet due no later than it, so packets
// due at the same instant leave in the order they were sent. It reports
// whether p became the head.
func (b *inbox) push(p packet) bool {
	if b.head > 0 && len(b.queue) == cap(b.queue) {
		n := copy(b.queue, b.queue[b.head:])
		clear(b.queue[n:])
		b.queue, b.head = b.queue[:n], 0
	}
	b.queue = append(b.queue, p)
	i := len(b.queue) - 1
	for ; i > b.head && p.due.Before(b.queue[i-1].due); i-- {
		b.queue[i] = b.queue[i-1]
	}
	b.queue[i] = p
	return i == b.head
}

// pop removes the head; the queue must not be empty.
func (b *inbox) pop() packet {
	p := b.queue[b.head]
	b.queue[b.head] = packet{}
	b.head++
	if b.empty() {
		b.queue, b.head = b.queue[:0], 0
	}
	return p
}

// nudge wakes b's worker, starting one if none runs. The caller holds n.mu.
// Only a new head, or an empty queue whose address detached, needs one: a
// worker waiting for its head is otherwise left alone, so it re-arms its
// timer only for an earlier head, never against a clock moved meanwhile.
func (n *Network) nudge(a Addr, b *inbox) {
	if !b.running {
		b.running = true
		n.workers++
		go n.work(a, b)
		return
	}
	select {
	case b.wake <- struct{}{}:
	default: // a nudge is already pending
	}
}

// New creates a network with the given defaults. A zero Config gives
// instant, perfectly reliable delivery. All fate decisions are drawn from
// dice seeded with cfg.Seed, so a network built the same way and sent the
// same packet sequence makes the same decisions.
func New(clock vtime.Clock, cfg Config) *Network {
	n := &Network{
		clock:    clock,
		dice:     fault.NewDice(cfg.Seed),
		defaults: cfg,
		inboxes:  make(map[Addr]*inbox),
		links:    make(map[linkKey]*Config),
		cut:      make(map[linkKey]struct{}),
		group:    make(map[Addr]int),
	}
	n.idle = sync.NewCond(&n.mu)
	return n
}

// inbox returns a's inbox, creating it. The caller holds n.mu.
func (n *Network) inbox(a Addr) *inbox {
	b := n.inboxes[a]
	if b == nil {
		b = &inbox{wake: make(chan struct{}, 1)}
		n.inboxes[a] = b
	}
	return b
}

// Attach registers a handler to receive datagrams addressed to a. Attaching
// an address that is already attached replaces its handler; so does
// attaching one that was detached with packets still in flight to it, which
// are then delivered at their due time.
func (n *Network) Attach(a Addr, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inbox(a).h = h
}

// Detach removes a from the network. In-flight packets addressed to a are
// discarded at their due time unless a is attached again first. Used to
// model node crashes.
func (n *Network) Detach(a Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if b := n.inboxes[a]; b != nil {
		n.detach(a, b)
	}
}

// detach clears b's handler and lets its worker, if any, exit once the queue
// drains. The caller holds n.mu.
func (n *Network) detach(a Addr, b *inbox) {
	b.h = nil
	switch {
	case !b.running:
		delete(n.inboxes, a)
	case b.empty():
		n.nudge(a, b)
	}
}

// Attached reports whether a currently has a handler.
func (n *Network) Attached(a Addr) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	b := n.inboxes[a]
	return b != nil && b.h != nil
}

// Close detaches every address, discards every packet still queued
// (counted in DroppedDst) and returns once every delivery worker has exited
// — after the handler it was running, if any, returned. It must not be
// called from a handler. The network stays usable; a later Attach starts
// over.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for a, b := range n.inboxes {
		dropped := len(b.queue) - b.head
		n.stats.DroppedDst += int64(dropped)
		n.inflight -= dropped
		clear(b.queue)
		b.queue, b.head = b.queue[:0], 0
		n.detach(a, b)
	}
	if n.inflight == 0 {
		n.idle.Broadcast()
	}
	for n.workers > 0 {
		n.idle.Wait()
	}
}

// SetLink overrides the fault/delay model for the directed link from→to.
// Passing nil removes the override, restoring network defaults.
func (n *Network) SetLink(from, to Addr, cfg *Config) {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := linkKey{from, to}
	if cfg == nil {
		delete(n.links, k)
		return
	}
	c := *cfg
	n.links[k] = &c
}

// Disconnect severs both directions between a and b until Reconnect.
func (n *Network) Disconnect(a, b Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[linkKey{a, b}] = struct{}{}
	n.cut[linkKey{b, a}] = struct{}{}
}

// Reconnect restores the links severed by Disconnect.
func (n *Network) Reconnect(a, b Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, linkKey{a, b})
	delete(n.cut, linkKey{b, a})
}

// Partition splits the network into groups; traffic crosses group
// boundaries only after Heal. Addresses not listed fall in group 0 along
// with the first group.
func (n *Network) Partition(groups ...[]Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = make(map[Addr]int)
	for i, g := range groups {
		for _, a := range g {
			n.group[a] = i
		}
	}
	n.parted = true
}

// Heal removes any active partition.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.parted = false
	n.group = make(map[Addr]int)
}

// Stats returns a snapshot of the packet accounting.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Quiesce blocks until no packet is in flight. Deliveries may themselves
// trigger new sends (a handler replying), so this is a counter + condition
// variable rather than a WaitGroup: a send racing the wait simply extends
// it, instead of tripping the WaitGroup reuse panic.
func (n *Network) Quiesce() {
	n.mu.Lock()
	for n.inflight > 0 {
		n.idle.Wait()
	}
	n.mu.Unlock()
}

// Send submits a datagram for best-effort delivery from from to to. It
// returns immediately once the packet's fate is decided and its deliveries
// are queued at the destination; the payload is copied, so the caller may
// reuse the buffer.
func (n *Network) Send(from, to Addr, payload []byte) error {
	if len(payload) == 0 {
		return ErrEmptyPayload
	}
	n.mu.Lock()
	if b := n.inboxes[from]; b == nil || b.h == nil {
		n.mu.Unlock()
		return ErrUnknownSender
	}
	cfg := n.defaults
	if ov, ok := n.links[linkKey{from, to}]; ok {
		cfg = *ov
	}
	if cfg.MTU > 0 && len(payload) > cfg.MTU {
		n.mu.Unlock()
		return fmt.Errorf("%w: %d > MTU %d", ErrTooLarge, len(payload), cfg.MTU)
	}
	n.stats.Sent++
	n.stats.BytesSent += int64(len(payload))

	// Partition / disconnect drop the packet after accounting the send —
	// the sender cannot tell, exactly as on a real network.
	if _, severed := n.cut[linkKey{from, to}]; severed || (n.parted && n.group[from] != n.group[to]) {
		n.stats.Partition++
		n.mu.Unlock()
		return nil
	}

	// Decide the packet's fate now, under the lock, so the fate sequence is
	// a pure function of the seed and the send order.
	fate := n.dice.Packet(fault.PacketRates{Loss: cfg.LossRate, Dup: cfg.DupRate,
		Reorder: cfg.ReorderRate, Corrupt: cfg.CorruptRate, Jitter: cfg.Jitter}, len(payload))
	if fate.N == 0 {
		n.stats.Lost++
		n.mu.Unlock()
		return nil
	}
	if fate.N == 2 {
		n.stats.Duplicated++
	}
	now := n.clock.Now()
	b := n.inbox(to)
	head := false
	for _, c := range fate.Copies[:fate.N] {
		d := cfg.BaseLatency + c.Jitter
		if cfg.BandwidthBps > 0 {
			d += time.Duration(float64(len(payload)) / float64(cfg.BandwidthBps) * float64(time.Second))
		}
		if c.Reorder {
			extra := cfg.ReorderDelay
			if extra == 0 {
				extra = cfg.BaseLatency
			}
			d += extra
			n.stats.Reordered++
		}
		buf := payloads.Get().(*[]byte)
		*buf = append((*buf)[:0], payload...)
		if c.Corrupt {
			(*buf)[fate.Bit/8] ^= 1 << (fate.Bit % 8)
			n.stats.Corrupted++
		}
		head = b.push(packet{from: from, payload: buf, due: now.Add(d)}) || head
	}
	n.inflight += fate.N
	if head {
		n.nudge(to, b)
	}
	n.mu.Unlock()
	return nil
}

// work is the delivery worker of a's inbox b. It hands each packet to the
// handler attached at its due time, or counts it dropped, in queue order;
// waits on one reusable clock timer while the head is not yet due; and
// exits once a is detached and nothing is left in flight to it.
func (n *Network) work(a Addr, b *inbox) {
	var timer vtime.Timer
	n.mu.Lock()
	defer n.mu.Unlock()
	for b.h != nil || !b.empty() {
		if b.empty() {
			n.mu.Unlock()
			<-b.wake
			n.mu.Lock()
			continue
		}
		if wait := b.queue[b.head].due.Sub(n.clock.Now()); wait > 0 {
			select { // a nudge for the head this pass already sees
			case <-b.wake:
			default:
			}
			n.mu.Unlock()
			if timer == nil {
				timer = n.clock.NewTimer(wait)
			} else {
				timer.Reset(wait)
			}
			select {
			case <-timer.C():
			case <-b.wake: // an earlier packet, or a close
				timer.Stop()
			}
			n.mu.Lock()
			continue
		}
		p := b.pop()
		h := b.h
		if h == nil {
			n.stats.DroppedDst++
		} else {
			n.stats.Delivered++
			n.mu.Unlock()
			h(p.from, *p.payload)
			n.mu.Lock()
		}
		payloads.Put(p.payload)
		n.inflight--
		if n.inflight == 0 {
			n.idle.Broadcast()
		}
	}
	b.running = false
	delete(n.inboxes, a)
	n.workers--
	if n.workers == 0 {
		n.idle.Broadcast()
	}
}
