// Package transport is the seam between the guardian runtime and whatever
// carries its datagrams. The paper assumes only "an underlying network
// which provides for the transmission of messages" with no delivery
// guarantee; everything above that line (framing, fragmentation,
// corruption detection, at-most-once calls) is the system's job. This
// package pins that line down as an interface with three implementations:
//
//   - Sim wraps internal/netsim, the deterministic in-memory simulator
//     every test and the DST harness run on;
//   - UDP carries the same MTU-bounded datagrams over real net.UDPConn
//     sockets, so guardians can run as separate OS processes; and
//   - TCP multiplexes the same best-effort datagrams as length-prefixed
//     frames over persistent connections with an explicit per-peer state
//     machine (select handshake, linktest heartbeat, reconnect), removing
//     the MTU ceiling and trading per-datagram loss for WAN-realistic
//     ordered-until-reset semantics.
//
// A Wrapper executes seeded faults around any Transport — loss and
// duplication for datagram transports, connection resets and stalls for
// stream ones — drawn by internal/fault exactly as the simulator draws
// its own, so the real network paths can be soak-tested at the rates a
// simulated run uses.
package transport

import (
	"errors"
	"time"
)

// Addr names a node on the network. Addresses are opaque strings: logical
// node names for attached peers, transport-specific observed addresses
// (e.g. "127.0.0.1:9001") for senders not yet known by name.
type Addr string

// Handler receives a datagram, on the transport's delivery or receive-loop
// goroutines or, on the simulator, inside a sender's Send (so no sender may
// hold across Send a lock its destination's handler takes). It must return
// promptly: a blocking handler delays what is queued behind it — on the
// simulator every later datagram to its address, on UDP what its socket's
// receive loop would read next, on TCP the rest of its connection's stream.
//
// The payload is lent, as io.Reader lends its buffer: it is the handler's
// until the handler returns, nothing writes it before then, and the
// transport reuses its memory for a later delivery afterwards. A handler
// that keeps bytes copies them — the guardian runtime's reassembler copies
// the fragments it must wait with, and its decoder every value. A wrapper
// may still read the payload after its inner handler returns, as long as
// it does so before it returns itself.
type Handler func(from Addr, payload []byte)

// Transport carries best-effort datagrams between named nodes. Messages
// may be lost, duplicated, reordered or garbled; nothing above this
// interface may assume otherwise.
type Transport interface {
	// Attach registers a handler to receive datagrams addressed to a,
	// binding whatever underlying resource (simulator slot, socket) the
	// address needs. Attaching an already-attached address replaces its
	// handler.
	Attach(a Addr, h Handler) error
	// Detach removes a from the network: its resources are released and
	// traffic addressed to it is silently discarded, exactly as for a
	// dead node. Used to model (or implement) node crashes.
	Detach(a Addr)
	// Attached reports whether a currently has a handler.
	Attached(a Addr) bool
	// Send submits one datagram from the attached address from to to. It
	// returns once the datagram's local fate is decided; delivery is
	// best-effort and errors beyond local ones are never reported. By the
	// time it returns the transport has copied payload or is done with
	// it: the caller may overwrite the buffer at once, and the guardian
	// runtime reuses one buffer for every packet it sends.
	Send(from, to Addr, payload []byte) error
	// Learn tells the transport that the node named name was observed
	// sending from the transport-level address via, so later Sends to
	// name can be routed without static configuration. Transports whose
	// addresses are already logical names ignore it.
	Learn(name, via Addr)
	// Stats returns a snapshot of the packet accounting.
	Stats() Stats
	// Quiesce blocks until no packet is in flight, where the transport
	// can know that (the simulator can; a real network cannot, and
	// returns immediately).
	Quiesce()
	// Close shuts the transport down: all addresses detach, receive
	// loops drain, and further Sends fail with ErrClosed.
	Close() error
}

// Stats aggregates transport-wide packet accounting. All counts are since
// the transport was created.
type Stats struct {
	Sent       int64 // datagrams accepted by Send
	Delivered  int64 // handler invocations (includes duplicates)
	Dropped    int64 // known-dropped: loss model, dead destination, failed write
	Duplicated int64 // extra deliveries from a duplication model
	BytesSent  int64
	BytesRecv  int64
	RecvErrors int64 // datagrams discarded by the receive path

	// Conns is per-peer connection accounting, keyed by the peer's
	// advertised address. Only stream transports populate it; datagram
	// transports have no connections to account for and leave it nil.
	Conns map[Addr]ConnStats
}

// StreamFaulter is the fault-injection surface of stream transports.
// Datagram fault models (loss, duplication) are meaningless on a stream —
// TCP would just repair them — so the Wrapper injects the failures
// streams really have: connection resets and half-open stalls.
type StreamFaulter interface {
	// ResetPeer abruptly kills the live connection to the peer that a
	// routes to, reporting whether there was one to kill.
	ResetPeer(a Addr) bool
	// StallPeer freezes outbound writes to a's peer for d — a half-open
	// hang only heartbeat misses ever reveal. Reports whether a live
	// connection was there to stall.
	StallPeer(a Addr, d time.Duration) bool
}

// Errors reported by transports. Only local problems are ever reported;
// anything that happens after a datagram leaves is silence, as the paper
// requires.
var (
	ErrClosed       = errors.New("transport: closed")
	ErrTooLarge     = errors.New("transport: datagram exceeds MTU")
	ErrNotAttached  = errors.New("transport: sender not attached")
	ErrUnknownPeer  = errors.New("transport: no address known for peer")
	ErrEmptyPayload = errors.New("transport: empty payload")
)
