package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxUDPDatagram is the largest payload a UDP datagram can carry.
const maxUDPDatagram = 65507

// UDPConfig tunes a UDP transport.
type UDPConfig struct {
	// Peers maps logical node names to UDP "host:port" addresses. The
	// entry for a locally attached name decides where its socket binds
	// (port 0 binds an ephemeral port; read it back with LocalAddr).
	// Remote entries seed the routing table; peers not listed here are
	// learned from inbound traffic via Learn.
	Peers map[Addr]string
	// MTU bounds the datagram size handed to Send; larger sends fail
	// with ErrTooLarge. Zero means 1400 (a safe ethernet-path default);
	// the ceiling is 65507, the UDP maximum.
	MTU int
	// RecvWorkers is the number of receive-loop goroutines per attached
	// socket. Zero means 2. More workers let slow handlers overlap, at
	// the price of inter-datagram reordering — which the layers above
	// must tolerate anyway.
	RecvWorkers int
	// PaceMinGap, when positive, is the minimum spacing between
	// consecutive datagrams to the same peer. Pacing trades latency for
	// not overrunning the destination's socket buffer during bursts
	// (fragment trains are the common case); lost bursts are legal but
	// wasteful.
	PaceMinGap time.Duration
}

func (c UDPConfig) withDefaults() UDPConfig {
	if c.MTU == 0 {
		c.MTU = 1400
	}
	if c.MTU > maxUDPDatagram {
		c.MTU = maxUDPDatagram
	}
	if c.RecvWorkers == 0 {
		c.RecvWorkers = 2
	}
	return c
}

// udpEndpoint is one attached logical address: a bound socket plus the
// handler inbound datagrams are dispatched to.
type udpEndpoint struct {
	conn    *net.UDPConn
	handler atomic.Pointer[Handler]
}

// pacer spaces a peer's datagrams PaceMinGap apart. Decisions are made
// under the lock; the sleep happens outside it, so concurrent senders each
// wait only for their own reserved slot.
type pacer struct {
	mu   sync.Mutex
	next time.Time
}

func (p *pacer) reserve(gap time.Duration) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if p.next.Before(now) {
		p.next = now.Add(gap)
		return 0
	}
	wait := p.next.Sub(now)
	p.next = p.next.Add(gap)
	return wait
}

// UDP is a Transport over real UDP sockets. Each attached logical address
// owns one socket; a pool of receive goroutines reads each socket and
// invokes the attached handler. The transport adds no reliability of any
// kind: what UDP loses, duplicates or reorders stays lost, duplicated or
// reordered, exactly the paper's contract.
type UDP struct {
	cfg UDPConfig

	mu     sync.Mutex
	peers  map[Addr]udpRoute // logical name -> where to send
	eps    map[Addr]*udpEndpoint
	pacers map[Addr]*pacer
	closed bool

	wg sync.WaitGroup // receive loops

	sent       atomic.Int64
	delivered  atomic.Int64
	dropped    atomic.Int64
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	recvErrors atomic.Int64
}

// udpRoute is where a name's datagrams go, and the observed address Learn
// took it from ("" for a configured or bound route).
type udpRoute struct {
	addr *net.UDPAddr
	via  Addr
}

// NewUDP creates a UDP transport. Configured peer addresses are resolved
// eagerly so typos surface at construction rather than as silent loss.
func NewUDP(cfg UDPConfig) (*UDP, error) {
	cfg = cfg.withDefaults()
	u := &UDP{
		cfg:    cfg,
		peers:  make(map[Addr]udpRoute, len(cfg.Peers)),
		eps:    make(map[Addr]*udpEndpoint),
		pacers: make(map[Addr]*pacer),
	}
	for name, hostport := range cfg.Peers {
		if err := u.setPeer(name, hostport); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// SetPeer adds or replaces the routing entry for a logical peer name.
func (u *UDP) SetPeer(name Addr, hostport string) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.setPeer(name, hostport)
}

func (u *UDP) setPeer(name Addr, hostport string) error {
	addr, err := net.ResolveUDPAddr("udp", hostport)
	if err != nil {
		return fmt.Errorf("transport: peer %s: %w", name, err)
	}
	u.peers[name] = udpRoute{addr: addr}
	return nil
}

// LocalAddr returns the actual bound address of an attached logical name
// ("" when not attached) — the way tests and cmd/node discover the port an
// ephemeral bind received.
func (u *UDP) LocalAddr(a Addr) string {
	u.mu.Lock()
	defer u.mu.Unlock()
	ep, ok := u.eps[a]
	if !ok {
		return ""
	}
	return ep.conn.LocalAddr().String()
}

// Attach implements Transport: it binds the socket configured for a (via
// Peers) and starts its receive loop pool. Re-attaching an attached
// address just replaces the handler; attach-after-detach rebinds, which is
// how a restarted node comes back to the same address.
func (u *UDP) Attach(a Addr, h Handler) error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return ErrClosed
	}
	if ep, ok := u.eps[a]; ok {
		ep.handler.Store(&h)
		u.mu.Unlock()
		return nil
	}
	bind, ok := u.peers[a]
	if !ok {
		u.mu.Unlock()
		return fmt.Errorf("%w: no listen address configured for %s", ErrUnknownPeer, a)
	}
	conn, err := net.ListenUDP("udp", bind.addr)
	if err != nil {
		u.mu.Unlock()
		return fmt.Errorf("transport: bind %s: %w", a, err)
	}
	// An ephemeral bind (port 0) resolves here; record the real address
	// so sends from co-located peers in the same process route correctly.
	u.peers[a] = udpRoute{addr: conn.LocalAddr().(*net.UDPAddr)}
	ep := &udpEndpoint{conn: conn}
	ep.handler.Store(&h)
	u.eps[a] = ep
	for i := 0; i < u.cfg.RecvWorkers; i++ {
		u.wg.Add(1)
		go u.readLoop(ep)
	}
	u.mu.Unlock()
	return nil
}

// readLoop reads one socket until it is closed, dispatching each datagram
// to the endpoint's current handler, every one read into the loop's one
// buffer. The transport-level source address is
// the datagram's real origin ("ip:port"), kept stable across the peer's
// lifetime so fragment reassembly keyed on it never splits.
func (u *UDP) readLoop(ep *udpEndpoint) {
	defer u.wg.Done()
	buf := make([]byte, maxUDPDatagram+1)
	for {
		n, src, err := ep.conn.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			u.recvErrors.Add(1)
			continue
		}
		if n == 0 {
			u.recvErrors.Add(1)
			continue
		}
		h := ep.handler.Load()
		if h == nil {
			u.dropped.Add(1)
			continue
		}
		u.delivered.Add(1)
		u.bytesRecv.Add(int64(n))
		(*h)(Addr(src.String()), buf[:n]) // lent: the next read reuses buf
	}
}

// Detach implements Transport: the address's socket closes, its receive
// loops drain, and inbound datagrams for it vanish into the kernel — a
// detached UDP node drops traffic exactly like a dead simulator node.
func (u *UDP) Detach(a Addr) {
	u.mu.Lock()
	ep, ok := u.eps[a]
	if ok {
		delete(u.eps, a)
	}
	u.mu.Unlock()
	if ok {
		_ = ep.conn.Close()
	}
}

// Attached implements Transport.
func (u *UDP) Attached(a Addr) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	_, ok := u.eps[a]
	return ok
}

// Send implements Transport. The datagram leaves from the sender's own
// socket, so the receiver's observed source address identifies the sender.
// A failed write counts as a drop, not an error: once the MTU and routing
// checks pass, the network's best-effort contract has begun.
func (u *UDP) Send(from, to Addr, payload []byte) error {
	if len(payload) == 0 {
		return ErrEmptyPayload
	}
	if len(payload) > u.cfg.MTU {
		return fmt.Errorf("%w: %d > MTU %d", ErrTooLarge, len(payload), u.cfg.MTU)
	}
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return ErrClosed
	}
	ep, ok := u.eps[from]
	if !ok {
		u.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotAttached, from)
	}
	dst, ok := u.peers[to]
	if !ok {
		// Off-net destination: the datagram is simply lost, as it would
		// be on a real network with a bad route.
		u.sent.Add(1)
		u.dropped.Add(1)
		u.mu.Unlock()
		return nil
	}
	var wait time.Duration
	if u.cfg.PaceMinGap > 0 {
		p, ok := u.pacers[to]
		if !ok {
			p = &pacer{}
			u.pacers[to] = p
		}
		wait = p.reserve(u.cfg.PaceMinGap)
	}
	u.mu.Unlock()

	if wait > 0 {
		time.Sleep(wait)
	}
	u.sent.Add(1)
	n, err := ep.conn.WriteToUDP(payload, dst.addr)
	if err != nil {
		u.dropped.Add(1)
		return nil
	}
	u.bytesSent.Add(int64(n))
	return nil
}

// Learn implements Transport: it records where name was observed sending
// from, so replies route without static configuration. Attached (local)
// names are never overwritten — their entry is the bind address — and a
// route already learned from via is kept without resolving anything, so
// learning on every received message allocates nothing.
func (u *UDP) Learn(name, via Addr) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if _, local := u.eps[name]; local || u.peers[name].via == via {
		return
	}
	addr, err := net.ResolveUDPAddr("udp", string(via)) // an observed ip:port: no lookup
	if err != nil {
		return
	}
	// name was read out of a message; the table outlives it.
	u.peers[Addr(strings.Clone(string(name)))] = udpRoute{addr, via}
}

// Stats implements Transport.
func (u *UDP) Stats() Stats {
	return Stats{
		Sent:       u.sent.Load(),
		Delivered:  u.delivered.Load(),
		Dropped:    u.dropped.Load(),
		BytesSent:  u.bytesSent.Load(),
		BytesRecv:  u.bytesRecv.Load(),
		RecvErrors: u.recvErrors.Load(),
	}
}

// Quiesce implements Transport. A real network cannot be quiesced; callers
// that need delivery certainty must get it from the layers built for that
// (acks, at-most-once calls).
func (u *UDP) Quiesce() {}

// Close implements Transport: all sockets close and every receive loop is
// joined before Close returns, so no handler runs after it.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	eps := make([]*udpEndpoint, 0, len(u.eps))
	for _, ep := range u.eps {
		eps = append(eps, ep)
	}
	u.eps = make(map[Addr]*udpEndpoint)
	u.mu.Unlock()
	for _, ep := range eps {
		_ = ep.conn.Close()
	}
	u.wg.Wait()
	return nil
}
