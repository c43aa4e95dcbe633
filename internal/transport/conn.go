package transport

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"
	"time"
)

// connState is where one peer's connection stands. The TCP transport keeps
// an explicit machine per peer rather than an implicit one smeared across
// goroutine liveness, because every interesting WAN failure is a
// transition here: a dial that never completes, a handshake that hangs, a
// reset mid-stream, a half-open link only a missed linktest reveals.
type connState int32

const (
	// stIdle: no connection and nobody working on one. Reached at start,
	// after a clean teardown with nothing left to send, and after a reset
	// once the send queue is empty. The next Send kicks off a dial.
	stIdle connState = iota
	// stDialing: a dial loop is running — sleeping out backoff, dialing,
	// or retrying. The send queue buffers traffic meanwhile.
	stDialing
	// stSelecting: TCP is up, the select handshake is in flight.
	stSelecting
	// stEstablished: selected; data flows, linktests guard liveness.
	stEstablished
	// stDraining: a deselect was queued (idle teardown); the writer
	// flushes what is queued, then closes cleanly.
	stDraining
	// stClosed: the transport is shut down; terminal.
	stClosed
)

func (s connState) String() string {
	switch s {
	case stIdle:
		return "idle"
	case stDialing:
		return "dialing"
	case stSelecting:
		return "selecting"
	case stEstablished:
		return "established"
	case stDraining:
		return "draining"
	case stClosed:
		return "closed"
	}
	return "unknown"
}

// ConnStats is one peer's connection accounting, reported under
// Stats.Conns keyed by the peer's canonical (advertised listener) address.
type ConnStats struct {
	// State is the connection state machine's current position.
	State string
	// Dials counts dial attempts, successful or not.
	Dials int64
	// Resets counts unclean connection deaths: read/write errors, RST,
	// handshake failures of a live stream, linktest giveups. Clean
	// deselect closes are not resets.
	Resets int64
	// Reconnects counts re-establishments after the first: how many times
	// the link came back, by redial or by accepting the peer's redial.
	Reconnects int64
	// HeartbeatsMissed counts linktest rounds that saw no traffic from
	// the peer — the early-warning counter for half-open links.
	HeartbeatsMissed int64
	// QueueDrops counts frames discarded because the pending-send queue
	// was full while the link was down.
	QueueDrops int64
}

// peer is one remote transport endpoint: the state machine, the pending
// frame queue, and the live connection's plumbing. All fields are guarded
// by mu; the wake condition signals the writer and any state change.
type peer struct {
	t    *TCP
	addr string // canonical remote listener address: dial target and table key

	mu   sync.Mutex
	wake *sync.Cond

	state connState
	conn  net.Conn
	// gen ties reader/writer/heartbeat goroutines to one installed
	// connection: every install or teardown bumps it, and a goroutine
	// that finds its gen stale exits without touching newer state.
	gen uint64

	// outq is the encoded frames awaiting the writer, end to end in one
	// buffer that Send frames into in place; qframes counts them. The writer
	// takes the whole buffer and leaves spare, the one it flushed before, in
	// its place, so a steady stream of sends allocates nothing.
	outq    []byte
	qframes int
	spare   []byte

	dialing     bool // a dial loop goroutine is live
	attempts    int  // consecutive failed dials, for backoff
	established bool // ever established (Reconnects discriminator)
	missed      int  // consecutive linktest rounds without inbound traffic
	stallUntil  time.Time
	lastRecv    time.Time // any inbound frame: the liveness clock
	lastData    time.Time // data frames only: the idleness clock —
	// linktests must not count, or heartbeats would keep an unused
	// connection "active" forever

	stats ConnStats
}

func newPeer(t *TCP, addr string) *peer {
	pc := &peer{t: t, addr: addr}
	pc.wake = sync.NewCond(&pc.mu)
	return pc
}

// snapshot reports the peer's counters.
func (pc *peer) snapshot() ConnStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	st := pc.stats
	st.State = pc.state.String()
	return st
}

// enqueue queues one data frame and makes sure something will carry it:
// the live writer if established, a fresh dial loop otherwise. A full
// queue drops the frame — the link is down and best-effort means the
// backlog must not grow without bound.
func (pc *peer) enqueue(src, dst Addr, payload []byte) {
	pc.mu.Lock()
	if pc.state == stClosed {
		pc.mu.Unlock()
		pc.t.dropped.Add(1)
		return
	}
	if pc.qframes >= tcpMaxSendQueue || len(pc.outq)+len(payload) > tcpMaxSendQueueBytes {
		pc.stats.QueueDrops++
		pc.mu.Unlock()
		pc.t.dropped.Add(1)
		return
	}
	pc.outq = appendData(pc.outq, src, dst, payload)
	pc.qframes++
	pc.lastData = time.Now()
	if pc.state == stIdle {
		pc.startDialLocked()
	}
	pc.wake.Broadcast()
	pc.mu.Unlock()
}

// startDialLocked moves idle → dialing and launches the dial loop. Callers
// hold mu.
func (pc *peer) startDialLocked() {
	if pc.dialing || pc.t.closed.Load() {
		return
	}
	pc.dialing = true
	pc.state = stDialing
	if !pc.t.goWG(pc.dialLoop) {
		pc.dialing = false
		pc.state = stClosed
	}
}

// dialLoop dials the peer until a connection is established, the queue
// has nothing left worth carrying, or the transport closes. Backoff grows
// exponentially from ReconnectBase to ReconnectCap with ±half jitter, so
// a dead peer costs one capped-rate probe stream and a flapping one does
// not synchronize its reconnectors.
func (pc *peer) dialLoop() {
	defer func() {
		pc.mu.Lock()
		pc.dialing = false
		if pc.state == stDialing {
			pc.state = stIdle
		}
		pc.mu.Unlock()
	}()
	for {
		var delay time.Duration
		pc.mu.Lock()
		if pc.state != stDialing {
			pc.mu.Unlock()
			return // an accepted connection was adopted meanwhile
		}
		if pc.attempts > 0 {
			delay = pc.t.backoff(pc.attempts)
		}
		pc.stats.Dials++
		pc.attempts++
		pc.mu.Unlock()

		if delay > 0 {
			select {
			case <-pc.t.done:
				return
			case <-time.After(delay):
			}
		}
		if pc.t.closed.Load() {
			return
		}
		conn, err := net.DialTimeout("tcp", pc.addr, tcpDialTimeout)
		if err != nil {
			continue
		}
		br, ok := pc.handshakeOut(conn)
		if !ok {
			_ = conn.Close()
			// The collision path adopts the peer's inbound connection
			// while ours is mid-handshake; if that happened, stop dialing.
			pc.mu.Lock()
			adopted := pc.state == stEstablished || pc.state == stDraining
			if pc.state == stSelecting {
				pc.state = stDialing
			}
			pc.mu.Unlock()
			if adopted {
				return
			}
			continue
		}
		if pc.install(conn, br) {
			return
		}
		_ = conn.Close()
		return // someone else installed; their connection carries the queue
	}
}

// handshakeOut runs the dialer's side of the select exchange. It returns
// the buffered reader positioned after the selectAck, so no bytes the peer
// sent early are lost to a second reader.
func (pc *peer) handshakeOut(conn net.Conn) (*bufio.Reader, bool) {
	pc.mu.Lock()
	if pc.state == stDialing {
		pc.state = stSelecting
	}
	pc.mu.Unlock()
	deadline := time.Now().Add(tcpDialTimeout)
	_ = conn.SetDeadline(deadline)
	if _, err := conn.Write(appendControl(nil, frameSelect, pc.t.advertised)); err != nil {
		return nil, false
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	typ, body, _, err := readFrame(br, 4096, nil)
	if err != nil || typ != frameSelectAck {
		return nil, false
	}
	if _, err := decodeControl(body); err != nil {
		return nil, false
	}
	_ = conn.SetDeadline(time.Time{})
	return br, true
}

// install makes conn the peer's live connection: state goes established,
// the reader/writer/heartbeat trio starts, and any queued frames flow.
// It declines (returning false) when the transport is closing or another
// connection was installed first.
func (pc *peer) install(conn net.Conn, br *bufio.Reader) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.installLocked(conn, br)
}

func (pc *peer) installLocked(conn net.Conn, br *bufio.Reader) bool {
	if pc.t.closed.Load() || pc.state == stClosed {
		return false
	}
	if pc.conn != nil {
		// An accepted redial replaces a connection we still thought live:
		// ours was half-open or lost the collision tie-break. Closing it
		// unblocks its goroutines; the gen bump below orphans them.
		_ = pc.conn.Close()
	}
	pc.gen++
	g := pc.gen
	pc.conn = conn
	pc.state = stEstablished
	pc.attempts = 0
	pc.missed = 0
	now := time.Now()
	pc.lastRecv, pc.lastData = now, now
	if pc.established {
		pc.stats.Reconnects++
	}
	pc.established = true
	started := pc.t.goWG(func() { pc.reader(g, br) }) &&
		pc.t.goWG(func() { pc.writer(g, conn) }) &&
		pc.t.goWG(func() { pc.heartbeat(g) })
	if !started {
		// Closing raced us: undo. Close's sweep may have missed this conn.
		_ = conn.Close()
		pc.conn = nil
		pc.state = stClosed
		return false
	}
	pc.wake.Broadcast()
	return true
}

// teardown retires generation g's connection. clean marks deliberate
// closes (deselect, shutdown); everything else is a reset, except on a
// draining connection, where the peer closing is its answer to our
// deselect. Pending data frames survive: if any are queued and the
// transport is open, a redial starts immediately — the reconnect path.
// Control frames die with their connection: a deselect still queued when
// the peer's crossing one arrived would redial and end the new connection.
func (pc *peer) teardown(g uint64, clean bool) {
	pc.mu.Lock()
	if pc.gen != g || pc.conn == nil {
		pc.mu.Unlock()
		return
	}
	conn := pc.conn
	pc.gen++
	pc.conn = nil
	if !clean && pc.state != stDraining {
		pc.stats.Resets++
	}
	if pc.state != stClosed {
		pc.state = stIdle
		pc.outq, pc.qframes = dataFrames(pc.outq)
		if pc.qframes > 0 && !pc.t.closed.Load() {
			pc.startDialLocked()
		}
	}
	pc.wake.Broadcast()
	pc.mu.Unlock()
	_ = conn.Close()
}

// dataFrames compacts the queued frames q, in place, to its data frames
// and counts them.
func dataFrames(q []byte) (out []byte, n int) {
	out = q[:0]
	for size := 0; len(q) > 4; q = q[size:] {
		if size = 4 + int(binary.BigEndian.Uint32(q)); q[4] == frameData {
			out, n = append(out, q[:size]...), n+1
		}
	}
	return out, n
}

// close is the transport-shutdown path: terminal state, connection closed,
// queue discarded, everyone woken so they can observe stClosed and exit.
func (pc *peer) close() {
	pc.mu.Lock()
	conn := pc.conn
	pc.gen++
	pc.conn = nil
	pc.state = stClosed
	pc.outq, pc.qframes, pc.spare = nil, 0, nil
	pc.wake.Broadcast()
	pc.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// reader drains generation g's connection: data frames go to attached
// handlers, linktests are answered, a deselect ends the connection
// cleanly, and any error or protocol violation resets it. Every frame is
// read into one buffer, lent to the handler (Handler) and reused for the
// next; the from-address of the source the last data frame named is kept
// too, since a connection carries few sources.
func (pc *peer) reader(g uint64, br *bufio.Reader) {
	maxBody := pc.t.cfg.MaxFrame + frameOverhead
	var buf []byte
	src, from := "", Addr(pc.addr+"|") // the last source name seen, and its from-address
	for {
		typ, body, next, err := readFrame(br, maxBody, buf)
		buf = next
		if err != nil {
			pc.teardown(g, false)
			return
		}
		now := time.Now()
		pc.mu.Lock()
		if pc.gen != g {
			pc.mu.Unlock()
			return
		}
		pc.lastRecv = now
		pc.missed = 0
		if typ == frameData {
			pc.lastData = now
		}
		pc.mu.Unlock()
		switch typ {
		case frameData:
			s, dst, payload, err := decodeData(body)
			if err != nil {
				pc.t.recvErrors.Add(1)
				pc.teardown(g, false)
				return
			}
			if string(s) != src {
				src = string(s)
				from = Addr(pc.addr + "|" + src)
			}
			pc.t.deliver(from, dst, payload)
		case frameLinktest:
			pc.control(g, frameLinktestAck)
		case frameLinktestAck:
			// lastRecv above is the whole point.
		case frameDeselect:
			pc.teardown(g, true)
			return
		default:
			// select/selectAck mid-stream: the peer lost protocol sync.
			pc.t.recvErrors.Add(1)
			pc.teardown(g, false)
			return
		}
	}
}

// control queues a bodiless control frame on generation g's connection,
// bypassing the best-effort queue bound (control traffic is tiny and losing
// a linktest ack manufactures a false reset).
func (pc *peer) control(g uint64, typ byte) {
	pc.mu.Lock()
	if pc.gen == g && pc.state != stClosed {
		pc.controlLocked(typ, "")
	}
	pc.mu.Unlock()
}

// controlLocked queues a control frame and wakes the writer. Callers hold mu.
func (pc *peer) controlLocked(typ byte, s string) {
	pc.outq = appendControl(pc.outq, typ, s)
	pc.qframes++
	pc.wake.Broadcast()
}

// writer flushes the frame queue onto generation g's connection, a whole
// buffer of frames per write. Writes happen outside the lock; a write error
// resets the connection (the frames of the batch die with it —
// ordered-until-reset). An injected stall
// freezes the pump wholesale, which is how a half-open hang looks from
// the peer's side.
func (pc *peer) writer(g uint64, conn net.Conn) {
	for {
		pc.mu.Lock()
		for pc.gen == g && len(pc.outq) == 0 && pc.state == stEstablished {
			pc.wake.Wait()
		}
		if pc.gen != g {
			pc.mu.Unlock()
			return
		}
		batch := pc.outq
		pc.outq, pc.qframes, pc.spare = pc.spare[:0], 0, nil
		draining := pc.state == stDraining
		stall := pc.stallUntil
		pc.mu.Unlock()

		if wait := time.Until(stall); wait > 0 {
			select {
			case <-pc.t.done:
				return
			case <-time.After(wait):
			}
		}
		_ = conn.SetWriteDeadline(time.Now().Add(tcpWriteTimeout))
		if _, err := conn.Write(batch); err != nil {
			pc.teardown(g, false)
			return
		}
		pc.t.bytesSent.Add(int64(len(batch)))
		pc.mu.Lock()
		if cap(batch) <= tcpSendBufKeep {
			pc.spare = batch[:0]
		}
		empty := len(pc.outq) == 0
		pc.mu.Unlock()
		if draining && empty {
			pc.teardown(g, true)
			return
		}
	}
}

// heartbeat is generation g's liveness and idleness sentinel. Each tick
// with no inbound traffic sends a linktest and counts a miss; enough
// consecutive misses reset the connection. A connection that carried no
// data in either direction for IdleTimeout is deselected and drained
// instead — clean teardown, to be re-dialed on demand. Idleness is judged
// on the data clock alone: linktest chatter must not keep an unused
// connection alive, or idle teardown could never fire.
func (pc *peer) heartbeat(g uint64) {
	hb := pc.t.cfg.Heartbeat
	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	for {
		select {
		case <-pc.t.done:
			return
		case <-ticker.C:
		}
		now := time.Now()
		pc.mu.Lock()
		if pc.gen != g {
			pc.mu.Unlock()
			return
		}
		if pc.state == stEstablished && pc.t.cfg.IdleTimeout > 0 &&
			now.Sub(pc.lastData) > pc.t.cfg.IdleTimeout && len(pc.outq) == 0 {
			pc.state = stDraining
			pc.controlLocked(frameDeselect, "idle")
			pc.mu.Unlock()
			continue
		}
		if now.Sub(pc.lastRecv) <= hb {
			pc.missed = 0
			pc.mu.Unlock()
			continue
		}
		pc.missed++
		pc.stats.HeartbeatsMissed++
		give := pc.missed > pc.t.cfg.MissThreshold
		if !give {
			pc.controlLocked(frameLinktest, "")
		}
		pc.mu.Unlock()
		if give {
			pc.teardown(g, false)
			return
		}
	}
}

// stall freezes the peer's write pump until now+d — the injected
// half-open hang. Returns whether a live connection was there to stall.
func (pc *peer) stall(d time.Duration) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.stallUntil = time.Now().Add(d)
	return pc.conn != nil
}

// reset abruptly kills the live connection, as a RST from the network
// would. Returns whether there was one to kill.
func (pc *peer) reset() bool {
	pc.mu.Lock()
	g, live := pc.gen, pc.conn != nil
	pc.mu.Unlock()
	if live {
		pc.teardown(g, false)
	}
	return live
}
