package transport

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// tcpPair builds two TCP transports that know each other: each side's
// routing table maps every name in the other side's names list to the
// other listener. Heartbeat and reconnect timings are compressed so
// failure tests run in milliseconds.
func tcpPair(t *testing.T, tune func(*TCPConfig), aNames, bNames []Addr) (*TCP, *TCP) {
	t.Helper()
	mk := func(seed int64) *TCP {
		cfg := TCPConfig{
			Listen:        "127.0.0.1:0",
			Heartbeat:     50 * time.Millisecond,
			MissThreshold: 3,
			IdleTimeout:   -1,
			ReconnectBase: 5 * time.Millisecond,
			ReconnectCap:  50 * time.Millisecond,
			Seed:          seed,
		}
		if tune != nil {
			tune(&cfg)
		}
		tr, err := NewTCP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = tr.Close() })
		return tr
	}
	a, b := mk(1), mk(2)
	for _, n := range bNames {
		if err := a.SetPeer(n, b.ListenAddr()); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range aNames {
		if err := b.SetPeer(n, a.ListenAddr()); err != nil {
			t.Fatal(err)
		}
	}
	return a, b
}

func TestTCPRoundTripAndLearnedReply(t *testing.T) {
	// b gets no static route to "cli": the reply must ride what Learn
	// extracts from the observed from-address.
	a, b := tcpPair(t, nil, nil, []Addr{"srv"})
	recvCli, recvSrv := newCollector(), newCollector()
	if err := a.Attach("cli", recvCli.handle); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach("srv", recvSrv.handle); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("cli", "srv", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	recvSrv.wait(t, 1, 5*time.Second)
	if string(recvSrv.got[0]) != "ping" {
		t.Fatalf("got %q, want ping", recvSrv.got[0])
	}
	// The observed from-address is "peerAddr|srcName"; Learn on it must
	// route the reply back without b ever having configured "cli".
	from := recvSrv.from[0]
	if !strings.HasSuffix(string(from), "|cli") {
		t.Fatalf("from = %q, want peer address tagged |cli", from)
	}
	b.Learn("cli", from)
	if err := b.Send("srv", "cli", []byte("pong")); err != nil {
		t.Fatal(err)
	}
	recvCli.wait(t, 1, 5*time.Second)
	if string(recvCli.got[0]) != "pong" {
		t.Fatalf("reply got %q, want pong", recvCli.got[0])
	}
	// The reply must reuse the inbound connection, not dial a second one.
	bs := b.Stats()
	var dials int64
	for _, cs := range bs.Conns {
		dials += cs.Dials
	}
	if dials != 0 {
		t.Fatalf("reply dialed %d times, want 0 (reuse inbound connection)", dials)
	}
}

func TestTCPMultiplexManyNamesOneConnection(t *testing.T) {
	names := []Addr{"g0", "g1", "g2", "g3", "g4", "g5", "g6", "g7"}
	a, b := tcpPair(t, nil, []Addr{"cli"}, names)
	if err := a.Attach("cli", newCollector().handle); err != nil {
		t.Fatal(err)
	}
	recv := newCollector()
	for _, n := range names {
		if err := b.Attach(n, recv.handle); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range names {
		if err := a.Send("cli", n, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	recv.wait(t, len(names), 5*time.Second)
	st := a.Stats()
	if len(st.Conns) != 1 {
		t.Fatalf("a has %d peer machines, want 1", len(st.Conns))
	}
	for addr, cs := range st.Conns {
		if cs.Dials != 1 {
			t.Fatalf("peer %s: %d dials for %d names, want 1 (multiplexing)", addr, cs.Dials, len(names))
		}
		if cs.State != "established" {
			t.Fatalf("peer %s state %q, want established", addr, cs.State)
		}
	}
}

func TestTCPLargeFrameBeyondUDPMTU(t *testing.T) {
	const size = 4 << 20 // 4 MiB: ~64× the UDP absolute maximum
	a, b := tcpPair(t, nil, []Addr{"cli"}, []Addr{"srv"})
	recv := newCollector()
	if err := a.Attach("cli", newCollector().handle); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach("srv", recv.handle); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xAB}, size)
	big[0], big[size-1] = 1, 2
	if err := a.Send("cli", "srv", big); err != nil {
		t.Fatal(err)
	}
	recv.wait(t, 1, 10*time.Second)
	if !bytes.Equal(recv.got[0], big) {
		t.Fatalf("large frame corrupted in transit (len %d, want %d)", len(recv.got[0]), size)
	}

	// Pin the ceiling TCP removes: the very same payload is unsendable
	// over UDP even at the protocol's absolute maximum MTU.
	u, err := NewUDP(UDPConfig{Peers: map[Addr]string{"cli": "127.0.0.1:0"}, MTU: maxUDPDatagram})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.Attach("cli", newCollector().handle); err != nil {
		t.Fatal(err)
	}
	if err := u.Send("cli", "srv", big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("UDP send of %d bytes: err = %v, want ErrTooLarge", size, err)
	}
}

func TestTCPReconnectAfterReset(t *testing.T) {
	a, b := tcpPair(t, nil, []Addr{"cli"}, []Addr{"srv"})
	recv := newCollector()
	if err := a.Attach("cli", newCollector().handle); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach("srv", recv.handle); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("cli", "srv", []byte("one")); err != nil {
		t.Fatal(err)
	}
	recv.wait(t, 1, 5*time.Second)

	if !a.ResetPeer("srv") {
		t.Fatal("ResetPeer found no live connection")
	}
	// The next send finds the link down, queues, redials, and delivers.
	deadline := time.Now().Add(5 * time.Second)
	for recv.count() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no delivery after reset")
		}
		if err := a.Send("cli", "srv", []byte("two")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := a.Stats()
	for addr, cs := range st.Conns {
		if cs.Resets < 1 {
			t.Errorf("peer %s: resets = %d, want ≥1", addr, cs.Resets)
		}
		if cs.Dials < 2 {
			t.Errorf("peer %s: dials = %d, want ≥2", addr, cs.Dials)
		}
		if cs.Reconnects < 1 {
			t.Errorf("peer %s: reconnects = %d, want ≥1", addr, cs.Reconnects)
		}
	}
}

func TestTCPHeartbeatDetectsStalledPeer(t *testing.T) {
	// Freeze b's write pump entirely: its linktest acks stop too, so a's
	// heartbeat must miss repeatedly and declare the link half-open.
	a, b := tcpPair(t, func(c *TCPConfig) {
		c.Heartbeat = 30 * time.Millisecond
		c.MissThreshold = 2
	}, []Addr{"cli"}, []Addr{"srv"})
	recv := newCollector()
	if err := a.Attach("cli", newCollector().handle); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach("srv", recv.handle); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("cli", "srv", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	recv.wait(t, 1, 5*time.Second)

	if !b.StallPeer("cli", 2*time.Second) {
		t.Fatal("StallPeer found no live connection")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := a.Stats()
		var missed, resets int64
		for _, cs := range st.Conns {
			missed += cs.HeartbeatsMissed
			resets += cs.Resets
		}
		if missed >= 2 && resets >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stall undetected: missed=%d resets=%d", missed, resets)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTCPIdleTeardownIsCleanAndRedials(t *testing.T) {
	a, b := tcpPair(t, func(c *TCPConfig) {
		c.Heartbeat = 20 * time.Millisecond
		c.IdleTimeout = 60 * time.Millisecond
	}, []Addr{"cli"}, []Addr{"srv"})
	recv := newCollector()
	if err := a.Attach("cli", newCollector().handle); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach("srv", recv.handle); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("cli", "srv", []byte("one")); err != nil {
		t.Fatal(err)
	}
	recv.wait(t, 1, 5*time.Second)

	// Wait for idle teardown on the dialer side.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := a.Stats()
		idle := true
		for _, cs := range st.Conns {
			if cs.State == "established" || cs.State == "draining" {
				idle = false
			}
		}
		if idle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection never went idle")
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := a.Stats()
	for addr, cs := range st.Conns {
		if cs.Resets != 0 {
			t.Errorf("peer %s: idle teardown counted %d resets, want 0 (clean)", addr, cs.Resets)
		}
	}
	// Demand redials the link.
	if err := a.Send("cli", "srv", []byte("two")); err != nil {
		t.Fatal(err)
	}
	recv.wait(t, 1, 5*time.Second)
	if string(recv.got[1]) != "two" {
		t.Fatalf("post-idle delivery got %q, want two", recv.got[1])
	}
}

func TestTCPSimultaneousDialConverges(t *testing.T) {
	a, b := tcpPair(t, nil, []Addr{"cli"}, []Addr{"srv"})
	recvA, recvB := newCollector(), newCollector()
	if err := a.Attach("cli", recvA.handle); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach("srv", recvB.handle); err != nil {
		t.Fatal(err)
	}
	// Fire both first sends concurrently so both sides dial at once. The
	// tie-break may replace a connection mid-flight and frames die with
	// the replaced connection (ordered-until-reset), so keep sending
	// until each direction lands — what matters is convergence, not any
	// single frame.
	errc := make(chan error, 2)
	go func() { errc <- a.Send("cli", "srv", []byte("from-a")) }()
	go func() { errc <- b.Send("srv", "cli", []byte("from-b")) }()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for recvA.count() < 1 || recvB.count() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("deliveries never landed: a=%d b=%d", recvA.count(), recvB.count())
		}
		if recvB.count() < 1 {
			_ = a.Send("cli", "srv", []byte("from-a"))
		}
		if recvA.count() < 1 {
			_ = b.Send("srv", "cli", []byte("from-b"))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Both machines must settle established; the tie-break must not leave
	// either side wedged or flapping.
	deadline = time.Now().Add(5 * time.Second)
	for {
		settled := true
		for _, tr := range []*TCP{a, b} {
			for _, cs := range tr.Stats().Conns {
				if cs.State != "established" {
					settled = false
				}
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("machines never settled: a=%v b=%v", a.Stats().Conns, b.Stats().Conns)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTCPLocalShortCircuit(t *testing.T) {
	tr, err := NewTCP(TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	recv := newCollector()
	if err := tr.Attach("x", newCollector().handle); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach("y", recv.handle); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send("x", "y", []byte("loop")); err != nil {
		t.Fatal(err)
	}
	recv.wait(t, 1, 5*time.Second)
	if !strings.HasSuffix(string(recv.from[0]), "|x") {
		t.Fatalf("local from = %q, want |x tag", recv.from[0])
	}
	if len(tr.Stats().Conns) != 0 {
		t.Fatalf("local send created a peer machine: %v", tr.Stats().Conns)
	}
}

func TestTCPSendErrors(t *testing.T) {
	a, _ := tcpPair(t, nil, []Addr{"cli"}, []Addr{"srv"})
	if err := a.Attach("cli", newCollector().handle); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("cli", "srv", nil); !errors.Is(err, ErrEmptyPayload) {
		t.Fatalf("empty payload: %v", err)
	}
	if err := a.Send("ghost", "srv", []byte("x")); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("unattached sender: %v", err)
	}
	small, err := NewTCP(TCPConfig{Listen: "127.0.0.1:0", MaxFrame: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if err := small.Attach("s", newCollector().handle); err != nil {
		t.Fatal(err)
	}
	if err := small.Send("s", "t", []byte("123456789")); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
	// Unrouted destination is silent loss, not an error.
	before := a.Stats().Dropped
	if err := a.Send("cli", "nowhere", []byte("x")); err != nil {
		t.Fatalf("unrouted send: %v", err)
	}
	if got := a.Stats().Dropped; got != before+1 {
		t.Fatalf("unrouted send dropped %d, want %d", got, before+1)
	}
}

func TestTCPDetachDiscardsInbound(t *testing.T) {
	a, b := tcpPair(t, nil, []Addr{"cli"}, []Addr{"srv"})
	recv := newCollector()
	if err := a.Attach("cli", newCollector().handle); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach("srv", recv.handle); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("cli", "srv", []byte("one")); err != nil {
		t.Fatal(err)
	}
	recv.wait(t, 1, 5*time.Second)
	b.Detach("srv")
	if err := a.Send("cli", "srv", []byte("two")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.Stats().Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("detached destination never counted a drop")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if recv.count() != 1 {
		t.Fatalf("detached handler saw %d deliveries, want 1", recv.count())
	}
}

func TestTCPCloseJoinsEverything(t *testing.T) {
	a, b := tcpPair(t, nil, []Addr{"cli"}, []Addr{"srv"})
	var inFlight atomic.Int32
	if err := a.Attach("cli", newCollector().handle); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach("srv", func(from Addr, payload []byte) {
		inFlight.Add(1)
		defer inFlight.Add(-1)
		time.Sleep(5 * time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := a.Send("cli", "srv", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Close joins every goroutine, so no handler can still be running.
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("%d handlers still running after Close", n)
	}
	if err := a.Send("cli", "srv", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

func TestTCPQuiesceWaitsForLiveQueues(t *testing.T) {
	a, b := tcpPair(t, nil, []Addr{"cli"}, []Addr{"srv"})
	recv := newCollector()
	if err := a.Attach("cli", newCollector().handle); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach("srv", recv.handle); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := a.Send("cli", "srv", bytes.Repeat([]byte{byte(i)}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	a.Quiesce() // must return: the link is live and drains
	recv.wait(t, 50, 10*time.Second)
}

// TestTCPDeliveryAllocatesNothing: a warm connection reads every data frame
// into its one buffer, finds the handler by the destination name's bytes
// and reuses the from-address of the source it last saw, so a frame
// delivered to a handler that keeps nothing allocates nothing anywhere in
// the process — the sender's framing and the kernel round trip included.
func TestTCPDeliveryAllocatesNothing(t *testing.T) {
	a, b := tcpPair(t, nil, []Addr{"cli"}, []Addr{"srv"})
	got := make(chan struct{}, 1)
	if err := a.Attach("cli", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach("srv", func(Addr, []byte) { got <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 512)
	send := func() {
		if err := a.Send("cli", "srv", payload); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	for i := 0; i < 100; i++ {
		send() // dial, handshake, grow the buffers
	}
	const frames = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		send()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / frames
	t.Logf("a delivered frame allocates %.3f times", per)
	if per >= 0.05 {
		t.Fatalf("a delivered frame allocates %.3f times, want < 0.05", per)
	}
}
