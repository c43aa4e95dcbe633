package transport_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// collector is a handler that records deliveries and signals each one.
type collector struct {
	mu   sync.Mutex
	got  [][]byte
	from []transport.Addr
	ch   chan struct{}
}

func newCollector() *collector {
	return &collector{ch: make(chan struct{}, 1024)}
}

func (c *collector) handle(from transport.Addr, payload []byte) {
	buf := make([]byte, len(payload))
	copy(buf, payload)
	c.mu.Lock()
	c.got = append(c.got, buf)
	c.from = append(c.from, from)
	c.mu.Unlock()
	c.ch <- struct{}{}
}

func (c *collector) wait(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for i := 0; i < n; i++ {
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for delivery %d/%d", i+1, n)
		}
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

// both runs a subtest against each Transport implementation.
func both(t *testing.T, fn func(t *testing.T, newT func(t *testing.T, names ...transport.Addr) transport.Transport)) {
	t.Run("sim", func(t *testing.T) {
		fn(t, func(t *testing.T, names ...transport.Addr) transport.Transport {
			return netsim.New(vtime.NewReal(), netsim.Config{})
		})
	})
	t.Run("udp", func(t *testing.T) {
		fn(t, func(t *testing.T, names ...transport.Addr) transport.Transport {
			peers := make(map[transport.Addr]string, len(names))
			for _, n := range names {
				peers[n] = "127.0.0.1:0"
			}
			u, err := transport.NewUDP(transport.UDPConfig{Peers: peers})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = u.Close() })
			return u
		})
	})
}

func TestRoundTrip(t *testing.T) {
	both(t, func(t *testing.T, newT func(t *testing.T, names ...transport.Addr) transport.Transport) {
		tr := newT(t, "a", "b")
		recvA, recvB := newCollector(), newCollector()
		if err := tr.Attach("a", recvA.handle); err != nil {
			t.Fatal(err)
		}
		if err := tr.Attach("b", recvB.handle); err != nil {
			t.Fatal(err)
		}
		if err := tr.Send("a", "b", []byte("ping")); err != nil {
			t.Fatal(err)
		}
		recvB.wait(t, 1, 5*time.Second)
		if string(recvB.got[0]) != "ping" {
			t.Fatalf("b received %q", recvB.got[0])
		}
		// Reply using the transport-level observed source, as a receiver
		// without configuration would.
		if err := tr.Send("b", "a", []byte("pong")); err != nil {
			t.Fatal(err)
		}
		recvA.wait(t, 1, 5*time.Second)
		if string(recvA.got[0]) != "pong" {
			t.Fatalf("a received %q", recvA.got[0])
		}
		st := tr.Stats()
		if st.Sent != 2 || st.Delivered != 2 {
			t.Fatalf("stats: %+v", st)
		}
	})
}

func TestDetachDropsInbound(t *testing.T) {
	both(t, func(t *testing.T, newT func(t *testing.T, names ...transport.Addr) transport.Transport) {
		tr := newT(t, "a", "b")
		recvB := newCollector()
		if err := tr.Attach("a", func(transport.Addr, []byte) {}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Attach("b", recvB.handle); err != nil {
			t.Fatal(err)
		}
		if !tr.Attached("b") {
			t.Fatal("b should be attached")
		}
		tr.Detach("b")
		if tr.Attached("b") {
			t.Fatal("b should be detached")
		}
		if err := tr.Send("a", "b", []byte("x")); err != nil {
			t.Fatalf("send to dead node must not error: %v", err)
		}
		tr.Quiesce()
		time.Sleep(50 * time.Millisecond)
		if recvB.count() != 0 {
			t.Fatalf("detached node received %d datagrams", recvB.count())
		}
		// Re-attach: traffic flows again (a restarted node).
		if err := tr.Attach("b", recvB.handle); err != nil {
			t.Fatal(err)
		}
		if err := tr.Send("a", "b", []byte("y")); err != nil {
			t.Fatal(err)
		}
		recvB.wait(t, 1, 5*time.Second)
	})
}

func TestSendErrors(t *testing.T) {
	both(t, func(t *testing.T, newT func(t *testing.T, names ...transport.Addr) transport.Transport) {
		tr := newT(t, "a", "b")
		if err := tr.Attach("a", func(transport.Addr, []byte) {}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Send("ghost", "a", []byte("x")); !errors.Is(err, transport.ErrNotAttached) {
			t.Fatalf("unattached sender: %v", err)
		}
		if err := tr.Send("a", "b", nil); !errors.Is(err, transport.ErrEmptyPayload) {
			t.Fatalf("empty payload: %v", err)
		}
	})
}

func TestUDPMTUEnforced(t *testing.T) {
	u, err := transport.NewUDP(transport.UDPConfig{Peers: map[transport.Addr]string{"a": "127.0.0.1:0"}, MTU: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.Attach("a", func(transport.Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := u.Send("a", "a", make([]byte, 513)); !errors.Is(err, transport.ErrTooLarge) {
		t.Fatalf("oversize: %v", err)
	}
	if err := u.Send("a", "a", make([]byte, 512)); err != nil {
		t.Fatalf("at MTU: %v", err)
	}
}

func TestUDPUnknownPeerCountsAsDrop(t *testing.T) {
	u, err := transport.NewUDP(transport.UDPConfig{Peers: map[transport.Addr]string{"a": "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.Attach("a", func(transport.Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := u.Send("a", "nowhere", []byte("x")); err != nil {
		t.Fatalf("off-net send must be silent loss: %v", err)
	}
	st := u.Stats()
	if st.Sent != 1 || st.Dropped != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestUDPLearnRoutesReplies is the two-process shape: the server knows
// nothing about the client until a datagram arrives carrying its source
// address; Learn then lets replies route.
func TestUDPLearnRoutesReplies(t *testing.T) {
	srv, err := transport.NewUDP(transport.UDPConfig{Peers: map[transport.Addr]string{"srv": "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	echoed := newCollector()
	if err := srv.Attach("srv", func(from transport.Addr, payload []byte) {
		// The application layer would extract the logical name from the
		// frame; here the test plays that role.
		srv.Learn("cli", from)
		_ = srv.Send("srv", "cli", append([]byte("re:"), payload...))
	}); err != nil {
		t.Fatal(err)
	}

	cli, err := transport.NewUDP(transport.UDPConfig{Peers: map[transport.Addr]string{"cli": "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Attach("cli", echoed.handle); err != nil {
		t.Fatal(err)
	}
	if err := cli.SetPeer("srv", srv.LocalAddr("srv")); err != nil {
		t.Fatal(err)
	}
	if err := cli.Send("cli", "srv", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	echoed.wait(t, 1, 5*time.Second)
	if string(echoed.got[0]) != "re:hello" {
		t.Fatalf("reply %q", echoed.got[0])
	}
}

// TestUDPLearnKnownRouteAllocatesNothing: the receive path learns the
// sender's route on every complete message, so re-learning a route that has
// not changed must not resolve or format an address.
func TestUDPLearnKnownRouteAllocatesNothing(t *testing.T) {
	u, err := transport.NewUDP(transport.UDPConfig{Peers: map[transport.Addr]string{"srv": "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	const via = transport.Addr("127.0.0.1:9")
	u.Learn("cli", via)
	if n := testing.AllocsPerRun(100, func() { u.Learn("cli", via) }); n != 0 {
		t.Fatalf("re-learning an unchanged route allocates %v times, want 0", n)
	}
}

func TestUDPCloseJoinsReceiveLoops(t *testing.T) {
	u, err := transport.NewUDP(transport.UDPConfig{Peers: map[transport.Addr]string{"a": "127.0.0.1:0"}, RecvWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Attach("a", func(transport.Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	// Idempotent, and sends now fail fast.
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	if err := u.Send("a", "a", []byte("x")); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if err := u.Attach("a", func(transport.Addr, []byte) {}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("attach after close: %v", err)
	}
}

func TestUDPPacingSpacesBursts(t *testing.T) {
	gap := 5 * time.Millisecond
	u, err := transport.NewUDP(transport.UDPConfig{
		Peers:      map[transport.Addr]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"},
		PaceMinGap: gap,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	recvB := newCollector()
	if err := u.Attach("a", func(transport.Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := u.Attach("b", recvB.handle); err != nil {
		t.Fatal(err)
	}
	const burst = 5
	start := time.Now()
	for i := 0; i < burst; i++ {
		if err := u.Send("a", "b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// First datagram goes immediately; the other four wait one gap each.
	if want := time.Duration(burst-1) * gap; elapsed < want {
		t.Fatalf("burst of %d took %v, want >= %v", burst, elapsed, want)
	}
	recvB.wait(t, burst, 5*time.Second)
}
