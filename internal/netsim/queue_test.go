package netsim

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vtime"
)

// TestNetsimDeliveryAllocCeiling: a zero-delay send to an idle address is
// handed over — the handler has run when Send returns, on the sender's
// goroutine and buffer — and starts no goroutine and allocates nothing.
// Once a destination's worker and queue are warm, a delayed packet
// allocates nothing either: its copy is made into a buffer an earlier
// delivery gave back when its handler returned, and it needs no goroutine,
// no timer and no queue node.
func TestNetsimDeliveryAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	for _, latency := range []time.Duration{0, time.Microsecond} {
		n := New(vtime.NewReal(), Config{BaseLatency: latency})
		done := make(chan struct{}, 1)
		n.Attach("a", func(Addr, []byte) {})
		n.Attach("b", func(Addr, []byte) { done <- struct{}{} })
		payload := make([]byte, 64)
		send := func() {
			if err := n.Send("a", "b", payload); err != nil {
				t.Fatal(err)
			}
			if latency > 0 {
				<-done
				return
			}
			select {
			case <-done:
			default:
				t.Fatal("a zero-delay packet to an idle address was not handed over")
			}
		}
		for i := 0; i < 100; i++ {
			send()
		}
		if got := testing.AllocsPerRun(1000, send); got != 0 {
			t.Fatalf("latency %v: a delivered packet allocates %v times, want 0", latency, got)
		}
		n.mu.Lock()
		worker := n.inboxes["b"].running
		n.mu.Unlock()
		if worker != (latency > 0) {
			t.Fatalf("latency %v: a delivery worker is running: %v", latency, worker)
		}
		n.Close()
	}
}

// blockOnce attaches a handler to "dst" that records every payload's first
// byte and, on the first packet, reports it started and waits for release.
func blockOnce(n *Network) (got func() []byte, started, release chan struct{}) {
	var mu sync.Mutex
	var seen []byte
	started, release = make(chan struct{}), make(chan struct{})
	n.Attach("dst", func(_ Addr, p []byte) {
		mu.Lock()
		seen = append(seen, p[0])
		first := len(seen) == 1
		mu.Unlock()
		if first {
			close(started)
			<-release
		}
	})
	return func() []byte {
		mu.Lock()
		defer mu.Unlock()
		return append([]byte(nil), seen...)
	}, started, release
}

// TestHandOverKeepsLaterSendersBehind: while a packet handed over to an
// idle address is in its handler, another sender's packet to that address
// queues — its Send returns at once — and arrives only after the handler
// returns, on the worker.
func TestHandOverKeepsLaterSendersBehind(t *testing.T) {
	n := New(vtime.NewReal(), Config{})
	defer n.Close()
	n.Attach("a", func(Addr, []byte) {})
	n.Attach("b", func(Addr, []byte) {})
	got, started, release := blockOnce(n)
	go n.Send("a", "dst", []byte{1})
	<-started
	if err := n.Send("b", "dst", []byte{2}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	during := got()
	close(release)
	n.Quiesce()
	if len(during) != 1 {
		t.Fatalf("delivered %v while the hand-over ran, want [1]", during)
	}
	if g := got(); len(g) != 2 || g[0] != 1 || g[1] != 2 {
		t.Fatalf("delivered %v, want [1 2]", g)
	}
}

// TestHandOverHoldsQuiesceAndClose: a hand-over in progress is a packet in
// flight and a running delivery, so Quiesce and Close return only once its
// handler has.
func TestHandOverHoldsQuiesceAndClose(t *testing.T) {
	for _, wait := range []string{"Quiesce", "Close"} {
		n := New(vtime.NewReal(), Config{})
		n.Attach("a", func(Addr, []byte) {})
		_, started, release := blockOnce(n)
		go n.Send("a", "dst", []byte{1})
		<-started
		returned := make(chan struct{})
		go func() {
			if wait == "Quiesce" {
				n.Quiesce()
			} else {
				n.Close()
			}
			close(returned)
		}()
		var early bool
		select {
		case <-returned:
			early = true
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		if early {
			t.Fatalf("%s returned while a hand-over ran", wait)
		}
		select {
		case <-returned:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return after the hand-over", wait)
		}
		n.Close()
	}
}

// TestHandOverSurvivesDetachAndReattach: an address whose worker idles
// with an empty queue is detached and attached again while a hand-over is
// in its handler. Its handlers never overlap, the packet sent meanwhile
// waits for the hand-over, and the address still sends and receives.
func TestHandOverSurvivesDetachAndReattach(t *testing.T) {
	n := New(vtime.NewReal(), Config{})
	defer n.Close()
	var active, overlaps atomic.Int32
	var mu sync.Mutex
	var order []byte
	started := make(chan struct{})
	release := map[byte]chan struct{}{1: make(chan struct{}), 3: make(chan struct{})}
	h := func(_ Addr, p []byte) {
		if active.Add(1) > 1 {
			overlaps.Add(1)
		}
		mu.Lock()
		order = append(order, p[0])
		mu.Unlock()
		if r := release[p[0]]; r != nil {
			started <- struct{}{}
			<-r
		}
		active.Add(-1)
	}
	heard := make(chan struct{}, 1)
	n.Attach("a", func(Addr, []byte) { heard <- struct{}{} })
	n.Attach("b", func(Addr, []byte) {})
	n.Attach("dst", h)
	go n.Send("a", "dst", []byte{1})
	<-started
	if err := n.Send("b", "dst", []byte{2}); err != nil { // queues: starts the worker
		t.Fatal(err)
	}
	close(release[1])
	n.Quiesce()
	n.mu.Lock()
	worker := n.inboxes["dst"].running
	n.mu.Unlock()
	if !worker {
		t.Fatal("no worker idles on dst")
	}
	go n.Send("a", "dst", []byte{3})
	<-started
	n.Detach("dst")
	time.Sleep(10 * time.Millisecond) // room for the worker to exit, were it to
	n.Attach("dst", h)
	if err := n.Send("b", "dst", []byte{4}); err != nil {
		t.Fatal(err)
	}
	close(release[3])
	n.Quiesce()
	if err := n.Send("a", "dst", []byte{5}); err != nil {
		t.Fatal(err)
	}
	if err := n.Send("dst", "a", []byte{6}); err != nil {
		t.Fatalf("dst cannot send after the re-attach: %v", err)
	}
	n.Quiesce()
	if overlaps.Load() != 0 {
		t.Fatalf("dst's handlers overlapped %d times", overlaps.Load())
	}
	if string(order) != "\x01\x02\x03\x04\x05" {
		t.Fatalf("dst received %v, want [1 2 3 4 5]", order)
	}
	select {
	case <-heard:
	default:
		t.Fatal("a did not hear dst after the re-attach")
	}
}

// TestSameInstantDeliveryInSendOrder: on the simulated clock, packets due
// at one instant for one destination arrive in the order they were sent,
// whichever sender sent them — the queue's order, not the scheduler's.
func TestSameInstantDeliveryInSendOrder(t *testing.T) {
	const senders, per = 2, 500
	for run := 0; run < 20; run++ {
		clock := vtime.NewSim(time.Unix(0, 0))
		n := New(clock, Config{BaseLatency: time.Millisecond})
		var mu sync.Mutex
		var sent, got []uint32
		n.Attach("dst", func(_ Addr, p []byte) {
			mu.Lock()
			got = append(got, binary.BigEndian.Uint32(p))
			mu.Unlock()
		})
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			from := Addr(rune('A' + s))
			n.Attach(from, func(Addr, []byte) {})
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					id := uint32(s*per + i)
					mu.Lock() // the send order is the order the lock is taken
					sent = append(sent, id)
					err := n.Send(from, "dst", binary.BigEndian.AppendUint32(nil, id))
					mu.Unlock()
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		waitPending(t, clock)
		// One step delivers them all; more let a delivery that armed its
		// timer late arrive (and be seen out of order) instead of hang.
		for deadline := time.Now().Add(5 * time.Second); n.Counts().Delivered < senders*per && time.Now().Before(deadline); {
			clock.Advance(time.Millisecond)
			time.Sleep(time.Millisecond)
		}
		n.Quiesce()
		mu.Lock()
		if len(got) != senders*per {
			t.Fatalf("run %d: delivered %d of %d", run, len(got), senders*per)
		}
		for i := range sent {
			if got[i] != sent[i] {
				t.Fatalf("run %d: delivery %d is packet %d, sent %d-th was %d", run, i, got[i], i, sent[i])
			}
		}
		mu.Unlock()
		n.Close()
	}
}

// TestInFlightAcrossCrashAndRestart: a packet in flight to a node that
// crashes is dropped at its due time (DroppedDst); one in flight to a node
// that restarts before the packet is due is delivered.
func TestInFlightAcrossCrashAndRestart(t *testing.T) {
	clock := vtime.NewSim(time.Unix(0, 0))
	n := New(clock, Config{BaseLatency: 10 * time.Millisecond})
	defer n.Close()
	var mu sync.Mutex
	var got []byte
	handler := func(_ Addr, p []byte) {
		mu.Lock()
		got = append(got, p[0])
		mu.Unlock()
	}
	n.Attach("a", func(Addr, []byte) {})
	n.Attach("b", handler)

	if err := n.Send("a", "b", []byte{1}); err != nil {
		t.Fatal(err)
	}
	waitPending(t, clock)
	n.Detach("b") // crash
	clock.Advance(10 * time.Millisecond)
	n.Quiesce()
	if st := n.Counts(); st.DroppedDst != 1 || st.Delivered != 0 {
		t.Fatalf("crash: DroppedDst=%d Delivered=%d, want 1/0", st.DroppedDst, st.Delivered)
	}

	n.Attach("b", handler)
	if err := n.Send("a", "b", []byte{2}); err != nil {
		t.Fatal(err)
	}
	waitPending(t, clock)
	n.Detach("b")
	clock.Advance(5 * time.Millisecond)
	n.Attach("b", handler) // restart before the packet is due
	clock.Advance(5 * time.Millisecond)
	n.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	if st := n.Counts(); st.DroppedDst != 1 || st.Delivered != 1 || len(got) != 1 || got[0] != 2 {
		t.Fatalf("restart: DroppedDst=%d Delivered=%d got %v, want 1/1 [2]", st.DroppedDst, st.Delivered, got)
	}
}

// TestInFlightOutlivesItsSender: a packet handed to the network is
// delivered at its due time although its sender crashed right after
// sending it — the instant guardian's send-unsynced window crashes at.
func TestInFlightOutlivesItsSender(t *testing.T) {
	clock := vtime.NewSim(time.Unix(0, 0))
	n := New(clock, Config{BaseLatency: 10 * time.Millisecond})
	defer n.Close()
	got := make(chan byte, 1)
	n.Attach("a", func(Addr, []byte) {})
	n.Attach("b", func(_ Addr, p []byte) { got <- p[0] })
	if err := n.Send("a", "b", []byte{1}); err != nil {
		t.Fatal(err)
	}
	waitPending(t, clock)
	n.Detach("a") // the sender crashes
	clock.Advance(10 * time.Millisecond)
	n.Quiesce()
	if st := n.Counts(); st.Delivered != 1 || len(got) != 1 || <-got != 1 {
		t.Fatalf("Delivered=%d, want the sender's packet delivered", st.Delivered)
	}
}

// waitPending waits until a delivery worker has armed its timer.
func waitPending(t *testing.T, clock *vtime.Sim) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); clock.PendingTimers() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("no delivery timer was armed")
		}
	}
}
