package netsim

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/vtime"
)

// TestNetsimDeliveryAllocCeiling: once a destination's worker and queue
// are warm, a delivered packet allocates nothing — its copy is made into a
// buffer an earlier delivery gave back when its handler returned — and
// needs no goroutine, no timer and no queue node.
func TestNetsimDeliveryAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	n := New(vtime.NewReal(), Config{})
	defer n.Close()
	done := make(chan struct{}, 1)
	n.Attach("a", func(Addr, []byte) {})
	n.Attach("b", func(Addr, []byte) { done <- struct{}{} })
	payload := make([]byte, 64)
	send := func() {
		if err := n.Send("a", "b", payload); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	for i := 0; i < 100; i++ {
		send()
	}
	if got := testing.AllocsPerRun(1000, send); got != 0 {
		t.Fatalf("a delivered packet allocates %v times, want 0 (its copy reuses a given-back buffer)", got)
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
		for deadline := time.Now().Add(5 * time.Second); n.Stats().Delivered < senders*per && time.Now().Before(deadline); {
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
	if st := n.Stats(); st.DroppedDst != 1 || st.Delivered != 0 {
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
	if st := n.Stats(); st.DroppedDst != 1 || st.Delivered != 1 || len(got) != 1 || got[0] != 2 {
		t.Fatalf("restart: DroppedDst=%d Delivered=%d got %v, want 1/1 [2]", st.DroppedDst, st.Delivered, got)
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
