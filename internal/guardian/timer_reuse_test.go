package guardian

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/vtime"
)

// hasWaiter reports whether a receive is registered at p.
func hasWaiter(p *Port) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.waiters.len() > 0
}

// TestTimedReceiveAllocatesNothing: a warm process's timed Receive that
// blocks and then gets a message allocates nothing — the waiter, its
// channel and its timer are all kept from the previous one.
func TestTimedReceiveAllocatesNothing(t *testing.T) {
	_, drv, ps := reuseFixture(t, 1)
	p := ps[0]
	m := numbered(p, 1)
	start := make(chan struct{})
	defer close(start)
	go func() {
		for range start {
			for !hasWaiter(p) {
				runtime.Gosched()
			}
			p.deliver(m)
		}
	}()
	recv := func() {
		start <- struct{}{}
		if got, st := drv.Receive(5*time.Second, p); st != RecvOK || got != m {
			t.Fatalf("Receive returned (%v, %v)", got, st)
		}
	}
	recv() // the first makes the waiter and its timer
	if n := testing.AllocsPerRun(200, recv); n != 0 {
		t.Fatalf("a warm timed Receive allocates %v times", n)
	}
}

// TestPauseAllocatesNothing: Pause waits on the same per-process timer.
func TestPauseAllocatesNothing(t *testing.T) {
	_, drv, _ := reuseFixture(t, 0)
	pause := func() {
		if !drv.Pause(time.Microsecond) {
			t.Fatal("Pause reported the guardian killed")
		}
	}
	pause()
	if n := testing.AllocsPerRun(200, pause); n != 0 {
		t.Fatalf("a warm Pause allocates %v times", n)
	}
}

// TestClosedWorldsLeaveNoGoroutines: worlds on the default simulator, each
// driven through a call on the simulated clock and closed with a request
// still in flight, leave no goroutine behind — no delivery worker, and no
// delivery parked on a clock nobody will advance again.
func TestClosedWorldsLeaveNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		clock := vtime.NewSim(time.Unix(0, 0))
		w := NewWorld(Config{Clock: clock, Net: netsim.Config{BaseLatency: time.Millisecond}})
		registerEcho(t, w)
		created, err := w.MustAddNode("alpha").Bootstrap("echo")
		if err != nil {
			t.Fatal(err)
		}
		_, drv, err := w.MustAddNode("beta").NewDriver("clerk")
		if err != nil {
			t.Fatal(err)
		}
		reply := drv.Guardian().MustNewPort(echoReplyType, 8)
		var done atomic.Bool
		driven := make(chan struct{})
		go func() {
			clock.Drive(done.Load)
			close(driven)
		}()
		if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "echo", "hi"); err != nil {
			t.Fatal(err)
		}
		m, st := drv.Receive(Infinite, reply)
		done.Store(true)
		<-driven
		if st != RecvOK || m.Str(0) != "hi" {
			t.Fatalf("world %d: echo returned (%v, %v)", i, m, st)
		}
		if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "echo", "stranded"); err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	var now int
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if now = runtime.NumGoroutine(); now <= start {
			return
		}
	}
	t.Fatalf("%d goroutines after closing 50 worlds, %d before", now, start)
}
