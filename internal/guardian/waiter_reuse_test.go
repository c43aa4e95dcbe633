package guardian

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrep"
)

// These tests race deliveries against a Process's reused waiter (Process.
// idle). Whatever the interleaving, each Receive must return exactly one
// message or exactly one status, every delivered message must be received,
// and none may surface twice. Run them with -race -count=10.

var numberedType = NewPortType("numbered").Msg("n", xrep.KindInt)

// numbered builds message i for port p, bypassing the wire: these tests
// drive Port.deliver directly, the way dispatchFrame does.
func numbered(p *Port, i int) *Message {
	return &Message{Command: "n", Args: xrep.Seq{xrep.Int(i)}, Via: p}
}

// ledger checks that no message is received twice. (Order is not checked:
// a delivery that finds a waiter bypasses messages already queued, which
// the paper's unordered delivery allows.)
type ledger struct {
	mu   sync.Mutex
	seen map[received]bool
}

type received struct {
	port *Port
	n    int64
}

func (l *ledger) got(t *testing.T, m *Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = make(map[received]bool)
	}
	k := received{m.Via, m.Int(0)}
	if l.seen[k] {
		t.Errorf("port %d yielded message %d a second time", k.port.Name().Port, k.n)
	}
	l.seen[k] = true
}

func reuseFixture(t *testing.T, ports int) (*World, *Process, []*Port) {
	t.Helper()
	w := NewWorld(Config{})
	t.Cleanup(func() { w.Close() })
	g, drv, err := w.MustAddNode("n").NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]*Port, ports)
	for i := range ps {
		ps[i] = g.MustNewPort(numberedType, 1<<16)
	}
	return w, drv, ps
}

// TestReusedWaiterDeliverVsTimeout: a deliverer feeds one port while the
// receiver's timeouts keep firing around the arrivals.
func TestReusedWaiterDeliverVsTimeout(t *testing.T) {
	_, drv, ps := reuseFixture(t, 1)
	p := ps[0]
	const total = 20000
	go func() {
		for i := 0; i < total; i++ {
			if !p.deliver(numbered(p, i)) {
				t.Errorf("deliver %d refused", i)
				return
			}
			if i%64 == 0 {
				time.Sleep(20 * time.Microsecond) // let some receives time out
			}
		}
	}()
	l := &ledger{}
	deadline := time.Now().Add(30 * time.Second)
	for got, timeouts := 0, 0; got < total; {
		m, st := drv.Receive(10*time.Microsecond, p)
		switch {
		case st == RecvOK && m != nil:
			l.got(t, m)
			got++
		case st == RecvTimeout && m == nil:
			timeouts++
		default:
			t.Fatalf("Receive returned (%v, %v)", m, st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d (%d timeouts): a message was lost", got, total, timeouts)
		}
	}
	if m, st := drv.Receive(0, p); st != RecvTimeout {
		t.Fatalf("a message beyond the %d delivered: %v", total, m)
	}
}

// TestReusedWaiterClaimOnOnePortDeliverOnAnother: two deliverers, one per
// port, race for the waiter of receives that list the first port, the
// second, or both in turn. A receive must only ever return a message of a
// port it listed — a delivery that claimed the waiter as its previous
// receive was ending would surface in the wrong one.
func TestReusedWaiterClaimOnOnePortDeliverOnAnother(t *testing.T) {
	_, drv, ps := reuseFixture(t, 2)
	const perPort = 10000
	for _, p := range ps {
		p := p
		go func() {
			for i := 0; i < perPort; i++ {
				if !p.deliver(numbered(p, i)) {
					t.Errorf("deliver %d refused", i)
					return
				}
				if i%16 == 0 {
					time.Sleep(10 * time.Microsecond) // let some receives time out
				}
			}
		}()
	}
	lists := [][]*Port{{ps[0]}, {ps[1]}, {ps[0], ps[1]}, {ps[1], ps[0]}}
	l := &ledger{}
	deadline := time.Now().Add(30 * time.Second)
	for got, turn := 0, 0; got < 2*perPort; turn++ {
		list := lists[turn%len(lists)]
		m, st := drv.Receive(5*time.Microsecond, list...)
		switch {
		case st == RecvOK && m != nil:
			if m.Via != list[0] && m.Via != list[len(list)-1] {
				t.Fatalf("a receive on %d port(s) returned a message of port %d, which it did not list", len(list), m.Via.Name().Port)
			}
			l.got(t, m)
			got++
		case st == RecvTimeout && m == nil:
		default:
			t.Fatalf("Receive returned (%v, %v)", m, st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d: a message was lost", got, 2*perPort)
		}
	}
	if m, st := drv.Receive(0, ps[0], ps[1]); st != RecvTimeout {
		t.Fatalf("a message beyond the %d delivered: %v", 2*perPort, m)
	}
}

// TestReusedWaiterDeliverVsKill: after a few receives have made the waiter
// a reused one, a delivery races the guardian's death. The receive ends in
// that message or in RecvKilled, and nothing else.
func TestReusedWaiterDeliverVsKill(t *testing.T) {
	w := NewWorld(Config{})
	defer w.Close()
	n := w.MustAddNode("n")
	for round := 0; round < 300; round++ {
		g, drv, err := n.NewDriver("d")
		if err != nil {
			t.Fatal(err)
		}
		p := g.MustNewPort(numberedType, 16)
		for i := 0; i < 3; i++ {
			p.deliver(numbered(p, i))
			if m, st := drv.Receive(time.Second, p); st != RecvOK || m.Int(0) != int64(i) {
				t.Fatalf("warm-up receive %d: (%v, %v)", i, m, st)
			}
			// Block once so the waiter is taken, used and put back.
			if _, st := drv.Receive(time.Microsecond, p); st != RecvTimeout {
				t.Fatalf("warm-up timeout %d: %v", i, st)
			}
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); p.deliver(numbered(p, 3)) }()
		go func() { defer wg.Done(); g.SelfDestruct() }()
		m, st := drv.Receive(30*time.Second, p)
		wg.Wait()
		switch {
		case st == RecvOK && m != nil && m.Int(0) == 3:
		case st == RecvKilled && m == nil:
		default:
			t.Fatalf("round %d: Receive returned (%v, %v), want message 3 or killed", round, m, st)
		}
		if m, st := drv.Receive(time.Second, p); st != RecvKilled || m != nil {
			t.Fatalf("round %d: a receive after death returned (%v, %v)", round, m, st)
		}
	}
}

// TestTwoGoroutinesReceiveOnOneProcess: a process is one sequential
// activity. While its owner blocks in Receive, a second goroutine that
// receives or pauses on the same Process panics, naming the process and
// its guardian, and leaves the owner's wait alone: the owner still
// receives every message exactly once.
func TestTwoGoroutinesReceiveOnOneProcess(t *testing.T) {
	_, drv, ps := reuseFixture(t, 1)
	p := ps[0]
	const rounds, batch = 20, 100
	l := &ledger{}
	var count atomic.Int64
	go func() {
		for count.Load() < rounds*batch {
			m, st := drv.Receive(30*time.Second, p)
			if st != RecvOK || m == nil {
				t.Errorf("owner's Receive returned (%v, %v)", m, st)
				return
			}
			l.got(t, m)
			count.Add(1)
		}
	}()
	want := fmt.Sprintf("process %s of guardian _driver/%d blocks in two goroutines", drv.Name(), drv.Guardian().ID())
	intrude := func(op string, block func()) {
		defer func() {
			r := recover()
			if s, ok := r.(string); !ok || !strings.Contains(s, want) {
				t.Fatalf("%s beside a blocked owner: recovered %v, want a panic containing %q", op, r, want)
			}
		}()
		block()
	}
	for r := 0; r < rounds; r++ {
		// Every message so far is received and the owner blocks again.
		deadline := time.Now().Add(30 * time.Second)
		for count.Load() < int64(r*batch) || drv.idle.Load() != busy {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: the owner received %d of %d messages", r, count.Load(), r*batch)
			}
			time.Sleep(10 * time.Microsecond)
		}
		intrude("Receive", func() { drv.Receive(time.Second, p) })
		intrude("Pause", func() { drv.Pause(time.Second) })
		for i := 0; i < batch; i++ {
			if !p.deliver(numbered(p, r*batch+i)) {
				t.Fatalf("deliver %d refused", r*batch+i)
			}
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for count.Load() < rounds*batch {
		if time.Now().After(deadline) {
			t.Fatalf("the owner received %d of %d messages: one was lost", count.Load(), rounds*batch)
		}
		time.Sleep(10 * time.Microsecond)
	}
	if m, st := drv.Receive(0, p); st != RecvTimeout {
		t.Fatalf("a message beyond the %d delivered: %v", rounds*batch, m)
	}
}
