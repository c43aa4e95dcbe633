package guardian

import (
	"testing"
	"time"

	"repro/internal/xrep"
)

// TestLocalSendAllocCeiling: a send to a port on the sender's own node is
// encoded into the pooled send buffer, decoded from it and dispatched on
// the sender's goroutine, so it costs what the receiver keeps — the
// message's string slab and the Message with its argument slots — and no
// frame buffer or goroutine. It cost 3 while the Message and the slots
// were two allocations.
func TestLocalSendAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	_, drv, ps := reuseFixture(t, 1)
	p := ps[0]
	args := xrep.Seq{xrep.Int(7)}
	send := func() {
		if err := drv.SendSeq(p.Name(), xrep.PortName{}, "n", args); err != nil {
			t.Fatal(err)
		}
		if m, st := drv.Receive(0, p); st != RecvOK || m.Int(0) != 7 {
			t.Fatalf("the local send was not queued by the time it returned: (%v, %v)", m, st)
		}
	}
	for i := 0; i < 100; i++ {
		send()
	}
	n := testing.AllocsPerRun(1000, send)
	t.Logf("a local send allocates %v times", n)
	if n > 2 {
		t.Errorf("a local send allocates %v times, want at most 2 (the string slab and the Message with its slots)", n)
	}
}

// TestLocalSendsArriveInSendOrder: one process's sends to a port on its own
// node are queued in the order they were sent.
func TestLocalSendsArriveInSendOrder(t *testing.T) {
	_, drv, ps := reuseFixture(t, 1)
	p := ps[0]
	const sends = 1000
	for i := 0; i < sends; i++ {
		if err := drv.Send(p.Name(), "n", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sends; i++ {
		m, st := drv.Receive(5*time.Second, p)
		if st != RecvOK {
			t.Fatalf("receive %d: %v", i, st)
		}
		if got := m.Int(0); got != int64(i) {
			t.Fatalf("receive %d got send %d", i, got)
		}
	}
}
