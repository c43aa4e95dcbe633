package guardian

import (
	"sync"
	"testing"
	"time"

	"repro/internal/xrep"
)

// TestReceiveNoMissedWakeup pins the fix for a lost-wakeup race in
// Receive: a message delivered between the fast-path queue scan and
// waiter registration used to land in the buffer unseen, leaving the
// receiver to sleep out its whole timeout with the message sitting there.
// The race window is a few instructions wide, so this hammers tight
// send/receive round trips from both sides; before the post-registration
// re-scan, it tripped well within 200k iterations (and the transport
// loopback benchmark hit it reliably). A short timeout keeps the failure
// mode cheap: any RecvTimeout here while a message is en route is the bug.
func TestReceiveNoMissedWakeup(t *testing.T) {
	w := NewWorld(Config{})
	pt := NewPortType("echo").
		Msg("ping", xrep.KindInt, xrep.KindPortName).
		Replies("ping", "pong")
	w.MustRegister(&GuardianDef{
		TypeName: "echo",
		Provides: []*PortType{pt},
		Init: func(ctx *Ctx) {
			NewReceiver(ctx.Ports[0]).
				When("ping", func(pr *Process, m *Message) {
					_ = pr.Send(m.Port(1), "pong", m.Int(0))
				}).
				Loop(ctx.Proc, nil)
		},
	})
	srv := w.MustAddNode("srv")
	created, err := srv.Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	cli := w.MustAddNode("cli")

	iters := 60000
	if testing.Short() {
		iters = 5000
	}
	const workers = 4
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		g, drv, err := cli.NewDriver("d")
		if err != nil {
			t.Fatal(err)
		}
		reply, err := g.NewPort(NewPortType("pong_port").Msg("pong", xrep.KindInt), 64)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(drv *Process, reply *Port) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				if err := drv.Send(created.Ports[0], "ping", j, reply.Name()); err != nil {
					t.Errorf("send %d: %v", j, err)
					return
				}
				m, st := drv.Receive(5*time.Second, reply)
				if st != RecvOK {
					t.Errorf("round trip %d: status %v (missed wakeup?)", j, st)
					return
				}
				if got := m.Int(0); got != int64(j) {
					t.Errorf("round trip %d: pong %d", j, got)
					return
				}
			}
		}(drv, reply)
	}
	wg.Wait()
}
