package guardian

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/xrep"
)

// TestSendUnsyncedFiresAfterTheMessageLeaves: a guardian that appends,
// replies and only then syncs opens the send-unsynced window once, after
// its reply has left. A hook that crashes the node there does not stop the
// reply — it was handed to the network first — and the acknowledged record
// is gone after recovery: the loss the window exists to show. A guardian
// that forces its record before replying never opens the window.
func TestSendUnsyncedFiresAfterTheMessageLeaves(t *testing.T) {
	putType := NewPortType("unsynced_put").Msg("put", xrep.KindInt)
	ackType := NewPortType("unsynced_ack").Msg("ack", xrep.KindInt)
	for _, tc := range []struct {
		name      string
		syncFirst bool
		fires     int64
		survives  bool
	}{
		{name: "append-reply-sync", fires: 1},
		{name: "appendsync-reply", syncFirst: true, survives: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				w       *World
				fired   atomic.Int64
				subject atomic.Value
			)
			w = NewWorld(Config{
				// A latency queues the reply in the network, so it is in
				// flight, not yet delivered, when its sender crashes.
				Net: netsim.Config{BaseLatency: time.Millisecond},
				Crash: func(node string) fault.Hook {
					return func(point, subj string) {
						if point != fault.SendUnsynced {
							return
						}
						fired.Add(1)
						subject.Store(subj)
						if n, err := w.Node(node); err == nil {
							n.Crash()
						}
					}
				},
			})
			defer w.Close()
			ledger := func(ctx *Ctx) {
				log := ctx.G.Log()
				NewReceiver(ctx.Ports[0]).
					When("put", func(pr *Process, m *Message) {
						rec := []byte{byte(m.Int(0))}
						if tc.syncFirst {
							log.AppendSync(rec)
						} else {
							log.Append(rec)
						}
						_ = pr.Send(m.ReplyTo, "ack", m.Int(0))
						log.Sync()
					}).
					Loop(ctx.Proc, nil)
			}
			w.MustRegister(&GuardianDef{TypeName: "unsynced_ledger", Provides: []*PortType{putType}, Init: ledger, Recover: ledger})
			srv := w.MustAddNode("srv")
			cli := w.MustAddNode("cli")
			created, err := srv.Bootstrap("unsynced_ledger")
			if err != nil {
				t.Fatal(err)
			}
			g, drv, err := cli.NewDriver("d")
			if err != nil {
				t.Fatal(err)
			}
			reply, err := g.NewPort(ackType, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "put", 7); err != nil {
				t.Fatal(err)
			}
			if m, st := drv.Receive(5*time.Second, reply); st != RecvOK || m.Command != "ack" || m.Int(0) != 7 {
				t.Fatalf("awaiting the ack: status %v, message %+v", st, m)
			}
			if got := fired.Load(); got != tc.fires {
				t.Fatalf("send-unsynced fired %d times, want %d", got, tc.fires)
			}
			if tc.fires > 0 {
				if srv.Alive() {
					t.Fatal("the hook's crash did not take the server down")
				}
				if err := srv.Restart(); err != nil {
					t.Fatal(err)
				}
			}
			g2, ok := srv.GuardianByID(created.GuardianID)
			if !ok {
				t.Fatal("ledger not recovered")
			}
			if tc.fires > 0 && subject.Load() != g2.LogName() {
				t.Fatalf("window subject %v, want the guardian's log %q", subject.Load(), g2.LogName())
			}
			_, recs, _ := g2.Log().Recover()
			if survived := len(recs) == 1; survived != tc.survives {
				t.Fatalf("acknowledged record survived: %v, want %v (%d records)", survived, tc.survives, len(recs))
			}
		})
	}
}
