package guardian

import (
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/xrep"
)

// crashLedgerState is the recovered guardian's view of its log.
type crashLedgerState struct {
	replayed int
	values   map[int64]bool
}

// TestCrashDuringReceive kills a guardian mid-dispatch — after the
// handler has forced its record to the log but before it replies — and
// asserts that recovery observes a consistent stable-log prefix:
//
//   - every operation acked before the crash is in the durable log,
//     exactly once (log-then-ack: an ack proves durability);
//   - the operation in flight at the crash, already synced, is present
//     and simply unacked (a durable-but-unacked tail is legal);
//   - operations still queued at the port when the node died are gone
//     entirely — volatile queue loss never corrupts the log;
//   - record sequence numbers are strictly increasing (no torn or
//     reordered tail).
func TestCrashDuringReceive(t *testing.T) {
	const (
		ackedOps  = 100 // fully acknowledged before the crash
		crashOp   = 100 // the op held mid-dispatch when the node dies
		queuedLo  = 101 // queued-behind ops wiped with the port
		queuedHi  = 103
		liveOp    = 200 // post-restart liveness probe
		holdPause = 500 * time.Millisecond
	)
	putType := NewPortType("ledger_port").Msg("put", xrep.KindInt)
	ackType := NewPortType("ledger_ack_port").Msg("ack", xrep.KindInt)

	entered := make(chan struct{}) // closed once crashOp's record is durable
	w := NewWorld(Config{})
	ledgerMain := func(ctx *Ctx) {
		st := &crashLedgerState{values: make(map[int64]bool)}
		log := ctx.G.Log()
		if ctx.Recovering {
			_, recs, _ := log.Recover()
			st.replayed = len(recs)
			for _, r := range recs {
				if v, err := wire.UnmarshalValue(r.Data); err == nil {
					if n, ok := v.(xrep.Int); ok {
						st.values[int64(n)] = true
					}
				}
			}
		}
		ctx.G.SetState(st)
		NewReceiver(ctx.Ports[0]).
			When("put", func(pr *Process, m *Message) {
				v := m.Int(0)
				data, err := wire.MarshalValue(xrep.Int(v))
				if err != nil {
					t.Errorf("marshal: %v", err)
					return
				}
				log.AppendSync(data) // log-then-ack
				st.values[v] = true
				if v == crashOp {
					close(entered)
					// Hold here, mid-dispatch; the test crashes the node
					// now. Pause returns false when the kill lands.
					if !pr.Pause(holdPause) {
						return
					}
				}
				if !m.ReplyTo.IsZero() {
					_ = pr.Send(m.ReplyTo, "ack", v)
				}
			}).
			Loop(ctx.Proc, nil)
	}
	w.MustRegister(&GuardianDef{
		TypeName:     "crash_ledger",
		Provides:     []*PortType{putType},
		PortCapacity: 1024,
		Init:         ledgerMain,
		Recover:      ledgerMain,
	})
	srv := w.MustAddNode("srv")
	cli := w.MustAddNode("cli")
	created, err := srv.Bootstrap("crash_ledger")
	if err != nil {
		t.Fatal(err)
	}
	g, drv, err := cli.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	reply, err := g.NewPort(ackType, 1024)
	if err != nil {
		t.Fatal(err)
	}
	put := func(v int64) {
		if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "put", v); err != nil {
			t.Fatalf("put %d: %v", v, err)
		}
	}
	awaitAck := func(v int64) {
		t.Helper()
		m, st := drv.Receive(5*time.Second, reply)
		if st != RecvOK || m.Command != "ack" || m.Int(0) != v {
			t.Fatalf("awaiting ack %d: status %v, message %+v", v, st, m)
		}
	}

	// Phase 1: a fully acknowledged prefix.
	for v := int64(0); v < ackedOps; v++ {
		put(v)
		awaitAck(v)
	}

	// Phase 2: crash mid-dispatch. The handler closes entered after the
	// crash op's record is synced, then holds; ops queued behind it die
	// with the port queue.
	put(crashOp)
	<-entered
	for v := int64(queuedLo); v <= queuedHi; v++ {
		put(v)
	}
	time.Sleep(10 * time.Millisecond) // let the queued sends land in the port
	srv.Crash()

	// No ack may arrive for the held or queued ops.
	if m, st := drv.Receive(20*time.Millisecond, reply); st == RecvOK && !m.IsFailure() {
		t.Fatalf("received ack %d for an op that must be unacked", m.Int(0))
	}

	// Phase 3: restart and synchronize on a live round-trip; its ack
	// proves the recovery replay has completed.
	if err := srv.Restart(); err != nil {
		t.Fatal(err)
	}
	put(liveOp)
	awaitAck(liveOp)

	g2, ok := srv.GuardianByID(created.GuardianID)
	if !ok {
		t.Fatalf("guardian %d not recovered", created.GuardianID)
	}
	st, ok := g2.State().(*crashLedgerState)
	if !ok {
		t.Fatalf("recovered state has wrong type %T", g2.State())
	}
	// The recovery replay saw exactly the consistent prefix: the acked
	// ops plus the synced-but-unacked crash op. liveOp was handled after
	// recovery, so it is in values but not in the replayed count.
	if st.replayed != ackedOps+1 {
		t.Fatalf("recovery replayed %d records, want %d (acked prefix + crash op)",
			st.replayed, ackedOps+1)
	}
	for v := int64(0); v <= crashOp; v++ {
		if !st.values[v] {
			t.Fatalf("acked/synced op %d missing after recovery", v)
		}
	}
	for v := int64(queuedLo); v <= queuedHi; v++ {
		if st.values[v] {
			t.Fatalf("queued op %d survived the crash; port queues must be volatile", v)
		}
	}

	// The durable log itself: strictly increasing sequence numbers and no
	// duplicated values — {0..crashOp} ∪ {liveOp}, exactly once each.
	_, recs, _ := g2.Log().Recover()
	if len(recs) != ackedOps+2 {
		t.Fatalf("durable log has %d records, want %d", len(recs), ackedOps+2)
	}
	seen := make(map[int64]int)
	var lastSeq uint64
	for i, r := range recs {
		if i > 0 && r.Seq <= lastSeq {
			t.Fatalf("log sequence not strictly increasing: %d after %d", r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		v, err := wire.UnmarshalValue(r.Data)
		if err != nil {
			t.Fatalf("record %d: %v", r.Seq, err)
		}
		seen[int64(v.(xrep.Int))]++
	}
	for v := int64(0); v <= crashOp; v++ {
		if seen[v] != 1 {
			t.Fatalf("value %d appears %d times in the durable log, want 1", v, seen[v])
		}
	}
	if seen[liveOp] != 1 {
		t.Fatalf("post-restart op %d appears %d times, want 1", liveOp, seen[liveOp])
	}
}
