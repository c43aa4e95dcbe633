package exp

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/guardian"
	"repro/internal/metrics"
	"repro/internal/xrep"
)

// The permanence/recovery experiment at full size.
const (
	e7AblationOps = 500
	e7Timeout     = 30 * time.Second
)

var (
	e7OpCounts        = []int{100, 1000, 5000} // operations applied before the crash
	e7CheckpointEvery = []int{0, 100, 1000}    // checkpoint-interval ablation (0 = never)
)

// ledger is a minimal guardian whose whole purpose is durable state: each
// inc is logged before acknowledgement; a checkpoint every k ops bounds
// replay length. It is the unit-scale model of what the flight and bank
// guardians do.
var ledgerType = guardian.NewPortType("e7_ledger_port").
	Msg("inc").
	Replies("inc", "ok").
	Msg("get").
	Replies("get", "value")

var ledgerReplyType = guardian.NewPortType("e7_ledger_reply").
	Msg("ok").
	Msg("value", xrep.KindInt)

// ledgerDef builds the ledger guardian. With logThenAck it follows the
// paper: sync the record, checkpoint every k ops (its one argument; 0 =
// never), then acknowledge. Without, it is the ablation: it acknowledges
// each inc BEFORE syncing the log record — the protocol the permanence
// requirement forbids — so operations acknowledged just before a crash
// are lost.
func ledgerDef(name string, logThenAck bool) *guardian.GuardianDef {
	main := func(ctx *guardian.Ctx) {
		f := xrep.ReadFields(ctx.Args, 1)
		checkpointEvery := int(f.Int())
		if f.Err() != nil {
			checkpointEvery = 0
		}
		log := ctx.G.Log()
		var count int64
		if ctx.Recovering {
			cp, recs, err := log.Recover()
			if err == nil && len(cp) == 8 {
				count = int64(binary.BigEndian.Uint64(cp))
			}
			count += int64(len(recs))
		}
		sinceCP := 0
		// No failure arm: the client re-asks on timeout.
		guardian.NewReceiver(ctx.Ports[0]).
			When("inc", func(pr *guardian.Process, m *guardian.Message) {
				count++
				if logThenAck {
					seq := log.AppendSync([]byte{1})
					sinceCP++
					if checkpointEvery > 0 && sinceCP >= checkpointEvery {
						var cp [8]byte
						binary.BigEndian.PutUint64(cp[:], uint64(count))
						log.Checkpoint(cp[:], seq)
						sinceCP = 0
					}
				} else {
					log.Append([]byte{1}) // volatile: no Sync before the ack
				}
				if !m.ReplyTo.IsZero() {
					_ = pr.Send(m.ReplyTo, "ok")
				}
			}).
			When("get", func(pr *guardian.Process, m *guardian.Message) {
				if !m.ReplyTo.IsZero() {
					_ = pr.Send(m.ReplyTo, "value", count)
				}
			}).
			Loop(ctx.Proc, nil)
	}
	return &guardian.GuardianDef{
		TypeName: name,
		Provides: []*guardian.PortType{ledgerType},
		Init:     main,
		Recover:  main,
	}
}

// RunE7Recovery reproduces the §2.2 permanence requirements: completed
// atomic operations survive a node crash via per-guardian logging, the
// recovery process replays the log, replay length (and so recovery time)
// grows with the operation count, and checkpoints bound it.
func RunE7Recovery(scale Scale) (*Result, error) {
	res := &Result{ID: "E7 (§2.2 permanence)"}
	tab := metrics.NewTable(
		"§2.2 — crash recovery: log replay length and recovery time vs checkpoint interval",
		"ops-before-crash", "checkpoint-every", "records-replayed", "recovery-time", "state-correct")
	res.Tables = append(res.Tables, tab)

	type key struct{ ops, cp int }
	replayLens := map[key]int{}
	var wrong []string
	for _, fullOps := range e7OpCounts {
		ops := scale.N(fullOps, 20)
		for _, cpEvery := range e7CheckpointEvery {
			replayLen, recTime, count, err := e7Crash("e7_ledger", ops, cpEvery)
			if err != nil {
				return nil, err
			}
			correct := count == int64(ops)
			tab.AddRow(ops, cpEvery, replayLen, recTime.String(), correct)
			replayLens[key{ops, cpEvery}] = replayLen
			if !correct {
				wrong = append(wrong, fmt.Sprintf("ops=%d cp=%d", ops, cpEvery))
			}
		}
	}
	res.HoldsUnless(wrong, "recovered state equals pre-crash state in every cell (permanence of effect)")

	// Ablation: the same guardian acknowledging before syncing. The paper
	// requires log-then-ack; this shows why.
	ablTab := metrics.NewTable(
		"§2.2 ablation — acknowledge-before-sync loses acknowledged operations",
		"protocol", "acked-ops", "recovered", "lost")
	res.Tables = append(res.Tables, ablTab)
	ops := scale.N(e7AblationOps, 20)
	for _, arm := range []struct {
		name, def string
		broken    bool
	}{
		{"log-then-ack (paper)", "e7_ledger", false},
		{"ack-then-log (ablation)", "e7_broken_ledger", true},
	} {
		_, _, count, err := e7Crash(arm.def, ops)
		if err != nil {
			return nil, err
		}
		lost := ops - int(count)
		ablTab.AddRow(arm.name, ops, int(count), lost)
		switch {
		case arm.broken && lost > 0:
			res.Holdsf("the ack-before-sync ablation lost %d of %d acknowledged operations — the paper's log-then-ack discipline is necessary, not a formality", lost, ops)
		case arm.broken:
			res.Deviatesf("the ack-before-sync ablation lost none of %d acknowledged operations", ops)
		case lost != 0:
			res.Deviatesf("log-then-ack lost %d operations", lost)
		}
	}
	// Shape: checkpoints bound replay length.
	for _, fullOps := range e7OpCounts {
		ops := scale.N(fullOps, 20)
		noCP := replayLens[key{ops, 0}]
		for _, cpEvery := range e7CheckpointEvery {
			if cpEvery == 0 || cpEvery >= ops {
				continue
			}
			with := replayLens[key{ops, cpEvery}]
			if with < noCP {
				res.Holdsf("checkpoint-every-%d cuts replay at %d ops (%d → %d records)",
					cpEvery, ops, noCP, with)
			} else {
				res.Deviatesf("checkpoint-every-%d did not cut replay at %d ops (%d vs %d)",
					cpEvery, ops, noCP, with)
			}
		}
	}
	return res, nil
}

// e7Crash applies ops acknowledged increments to a fresh ledger of the
// given definition, crashes its node the instant the client holds the last
// ack, restarts it, and reports the durable replay length at the crash,
// the time until the recovered guardian answered its first get (the
// receive loop starts only after the recovery process has replayed the
// log), and the count it recovered to.
func e7Crash(defName string, ops int, args ...any) (replayLen int, recTime time.Duration, count int64, err error) {
	w := guardian.NewWorld(guardian.Config{})
	w.MustRegister(ledgerDef("e7_ledger", true))
	w.MustRegister(ledgerDef("e7_broken_ledger", false))
	srv := w.MustAddNode("srv")
	created, err := srv.Bootstrap(defName, args...)
	if err != nil {
		return 0, 0, 0, err
	}
	cli := w.MustAddNode("cli")
	g, drv, err := cli.NewDriver("d")
	if err != nil {
		return 0, 0, 0, err
	}
	reply := g.MustNewPort(ledgerReplyType, 8)
	port := created.Ports[0]
	for i := 0; i < ops; i++ {
		if err := drv.SendReplyTo(port, reply.Name(), "inc"); err != nil {
			return 0, 0, 0, err
		}
		if m, st := drv.Receive(e7Timeout, reply); st != guardian.RecvOK || m.Command != "ok" {
			return 0, 0, 0, fmt.Errorf("inc %d not acknowledged: %v", i, st)
		}
	}
	// Replay length = durable records not folded into the checkpoint.
	glog, err := srv.Store().OpenLog(fmt.Sprintf("%s-%d", defName, created.GuardianID))
	if err != nil {
		return 0, 0, 0, err
	}
	replayLen = glog.DurableLen()

	clock := w.Clock()
	srv.Crash()
	t0 := clock.Now()
	if err := srv.Restart(); err != nil {
		return 0, 0, 0, err
	}
	if err := drv.SendReplyTo(port, reply.Name(), "get"); err != nil {
		return 0, 0, 0, err
	}
	m, st := drv.Receive(e7Timeout, reply)
	recTime = clock.Now().Sub(t0)
	if st != guardian.RecvOK || m.Command != "value" {
		return 0, 0, 0, fmt.Errorf("get after recovery: %v", st)
	}
	return replayLen, recTime, m.Int(0), nil
}
