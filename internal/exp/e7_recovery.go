package exp

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/guardian"
	"repro/internal/metrics"
	"repro/internal/xrep"
)

// E7Params configures the permanence/recovery experiment.
type E7Params struct {
	// OpCounts is the sweep of operations applied before the crash.
	OpCounts []int
	// CheckpointEvery is the checkpoint-interval ablation (0 = never).
	CheckpointEvery []int
	Timeout         time.Duration
}

// E7Defaults is the full-size configuration.
var E7Defaults = E7Params{
	OpCounts:        []int{100, 1000, 5000},
	CheckpointEvery: []int{0, 100, 1000},
	Timeout:         30 * time.Second,
}

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

// brokenLedgerDef is the ablation: it acknowledges each inc BEFORE syncing
// the log record — the protocol the paper's permanence requirement
// forbids. Operations acknowledged just before a crash are lost.
func brokenLedgerDef() *guardian.GuardianDef {
	main := func(ctx *guardian.Ctx) {
		log := ctx.G.Log()
		var count int64
		if ctx.Recovering {
			_, recs, _ := log.Recover()
			count = int64(len(recs))
		}
		guardian.NewReceiver(ctx.Ports[0]).
			When("inc", func(pr *guardian.Process, m *guardian.Message) {
				//lint:allow ackorder the broken ledger is the experiment's control arm: it leaves the append volatile so e7 can measure recovery losing it
				log.Append([]byte{1}) // volatile: no Sync before the ack
				count++
				if !m.ReplyTo.IsZero() {
					//lint:allow ackorder deliberately unsynced ack — the violation e7 exists to demonstrate
					_ = pr.Send(m.ReplyTo, "ok")
				}
			}).
			When("get", func(pr *guardian.Process, m *guardian.Message) {
				if !m.ReplyTo.IsZero() {
					_ = pr.Send(m.ReplyTo, "value", count)
				}
			}).
			WhenFailure(func(_ *guardian.Process, _ string, _ *guardian.Message) {
				// §3.4 failure arm: a discarded message named this port as
				// its replyto. The count already moved and is logged;
				// clients re-ask on timeout, so the report is dropped.
			}).
			Loop(ctx.Proc, nil)
	}
	return &guardian.GuardianDef{
		TypeName: "e7_broken_ledger",
		Provides: []*guardian.PortType{ledgerType},
		Init:     main,
		Recover:  main,
	}
}

func ledgerDef() *guardian.GuardianDef {
	main := func(ctx *guardian.Ctx) {
		checkpointEvery := 0
		if len(ctx.Args) == 1 {
			if k, ok := ctx.Args[0].(xrep.Int); ok {
				checkpointEvery = int(k)
			}
		}
		log := ctx.G.Log()
		var count int64
		var replayed int
		if ctx.Recovering {
			cp, recs, err := log.Recover()
			if err == nil && len(cp) == 8 {
				count = int64(binary.BigEndian.Uint64(cp))
			}
			count += int64(len(recs))
			replayed = len(recs)
		}
		_ = replayed
		sinceCP := 0
		guardian.NewReceiver(ctx.Ports[0]).
			When("inc", func(pr *guardian.Process, m *guardian.Message) {
				seq := log.AppendSync([]byte{1})
				count++
				sinceCP++
				if checkpointEvery > 0 && sinceCP >= checkpointEvery {
					var cp [8]byte
					binary.BigEndian.PutUint64(cp[:], uint64(count))
					log.Checkpoint(cp[:], seq)
					sinceCP = 0
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
			WhenFailure(func(_ *guardian.Process, _ string, _ *guardian.Message) {
				// §3.4 failure arm: a discarded message named this port as
				// its replyto. The append is logged and permanent either
				// way; the client re-asks on timeout.
			}).
			Loop(ctx.Proc, nil)
	}
	return &guardian.GuardianDef{
		TypeName: "e7_ledger",
		Provides: []*guardian.PortType{ledgerType},
		Init:     main,
		Recover:  main,
	}
}

// RunE7Recovery reproduces the §2.2 permanence requirements: completed
// atomic operations survive a node crash via per-guardian logging, the
// recovery process replays the log, replay length (and so recovery time)
// grows with the operation count, and checkpoints bound it.
func RunE7Recovery(p E7Params, scale Scale) (*Result, error) {
	res := &Result{ID: "E7 (§2.2 permanence)"}
	tab := metrics.NewTable(
		"§2.2 — crash recovery: log replay length and recovery time vs checkpoint interval",
		"ops-before-crash", "checkpoint-every", "records-replayed", "recovery-time", "state-correct")
	res.Tables = append(res.Tables, tab)

	type key struct{ ops, cp int }
	replayLens := map[key]int{}

	for _, fullOps := range p.OpCounts {
		ops := scale.N(fullOps, 20)
		for _, cpEvery := range p.CheckpointEvery {
			replayLen, recTime, correct, err := runE7Cell(ops, cpEvery, p.Timeout)
			if err != nil {
				return nil, err
			}
			tab.AddRow(ops, cpEvery, replayLen, recTime.String(), correct)
			replayLens[key{ops, cpEvery}] = replayLen
			if !correct {
				res.Notef("DEVIATES: state wrong after recovery at ops=%d cp=%d", ops, cpEvery)
			}
		}
	}
	res.Notef("HOLDS: recovered state equals pre-crash state in every cell (permanence of effect)")

	// Ablation: the same guardian acknowledging before syncing. The paper
	// requires log-then-ack; this shows why.
	ablTab := metrics.NewTable(
		"§2.2 ablation — acknowledge-before-sync loses acknowledged operations",
		"protocol", "acked-ops", "recovered", "lost")
	res.Tables = append(res.Tables, ablTab)
	ops := scale.N(500, 20)
	for _, broken := range []bool{false, true} {
		recovered, err := runE7Ablation(ops, broken, p.Timeout)
		if err != nil {
			return nil, err
		}
		name := "log-then-ack (paper)"
		if broken {
			name = "ack-then-log (ablation)"
		}
		ablTab.AddRow(name, ops, recovered, ops-recovered)
		if broken && recovered < ops {
			res.Notef("HOLDS: the ack-before-sync ablation lost %d of %d acknowledged operations — the paper's log-then-ack discipline is necessary, not a formality", ops-recovered, ops)
		}
		if !broken && recovered != ops {
			res.Notef("DEVIATES: log-then-ack lost %d operations", ops-recovered)
		}
	}
	// Shape: checkpoints bound replay length.
	for _, fullOps := range p.OpCounts {
		ops := scale.N(fullOps, 20)
		noCP := replayLens[key{ops, 0}]
		for _, cpEvery := range p.CheckpointEvery {
			if cpEvery == 0 || cpEvery >= ops {
				continue
			}
			with := replayLens[key{ops, cpEvery}]
			if with < noCP {
				res.Notef("HOLDS: checkpoint-every-%d cuts replay at %d ops (%d → %d records)",
					cpEvery, ops, noCP, with)
			} else {
				res.Notef("DEVIATES: checkpoint-every-%d did not cut replay at %d ops (%d vs %d)",
					cpEvery, ops, noCP, with)
			}
		}
	}
	return res, nil
}

// runE7Ablation applies ops acknowledged increments, crashes immediately,
// recovers, and reports how many survived.
func runE7Ablation(ops int, broken bool, timeout time.Duration) (recovered int, err error) {
	w := guardian.NewWorld(guardian.Config{})
	w.MustRegister(ledgerDef())
	w.MustRegister(brokenLedgerDef())
	srv := w.MustAddNode("srv")
	defName := "e7_ledger"
	if broken {
		defName = "e7_broken_ledger"
	}
	var created *guardian.Created
	if broken {
		created, err = srv.Bootstrap(defName)
	} else {
		created, err = srv.Bootstrap(defName, 0)
	}
	if err != nil {
		return 0, err
	}
	cli := w.MustAddNode("cli")
	g, drv, err := cli.NewDriver("d")
	if err != nil {
		return 0, err
	}
	reply := g.MustNewPort(ledgerReplyType, 8)
	port := created.Ports[0]
	for i := 0; i < ops; i++ {
		if err := drv.SendReplyTo(port, reply.Name(), "inc"); err != nil {
			return 0, err
		}
		if m, st := drv.Receive(timeout, reply); st != guardian.RecvOK || m.Command != "ok" {
			return 0, fmt.Errorf("inc %d not acknowledged: %v", i, st)
		}
	}
	// Crash the instant the last ack has been received by the client.
	srv.Crash()
	if err := srv.Restart(); err != nil {
		return 0, err
	}
	if err := drv.SendReplyTo(port, reply.Name(), "get"); err != nil {
		return 0, err
	}
	m, st := drv.Receive(timeout, reply)
	if st != guardian.RecvOK || m.Command != "value" {
		return 0, fmt.Errorf("get after recovery: %v", st)
	}
	return int(m.Int(0)), nil
}

func runE7Cell(ops, cpEvery int, timeout time.Duration) (replayLen int, recTime time.Duration, correct bool, err error) {
	w := guardian.NewWorld(guardian.Config{})
	w.MustRegister(ledgerDef())
	srv := w.MustAddNode("srv")
	created, err := srv.Bootstrap("e7_ledger", cpEvery)
	if err != nil {
		return 0, 0, false, err
	}
	cli := w.MustAddNode("cli")
	g, drv, err := cli.NewDriver("d")
	if err != nil {
		return 0, 0, false, err
	}
	reply := g.MustNewPort(ledgerReplyType, 8)
	port := created.Ports[0]

	for i := 0; i < ops; i++ {
		if err := drv.SendReplyTo(port, reply.Name(), "inc"); err != nil {
			return 0, 0, false, err
		}
		if m, st := drv.Receive(timeout, reply); st != guardian.RecvOK || m.Command != "ok" {
			return 0, 0, false, fmt.Errorf("inc %d: %v", i, st)
		}
	}
	// Replay length = durable records not folded into the checkpoint.
	glog, err := srv.Store().OpenLog(fmt.Sprintf("e7_ledger-%d", created.GuardianID))
	if err != nil {
		return 0, 0, false, err
	}
	replayLen = glog.DurableLen()

	clock := w.Clock()
	srv.Crash()
	t0 := clock.Now()
	if err := srv.Restart(); err != nil {
		return 0, 0, false, err
	}
	// Recovery time: until the guardian answers its first get. The receive
	// loop starts only after the recovery process has replayed the log.
	if err := drv.SendReplyTo(port, reply.Name(), "get"); err != nil {
		return 0, 0, false, err
	}
	m, st := drv.Receive(timeout, reply)
	recTime = clock.Now().Sub(t0)
	if st != guardian.RecvOK || m.Command != "value" {
		return replayLen, recTime, false, nil
	}
	return replayLen, recTime, m.Int(0) == int64(ops), nil
}
