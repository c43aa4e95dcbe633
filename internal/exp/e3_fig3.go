package exp

import (
	"fmt"
	"time"

	"repro/internal/guardian"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/xrep"
)

// The guardian-creation experiment at full size.
const (
	e3Creations  = 200                  // guardians created per mode
	e3NetLatency = 2 * time.Millisecond // separates local from remote creation cost
	e3Timeout    = 10 * time.Second
)

// trivialDefName is a minimal guardian used to measure creation cost.
const trivialDefName = "e3_trivial"

var trivialPort = guardian.NewPortType("e3_port").Msg("noop")

func trivialDef() *guardian.GuardianDef {
	return &guardian.GuardianDef{
		TypeName: trivialDefName,
		Provides: []*guardian.PortType{trivialPort},
		Init: func(ctx *guardian.Ctx) {
			<-ctx.G.Killed()
		},
	}
}

// RunE3Fig3 reproduces Figure 3 and the §2.1 creation rules: guardians are
// created locally by resident guardians (cheap), or across the network via
// a create request to the target node's primordial guardian (one round
// trip), and the node owner's policy can refuse — preserving autonomy.
func RunE3Fig3(scale Scale) (*Result, error) {
	creations := scale.N(e3Creations, 10)
	res := &Result{ID: "E3 (Figure 3)"}
	tab := metrics.NewTable(
		"Figure 3 — guardian creation: local vs remote (via primordial guardian)",
		"mode", "creations", "mean", "p95", "outcome")
	res.Tables = append(res.Tables, tab)

	w := guardian.NewWorld(guardian.Config{Net: netsim.Config{BaseLatency: e3NetLatency}})
	w.MustRegister(trivialDef())
	a := w.MustAddNode("a")
	b := w.MustAddNode("b")
	creator, drv, err := a.NewDriver("creator")
	if err != nil {
		return nil, err
	}
	reply := creator.MustNewPort(guardian.CreatedReplyType, 4)
	// create asks b's primordial guardian for a creation and reports the
	// answer: the reply command, the refusal, or noReply.
	const noReply = "NO REPLY"
	create := func() (string, error) {
		err := drv.SendCheckedReplyTo(guardian.PrimordialType, b.PrimordialPort(), reply.Name(),
			"create", trivialDefName, xrep.Seq{})
		if err != nil {
			return "", err
		}
		m, st := drv.Receive(e3Timeout, reply)
		switch {
		case st != guardian.RecvOK:
			return noReply, nil
		case m.IsFailure():
			return "denied: " + m.FailureText(), nil
		}
		return m.Command, nil
	}

	// Local creation: a resident guardian creates at its own node.
	local, err := runSequential(w.Clock(), creations, func(int) error {
		_, err := creator.Create(trivialDefName)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := local.failedErr("local creations"); err != nil {
		return nil, err
	}
	ls := local.Latency
	tab.AddRow("local (resident Create)", creations, ls.Mean.String(), ls.P95.String(), "created")

	// Remote creation: message to b's primordial guardian.
	remote, err := runSequential(w.Clock(), creations, func(int) error {
		outcome, err := create()
		if err == nil && outcome != "created" {
			err = fmt.Errorf("create answered %q", outcome)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rs := remote.Latency
	tab.AddRow("remote (primordial create)", remote.OK, rs.Mean.String(), rs.P95.String(), "created")

	// Remote creation denied by the owner's policy.
	b.SetCreatePolicy(func(srcNode string, srcGuardian uint64, defName string) bool { return false })
	outcome, err := create()
	if err != nil {
		return nil, err
	}
	tab.AddRow("remote (policy denies)", 1, "-", "-", outcome)

	// Shape checks.
	if remote.Failed == 0 {
		res.Holdsf("all %d remote create requests served by the primordial guardian", remote.OK)
	} else {
		res.Deviatesf("only %d/%d remote creations succeeded (%v)", remote.OK, creations, remote.Failure)
	}
	if rs.Mean > ls.Mean {
		res.Holdsf("remote creation costs more than local (%v vs %v; network round trip ≈ %v)",
			rs.Mean, ls.Mean, 2*e3NetLatency)
	} else {
		res.Deviatesf("remote creation (%v) not slower than local (%v)", rs.Mean, ls.Mean)
	}
	if outcome != "created" && outcome != noReply {
		res.Holdsf("the node owner's policy refused a remote creation (autonomy preserved)")
	} else {
		res.Deviatesf("denied creation still reported %q", outcome)
	}
	return res, nil
}
