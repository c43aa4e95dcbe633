package exp

import (
	"fmt"
	"time"

	"repro/internal/guardian"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sendprim"
	"repro/internal/xrep"
)

// The send-primitive comparison at full size.
const (
	e4Exchanges  = 30                   // exchanges per (pattern, primitive) cell
	e4BatchK     = 4                    // requests in the many-requests/one-response pattern
	e4NetLatency = 2 * time.Millisecond // one-way; makes blocking visible
	e4Timeout    = 10 * time.Second
)

// Port types of the E4 protocol guardians.
var (
	e4PrimaryType = guardian.NewPortType("e4_primary_port").
			Msg("req", xrep.KindString).
			Replies("req", "resp").
			Msg("req_sync", xrep.KindString, xrep.KindPortName, xrep.KindRec).
			Msg("batch", xrep.KindString, xrep.KindBool).
			Replies("batch", "resp").
			Msg("batch_sync", xrep.KindString, xrep.KindBool, xrep.KindPortName, xrep.KindRec).
			Msg("batch_call", xrep.KindString, xrep.KindBool).
			Replies("batch_call", "resp").
			Msg("fwd", xrep.KindString).
			Msg("fwd_sync", xrep.KindString, xrep.KindPortName, xrep.KindRec).
			Msg("fwd_call", xrep.KindString).
			Replies("fwd_call", "resp")

	e4SecondaryType = guardian.NewPortType("e4_secondary_port").
			Msg("handoff", xrep.KindString).
			Replies("handoff", "resp").
			Msg("handoff_to", xrep.KindString, xrep.KindPortName)

	e4RespType = guardian.NewPortType("e4_resp_port").
			Msg("resp", xrep.KindString)
)

// e4Secondary answers handoffs: directly to the carried reply port (the
// paper's third-party response pattern) or back to the caller.
func e4SecondaryDef() *guardian.GuardianDef {
	return &guardian.GuardianDef{
		TypeName: "e4_secondary",
		Provides: []*guardian.PortType{e4SecondaryType},
		Init: func(ctx *guardian.Ctx) {
			// No failure arm: the measuring client counts losses by timeout.
			guardian.NewReceiver(ctx.Ports[0]).
				When("handoff", func(pr *guardian.Process, m *guardian.Message) {
					if !m.ReplyTo.IsZero() {
						_ = pr.Send(m.ReplyTo, "resp", m.Str(0))
					}
				}).
				When("handoff_to", func(pr *guardian.Process, m *guardian.Message) {
					_ = pr.Send(m.Port(1), "resp", m.Str(0))
				}).
				Loop(ctx.Proc, nil)
		},
	}
}

// e4Primary implements the server half of every protocol variant.
func e4PrimaryDef(secondary xrep.PortName) *guardian.GuardianDef {
	return &guardian.GuardianDef{
		TypeName: "e4_primary",
		Provides: []*guardian.PortType{e4PrimaryType},
		Init: func(ctx *guardian.Ctx) {
			batchCount := 0
			// No failure arm: the measuring client counts losses by timeout.
			guardian.NewReceiver(ctx.Ports[0]).
				When("req", func(pr *guardian.Process, m *guardian.Message) {
					if !m.ReplyTo.IsZero() {
						_ = pr.Send(m.ReplyTo, "resp", m.Str(0))
					}
				}).
				When("req_sync", func(pr *guardian.Process, m *guardian.Message) {
					_ = sendprim.Acknowledge(pr, m)
					_ = pr.Send(m.Port(1), "resp", m.Str(0))
				}).
				When("batch", func(pr *guardian.Process, m *guardian.Message) {
					batchCount++
					if m.Bool(1) && !m.ReplyTo.IsZero() {
						_ = pr.Send(m.ReplyTo, "resp", fmt.Sprintf("%d", batchCount))
						batchCount = 0
					}
				}).
				When("batch_call", func(pr *guardian.Process, m *guardian.Message) {
					// Remote-transaction semantics: the server must respond
					// to every request, even the k-1 that carry no result.
					batchCount++
					result := ""
					if m.Bool(1) {
						result = fmt.Sprintf("%d", batchCount)
						batchCount = 0
					}
					if !m.ReplyTo.IsZero() {
						_ = pr.Send(m.ReplyTo, "resp", result)
					}
				}).
				When("batch_sync", func(pr *guardian.Process, m *guardian.Message) {
					_ = sendprim.Acknowledge(pr, m)
					batchCount++
					if m.Bool(1) {
						_ = pr.Send(m.Port(2), "resp", fmt.Sprintf("%d", batchCount))
						batchCount = 0
					}
				}).
				When("fwd", func(pr *guardian.Process, m *guardian.Message) {
					// Pass the requester's reply port along; the secondary
					// answers the requester directly.
					_ = pr.SendReplyTo(secondary, m.ReplyTo, "handoff", m.Str(0))
				}).
				When("fwd_sync", func(pr *guardian.Process, m *guardian.Message) {
					_ = sendprim.Acknowledge(pr, m)
					_ = pr.Send(secondary, "handoff_to", m.Str(0), m.Port(1))
				}).
				When("fwd_call", func(pr *guardian.Process, m *guardian.Message) {
					// Remote-transaction semantics force the reply to come
					// from the callee, so the primary must itself call the
					// secondary and then respond — two extra messages.
					reply, err := sendprim.Call(pr, secondary, e4RespType,
						sendprim.CallOptions{Timeout: 5 * time.Second}, "handoff", m.Str(0))
					if err != nil {
						return
					}
					if !m.ReplyTo.IsZero() {
						_ = pr.Send(m.ReplyTo, "resp", reply.Str(0))
					}
				}).
				Loop(ctx.Proc, nil)
		},
	}
}

// RunE4Primitives reproduces the §3 comparison: for the three exchange
// patterns observed in real protocols, count the messages each primitive
// needs and how long the sender stays blocked inside send operations. The
// paper's claim: the no-wait send matches every pattern with the fewest
// messages; the synchronization send and remote transaction send "would
// require additional messages to be exchanged".
func RunE4Primitives(scale Scale) (*Result, error) {
	exchanges := scale.N(e4Exchanges, 3)
	res := &Result{ID: "E4 (§3 primitives)"}
	tab := metrics.NewTable(
		"§3 — send primitives by exchange pattern: messages per exchange, sender-blocked time, exchange latency",
		"pattern", "primitive", "msgs/exchange", "blocked-mean", "exchange-mean")
	res.Tables = append(res.Tables, tab)

	w := guardian.NewWorld(guardian.Config{Net: netsim.Config{BaseLatency: e4NetLatency}})
	w.MustRegister(e4SecondaryDef())
	nodeB := w.MustAddNode("srv-b")
	createdB, err := nodeB.Bootstrap("e4_secondary")
	if err != nil {
		return nil, err
	}
	w.MustRegister(e4PrimaryDef(createdB.Ports[0]))
	nodeA := w.MustAddNode("srv-a")
	createdA, err := nodeA.Bootstrap("e4_primary")
	if err != nil {
		return nil, err
	}
	primary := createdA.Ports[0]
	cli := w.MustAddNode("cli")
	g, drv, err := cli.NewDriver("client")
	if err != nil {
		return nil, err
	}
	resp := g.MustNewPort(e4RespType, 16)
	clock := w.Clock()
	stats := w.Stats()

	// The three primitives, each as "send one request". The no-wait and
	// synchronization sends leave the response to a separate receive; the
	// remote transaction send returns it.
	callOpts := sendprim.CallOptions{Timeout: e4Timeout}
	prims := []struct {
		name       string
		send       func(cmd string, args ...any) error
		thenAwaits bool
	}{
		{"no-wait", func(cmd string, args ...any) error {
			return drv.SendReplyTo(primary, resp.Name(), cmd, args...)
		}, true},
		{"sync", func(cmd string, args ...any) error {
			return sendprim.SyncSend(drv, primary, e4Timeout, cmd, append(args, resp.Name())...)
		}, true},
		{"remote-call", func(cmd string, args ...any) error {
			_, err := sendprim.Call(drv, primary, e4RespType, callOpts, cmd, args...)
			return err
		}, false},
	}
	// The three exchange patterns observed in real protocols: how many
	// requests make one exchange, and the command each primitive's protocol
	// variant uses (in prims order). Under remote-transaction semantics the
	// server must respond to every request of a batch.
	patterns := []struct {
		name     string
		requests int
		cmds     [3]string
	}{
		{"request/response", 1, [3]string{"req", "req_sync", "req"}},
		{"k-requests/1-response", e4BatchK, [3]string{"batch", "batch_sync", "batch_call"}},
		{"third-party-response", 1, [3]string{"fwd", "fwd_sync", "fwd_call"}},
	}

	for _, pat := range patterns {
		msgs := make([]float64, len(prims))
		for pi, prim := range prims {
			blocked := metrics.NewHistogram()
			waitQuiesce(w)
			before := stats.MessagesSent.Load()
			f, err := runSequential(clock, exchanges, func(int) error {
				for k := 0; k < pat.requests; k++ {
					args := []any{"x"}
					if pat.requests > 1 {
						args = append(args, k == pat.requests-1) // marks the batch's last request
					}
					t0 := clock.Now()
					err := prim.send(pat.cmds[pi], args...)
					blocked.Observe(clock.Now().Sub(t0))
					if err != nil {
						return err
					}
				}
				if !prim.thenAwaits {
					return nil
				}
				m, st := drv.Receive(e4Timeout, resp)
				if st != guardian.RecvOK {
					return fmt.Errorf("receive status %v", st)
				}
				if m.IsFailure() {
					return fmt.Errorf("failure: %s", m.FailureText())
				}
				return nil
			})
			if err == nil {
				err = f.failedErr("exchanges")
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", pat.name, prim.name, err)
			}
			waitQuiesce(w)
			msgs[pi] = float64(stats.MessagesSent.Load()-before) / float64(exchanges)
			tab.AddRow(pat.name, prim.name, msgs[pi], blocked.Snapshot().Mean.String(), f.Latency.Mean.String())
		}
		// Shape check: no-wait uses the fewest messages in every pattern.
		if msgs[0] <= msgs[1] && msgs[0] <= msgs[2] {
			res.Holdsf("no-wait send needs the fewest messages for %s (%.1f vs sync %.1f, call %.1f)",
				pat.name, msgs[0], msgs[1], msgs[2])
		} else {
			res.Deviatesf("no-wait send not cheapest for %s (%.1f vs sync %.1f, call %.1f)",
				pat.name, msgs[0], msgs[1], msgs[2])
		}
	}
	return res, nil
}
