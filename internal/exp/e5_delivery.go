package exp

import (
	"fmt"
	"time"

	"repro/internal/guardian"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/xrep"
)

// The delivery-semantics experiment at full size.
const (
	e5MessagesPerCell = 400 // sends at each loss rate
	e5Timeout         = 5 * time.Second
)

var (
	e5LossRates      = []float64{0, 0.05, 0.10, 0.20, 0.30}
	e5PortCapacities = []int{1, 4, 16, 64} // swept in the buffer-space section
)

var e5SinkType = guardian.NewPortType("e5_sink_port").
	Msg("data", xrep.KindInt)

// e5StuckDef is a sink that never receives, so its port fills: capacity 0
// takes the world's default buffer space.
func e5StuckDef(capacity int) *guardian.GuardianDef {
	return &guardian.GuardianDef{
		TypeName:     "e5_stuck",
		Provides:     []*guardian.PortType{e5SinkType},
		PortCapacity: capacity,
		Init:         func(ctx *guardian.Ctx) { <-ctx.G.Killed() },
	}
}

// RunE5Delivery reproduces §3.4's send/receive semantics: delivery is
// best-effort ("not guaranteed, but will happen with high probability"),
// arrival order is not guaranteed, and discarded messages draw failure
// replies when a replyto port was supplied — for a full port, a missing
// port, and a missing guardian.
func RunE5Delivery(scale Scale) (*Result, error) {
	messages := scale.N(e5MessagesPerCell, 40)
	res := &Result{ID: "E5 (§3.4 semantics)"}

	// Part 1: delivery probability under loss.
	lossTab := metrics.NewTable(
		"§3.4 — best-effort delivery under packet loss",
		"loss-rate", "sent", "arrived", "arrival-frac", "reordered-pairs")
	res.Tables = append(res.Tables, lossTab)
	var off []string
	for _, loss := range e5LossRates {
		arrived, reordered, err := runE5LossCell(messages, loss)
		if err != nil {
			return nil, err
		}
		frac := float64(arrived) / float64(messages)
		lossTab.AddRow(fmt.Sprintf("%.0f%%", loss*100), messages, arrived, frac, reordered)
		if loss == 0 && arrived != messages {
			off = append(off, fmt.Sprintf("lost messages on a loss-free network (%d/%d)", arrived, messages))
		}
		expect := 1 - loss
		if loss > 0 && (frac < expect-0.12 || frac > expect+0.12) {
			off = append(off, fmt.Sprintf("arrival fraction %.2f far from %.2f at %.0f%% loss", frac, expect, loss*100))
		}
	}
	res.HoldsUnless(off, "delivery is best-effort — arrival fraction tracks (1 - loss rate)")

	// Part 2: port buffer space.
	capTab := metrics.NewTable(
		"§3.4 — bounded port buffers: a full port throws messages away and reports failure",
		"port-capacity", "burst", "accepted", "discarded", "failure-replies")
	res.Tables = append(res.Tables, capTab)
	burst := messages / 4
	if burst < 8 {
		burst = 8
	}
	off = nil
	for _, capacity := range e5PortCapacities {
		accepted, discarded, failures, err := runE5CapacityCell(capacity, burst)
		if err != nil {
			return nil, err
		}
		capTab.AddRow(capacity, burst, accepted, discarded, failures)
		if discarded != failures {
			off = append(off, fmt.Sprintf("at capacity %d, %d discards but %d failure replies", capacity, discarded, failures))
		}
		wantAccept := capacity
		if burst < capacity {
			wantAccept = burst
		}
		if accepted != wantAccept {
			off = append(off, fmt.Sprintf("capacity %d accepted %d of burst %d", capacity, accepted, burst))
		}
	}
	res.HoldsUnless(off, "every discarded message with a replyto drew exactly one failure reply")

	// Part 3: the failure-message taxonomy.
	failTab := metrics.NewTable(
		"§3.4 — system failure messages for undeliverable sends",
		"scenario", "failure-text")
	res.Tables = append(res.Tables, failTab)
	if err := runE5FailureTaxonomy(failTab); err != nil {
		return nil, err
	}
	off = nil
	distinct := map[string]bool{}
	for r := 0; r < failTab.Rows(); r++ {
		text := failTab.Cell(r, 1)
		if text == e5NoFailure || distinct[text] {
			off = append(off, fmt.Sprintf("%s: %s", failTab.Cell(r, 0), text))
		}
		distinct[text] = true
	}
	res.HoldsUnless(off, "dead guardian / dead port / full port each yield a distinct system failure message")
	return res, nil
}

func runE5LossCell(messages int, loss float64) (arrived int, reorderedPairs int, err error) {
	w := guardian.NewWorld(guardian.Config{
		Net: netsim.Config{
			Seed:         int64(loss*1000) + 7,
			LossRate:     loss,
			BaseLatency:  200 * time.Microsecond,
			Jitter:       2 * time.Millisecond,
			ReorderRate:  0.2,
			ReorderDelay: 2 * time.Millisecond,
		},
	})
	seen := make(chan int64, messages)
	w.MustRegister(&guardian.GuardianDef{
		TypeName:     "e5_collector",
		Provides:     []*guardian.PortType{e5SinkType},
		PortCapacity: 8192, // ample buffer: this cell measures loss, not overflow
		Init: func(ctx *guardian.Ctx) {
			guardian.NewReceiver(ctx.Ports[0]).
				When("data", func(pr *guardian.Process, m *guardian.Message) {
					seen <- m.Int(0)
				}).
				Loop(ctx.Proc, nil)
		},
	})
	srv := w.MustAddNode("srv")
	created, err := srv.Bootstrap("e5_collector")
	if err != nil {
		return 0, 0, err
	}
	cli := w.MustAddNode("cli")
	_, drv, err := cli.NewDriver("gen")
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < messages; i++ {
		if err := drv.Send(created.Ports[0], "data", i); err != nil {
			return 0, 0, err
		}
	}
	waitQuiesce(w)
	prev := int64(-1)
	for {
		select {
		case v := <-seen:
			arrived++
			if v < prev {
				reorderedPairs++
			}
			prev = v
		case <-time.After(100 * time.Millisecond):
			return arrived, reorderedPairs, nil
		}
	}
}

func runE5CapacityCell(capacity, burst int) (accepted, discarded, failures int, err error) {
	w := guardian.NewWorld(guardian.Config{})
	w.MustRegister(e5StuckDef(capacity))
	srv := w.MustAddNode("srv")
	created, err2 := srv.Bootstrap("e5_stuck")
	if err2 != nil {
		return 0, 0, 0, err2
	}
	cli := w.MustAddNode("cli")
	g, drv, err2 := cli.NewDriver("gen")
	if err2 != nil {
		return 0, 0, 0, err2
	}
	reply := g.MustNewPort(guardian.NewPortType("e5_reply"), burst+8)
	for i := 0; i < burst; i++ {
		if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "data", i); err != nil {
			return 0, 0, 0, err
		}
	}
	waitQuiesce(w)
	time.Sleep(20 * time.Millisecond)
	for {
		m, st := drv.Receive(0, reply)
		if st != guardian.RecvOK {
			break
		}
		if m.IsFailure() {
			failures++
		}
	}
	st := w.Stats()
	discarded = int(st.DiscardPortFull.Load())
	accepted = burst - discarded
	return accepted, discarded, failures, nil
}

// e5NoFailure marks a probe that drew no failure message.
const e5NoFailure = "NO FAILURE RECEIVED"

func runE5FailureTaxonomy(tab *metrics.Table) error {
	w := guardian.NewWorld(guardian.Config{})
	w.MustRegister(e5StuckDef(0))
	srv := w.MustAddNode("srv")
	created, err := srv.Bootstrap("e5_stuck")
	if err != nil {
		return err
	}
	cli := w.MustAddNode("cli")
	g, drv, err := cli.NewDriver("probe")
	if err != nil {
		return err
	}
	reply := g.MustNewPort(guardian.NewPortType("e5_reply2"), 8)
	probe := func(scenario string, dest xrep.PortName, count int) error {
		for i := 0; i < count; i++ {
			if err := drv.SendReplyTo(dest, reply.Name(), "data", i); err != nil {
				return err
			}
		}
		deadline := time.Now().Add(e5Timeout)
		for time.Now().Before(deadline) {
			m, st := drv.Receive(e5Timeout, reply)
			if st != guardian.RecvOK {
				break
			}
			if m.IsFailure() {
				tab.AddRow(scenario, m.FailureText())
				return nil
			}
		}
		tab.AddRow(scenario, e5NoFailure)
		return nil
	}
	if err := probe("guardian doesn't exist", xrep.PortName{Node: "srv", Guardian: 999, Port: 1}, 1); err != nil {
		return err
	}
	badPort := created.Ports[0]
	badPort.Port = 999
	if err := probe("port doesn't exist", badPort, 1); err != nil {
		return err
	}
	// Fill the stuck sink's buffer past capacity.
	if err := probe("no room at target port", created.Ports[0], 100); err != nil {
		return err
	}
	return nil
}
