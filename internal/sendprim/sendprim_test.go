package sendprim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/guardian"
	"repro/internal/netsim"
	"repro/internal/xrep"
)

// workType declares a trailing KindRec slot for the hidden, tagged
// sync-send ack port (present only on sync sends) by declaring two
// commands.
var workType = guardian.NewPortType("work_port").
	Msg("work_sync", xrep.KindString, xrep.KindRec). // sync-send variant
	Msg("work", xrep.KindString).                    // no-wait / call variant
	Replies("work", "done")

var doneType = guardian.NewPortType("done_port").
	Msg("done", xrep.KindString)

// newWorker builds a world with a worker guardian on node "srv" that
// acknowledges sync sends and answers calls.
func newWorker(t *testing.T, netCfg netsim.Config, workDelay time.Duration) (*guardian.World, xrep.PortName, *guardian.Process) {
	t.Helper()
	w := guardian.NewWorld(guardian.Config{Net: netCfg})
	srv := w.MustAddNode("srv")
	cli := w.MustAddNode("cli")
	w.MustRegister(&guardian.GuardianDef{
		TypeName: "worker",
		Provides: []*guardian.PortType{workType},
		Init: func(ctx *guardian.Ctx) {
			guardian.NewReceiver(ctx.Ports[0]).
				When("work_sync", func(pr *guardian.Process, m *guardian.Message) {
					if err := Acknowledge(pr, m); err != nil {
						t.Errorf("Acknowledge: %v", err)
					}
					if workDelay > 0 {
						pr.Pause(workDelay)
					}
				}).
				When("work", func(pr *guardian.Process, m *guardian.Message) {
					if workDelay > 0 {
						pr.Pause(workDelay)
					}
					if !m.ReplyTo.IsZero() {
						_ = pr.Send(m.ReplyTo, "done", m.Str(0))
					}
				}).
				Loop(ctx.Proc, nil)
		},
	})
	created, err := srv.Bootstrap("worker")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := cli.NewDriver("client")
	if err != nil {
		t.Fatal(err)
	}
	return w, created.Ports[0], drv
}

func TestSyncSendWaitsForReceipt(t *testing.T) {
	w, port, drv := newWorker(t, netsim.Config{}, 0)
	if err := SyncSend(drv, port, 2*time.Second, "work_sync", "job1"); err != nil {
		t.Fatal(err)
	}
	// Two messages crossed: the request and the receipt.
	if got := w.Stats().MessagesSent.Load(); got != 2 {
		t.Fatalf("sync send cost %d messages, want 2", got)
	}
}

func TestSyncSendTimesOutWhenNobodyListens(t *testing.T) {
	w := guardian.NewWorld(guardian.Config{})
	cli := w.MustAddNode("cli")
	_, drv, err := cli.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	ghost := xrep.PortName{Node: "nowhere", Guardian: 3, Port: 1}
	start := time.Now()
	err = SyncSend(drv, ghost, 50*time.Millisecond, "work_sync", "x")
	if err == nil {
		t.Fatal("sync send to nobody succeeded")
	}
	if time.Since(start) < 45*time.Millisecond {
		t.Fatal("sync send returned before its timeout")
	}
}

func TestSyncSendBlocksLongerThanNoWait(t *testing.T) {
	// With 10ms one-way latency, the no-wait send returns immediately
	// while the sync send blocks ≥ 2 RTT-ish.
	cfg := netsim.Config{BaseLatency: 10 * time.Millisecond}
	_, port, drv := newWorker(t, cfg, 0)

	start := time.Now()
	if err := drv.Send(port, "work", "nw"); err != nil {
		t.Fatal(err)
	}
	noWait := time.Since(start)

	start = time.Now()
	if err := SyncSend(drv, port, 2*time.Second, "work_sync", "ss"); err != nil {
		t.Fatal(err)
	}
	sync := time.Since(start)

	if noWait > 5*time.Millisecond {
		t.Fatalf("no-wait send blocked %v", noWait)
	}
	if sync < 18*time.Millisecond {
		t.Fatalf("sync send blocked only %v, want ≥ ~20ms round trip", sync)
	}
}

func TestAcknowledgeRejectsMalformed(t *testing.T) {
	w := guardian.NewWorld(guardian.Config{})
	n := w.MustAddNode("n")
	_, drv, err := n.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := Acknowledge(drv, &guardian.Message{Command: "x"}); err == nil {
		t.Fatal("Acknowledge accepted a message with no args")
	}
	m := &guardian.Message{Command: "x", Args: xrep.Seq{xrep.Int(1)}}
	if err := Acknowledge(drv, m); err == nil {
		t.Fatal("Acknowledge accepted a non-port trailing arg")
	}
	// A bare trailing port is NOT an ack port: only the tagged record is.
	pn := xrep.PortName{Node: "n", Guardian: 1, Port: 2}
	m2 := &guardian.Message{Command: "x", Args: xrep.Seq{pn}}
	if err := Acknowledge(drv, m2); err == nil {
		t.Fatal("Acknowledge accepted an untagged trailing port")
	}
}

func TestStripAck(t *testing.T) {
	pn := xrep.PortName{Node: "n", Guardian: 1, Port: 2}
	m := &guardian.Message{Args: xrep.Seq{xrep.Str("a"), AckArg(pn)}}
	if got := StripAck(m); len(got) != 1 {
		t.Fatalf("StripAck kept %d args", len(got))
	}
	// A message whose final REAL argument is a port keeps it: this is the
	// corruption the tagged record prevents.
	m2 := &guardian.Message{Args: xrep.Seq{xrep.Str("a"), pn}}
	if got := StripAck(m2); len(got) != 2 {
		t.Fatalf("StripAck corrupted a message ending in a real port arg (%d args left)", len(got))
	}
	m3 := &guardian.Message{Args: xrep.Seq{xrep.Str("a")}}
	if got := StripAck(m3); len(got) != 1 {
		t.Fatalf("StripAck removed a non-port arg")
	}
	m4 := &guardian.Message{}
	if got := StripAck(m4); len(got) != 0 {
		t.Fatal("StripAck on empty args")
	}
}

func TestCallReturnsReply(t *testing.T) {
	w, port, drv := newWorker(t, netsim.Config{}, 0)
	m, err := Call(drv, port, doneType, CallOptions{Timeout: 2 * time.Second}, "work", "payload")
	if err != nil {
		t.Fatal(err)
	}
	if m.Command != "done" || m.Str(0) != "payload" {
		t.Fatalf("reply %s(%v)", m.Command, m.Args)
	}
	if got := w.Stats().MessagesSent.Load(); got != 2 {
		t.Fatalf("call cost %d messages, want 2", got)
	}
}

func TestCallFailsOnDeadGuardian(t *testing.T) {
	w := guardian.NewWorld(guardian.Config{})
	w.MustAddNode("srv")
	cli := w.MustAddNode("cli")
	_, drv, err := cli.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	ghost := xrep.PortName{Node: "srv", Guardian: 42, Port: 1}
	_, err = Call(drv, ghost, doneType, CallOptions{Timeout: time.Second}, "work", "x")
	if err == nil {
		t.Fatal("call to dead guardian succeeded")
	}
}

func TestCallRetriesMaskLoss(t *testing.T) {
	// 60% loss: a single attempt usually fails, but with retries the call
	// succeeds eventually (idempotent request).
	cfg := netsim.Config{Seed: 7, LossRate: 0.6}
	_, port, drv := newWorker(t, cfg, 0)
	m, err := Call(drv, port, doneType,
		CallOptions{Timeout: 100 * time.Millisecond, Retries: 20}, "work", "lossy")
	if err != nil {
		t.Fatalf("retrying call failed under 60%% loss: %v", err)
	}
	if m.Str(0) != "lossy" {
		t.Fatalf("reply %v", m.Args)
	}
}

func TestCallExhaustsRetries(t *testing.T) {
	cfg := netsim.Config{LossRate: 1.0}
	_, port, drv := newWorker(t, cfg, 0)
	start := time.Now()
	_, err := Call(drv, port, doneType,
		CallOptions{Timeout: 20 * time.Millisecond, Retries: 2}, "work", "x")
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	var ce *CallError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T does not carry per-attempt timing", err)
	}
	if len(ce.Attempts) != 3 {
		t.Fatalf("error records %d attempts, want 3", len(ce.Attempts))
	}
	for i, a := range ce.Attempts {
		if a.Wait < 15*time.Millisecond {
			t.Fatalf("attempt %d waited only %v", i, a.Wait)
		}
	}
	if el := time.Since(start); el < 55*time.Millisecond {
		t.Fatalf("3 attempts × 20ms finished in %v", el)
	}
}

func TestCallBackoffSpacesAttempts(t *testing.T) {
	cfg := netsim.Config{LossRate: 1.0}
	_, port, drv := newWorker(t, cfg, 0)
	start := time.Now()
	_, err := Call(drv, port, doneType,
		CallOptions{Timeout: 10 * time.Millisecond, Retries: 2, Backoff: 20 * time.Millisecond},
		"work", "x")
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	// 3 waits of 10ms plus backoffs of 20ms and 40ms between attempts.
	if el := time.Since(start); el < 85*time.Millisecond {
		t.Fatalf("backed-off attempts finished in %v, want ≥ ~90ms", el)
	}
	var ce *CallError
	if !errors.As(err, &ce) {
		t.Fatal("no CallError")
	}
	if ce.Attempts[0].Backoff != 20*time.Millisecond || ce.Attempts[1].Backoff != 40*time.Millisecond {
		t.Fatalf("backoffs %v/%v, want 20ms/40ms", ce.Attempts[0].Backoff, ce.Attempts[1].Backoff)
	}
	if ce.Attempts[2].Backoff != 0 {
		t.Fatalf("final attempt slept %v after exhaustion", ce.Attempts[2].Backoff)
	}
}

func TestCallBackoffCap(t *testing.T) {
	const ms = time.Millisecond
	for i, want := range []time.Duration{10 * ms, 20 * ms, 25 * ms, 25 * ms} {
		if got := backoff(10*ms, 25*ms, i); got != want {
			t.Fatalf("backoff(10ms, 25ms, %d) = %v, want %v", i, got, want)
		}
	}
	// Default cap: 32×base.
	if got := backoff(ms, 0, 10); got != 32*ms {
		t.Fatalf("default cap gave %v, want 32ms", got)
	}
	// Zero base: no delay at any attempt.
	if got := backoff(0, 0, 5); got != 0 {
		t.Fatalf("zero backoff slept %v", got)
	}
}

func TestCallAtLeastOnceSemantics(t *testing.T) {
	// Under loss of replies (not requests), retries cause the server to
	// perform the request more than once — the §3.5 uncertainty. Count
	// server executions.
	w := guardian.NewWorld(guardian.Config{})
	srv := w.MustAddNode("srv")
	cli := w.MustAddNode("cli")
	execCh := make(chan struct{}, 100)
	w.MustRegister(&guardian.GuardianDef{
		TypeName: "counter_worker",
		Provides: []*guardian.PortType{workType},
		Init: func(ctx *guardian.Ctx) {
			guardian.NewReceiver(ctx.Ports[0]).
				When("work", func(pr *guardian.Process, m *guardian.Message) {
					execCh <- struct{}{}
					if !m.ReplyTo.IsZero() {
						_ = pr.Send(m.ReplyTo, "done", m.Str(0))
					}
				}).
				When("work_sync", func(pr *guardian.Process, m *guardian.Message) {}).
				Loop(ctx.Proc, nil)
		},
	})
	created, err := srv.Bootstrap("counter_worker")
	if err != nil {
		t.Fatal(err)
	}
	// Sever the reply direction only.
	w.Net().SetLink("srv", "cli", &netsim.Config{LossRate: 1.0})
	_, drv, err := cli.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Call(drv, created.Ports[0], doneType,
		CallOptions{Timeout: 30 * time.Millisecond, Retries: 3}, "work", "dup")
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want timeout (replies severed)", err)
	}
	w.Quiesce()
	if got := len(execCh); got != 4 {
		t.Fatalf("server executed request %d times, want 4 (1 + 3 retries)", got)
	}
}
