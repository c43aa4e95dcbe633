package amo_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/amo"
	"repro/internal/guardian"
	"repro/internal/netsim"
	"repro/internal/sendprim"
	"repro/internal/vtime"
	"repro/internal/xrep"
)

// The retrying core (sendprim.Exchange) is written once and reached through
// two front ends. TestCoreContract runs one table of the core's promises
// through both, so neither can drift from the other again.

var (
	echoType  = guardian.NewPortType("contract_echo_port").Msg("work", xrep.KindString).Replies("work", "done")
	echoReply = guardian.NewPortType("contract_echo_reply_port").Msg("done", xrep.KindString)
)

// frontEnd is one way into the core: how to boot a server that answers it,
// how to issue one call, and the sentinels its errors unwrap to.
type frontEnd struct {
	name            string
	serve           func(ctx *guardian.Ctx)
	provides        *guardian.PortType
	call            func(pr *guardian.Process, to xrep.PortName, o sendprim.CallOptions) error
	timeout, failed error
}

var frontEnds = []frontEnd{
	{
		name:     "sendprim.Call",
		provides: echoType,
		serve: func(ctx *guardian.Ctx) {
			for {
				m, st := ctx.Proc.Receive(guardian.Infinite, ctx.Ports[0])
				if st == guardian.RecvKilled {
					return
				}
				if st == guardian.RecvOK && !m.IsFailure() {
					_ = ctx.Proc.Send(m.ReplyTo, "done", m.Str(0))
				}
			}
		},
		call: func(pr *guardian.Process, to xrep.PortName, o sendprim.CallOptions) error {
			_, err := sendprim.Call(pr, to, echoReply, o, "work", "x")
			return err
		},
		timeout: sendprim.ErrCallTimeout, failed: sendprim.ErrCallFailed,
	},
	amoFrontEnd,
}

var amoFrontEnd = frontEnd{
	name:     "amo.Caller",
	provides: amo.ReqType,
	serve: func(ctx *guardian.Ctx) {
		amo.NewDedup(amo.DedupOptions{Metrics: &amo.Metrics{}}).Serve(ctx.Proc,
			func(*guardian.Process, amo.Request) (string, xrep.Seq, bool) { return "done", nil, false }, ctx.Ports[0])
	},
	call: func(pr *guardian.Process, to xrep.PortName, o sendprim.CallOptions) error {
		c, err := amo.NewCaller(pr, amo.CallerOptions{
			Timeout: o.Timeout, Retries: o.Retries, Resolve: o.Resolve,
			Backoff: amo.BackoffPolicy{Base: o.Backoff}, Metrics: &amo.Metrics{},
		})
		if err != nil {
			return err
		}
		defer c.Close()
		_, err = c.Call(to, "work", "x")
		return err
	},
	timeout: amo.ErrTimeout, failed: amo.ErrFailed,
}

// contractWorld is a server on node srv and a driver process on node cli.
type contractWorld struct {
	w    *guardian.World
	port xrep.PortName
	pr   *guardian.Process
}

func (fe frontEnd) deploy(t *testing.T, cfg guardian.Config) contractWorld {
	t.Helper()
	w := guardian.NewWorld(cfg)
	t.Cleanup(func() { _ = w.Close() })
	w.MustRegister(&guardian.GuardianDef{
		TypeName: "contract_server",
		Provides: []*guardian.PortType{fe.provides},
		Init:     fe.serve,
	})
	created, err := w.MustAddNode("srv").Bootstrap("contract_server")
	if err != nil {
		t.Fatal(err)
	}
	_, pr, err := w.MustAddNode("cli").NewDriver("op")
	if err != nil {
		t.Fatal(err)
	}
	return contractWorld{w: w, port: created.Ports[0], pr: pr}
}

// simulated runs call on a virtual clock and returns its error.
func (fe frontEnd) simulated(t *testing.T, tuning guardian.Tuning, call func(cw contractWorld) error) error {
	t.Helper()
	clock := vtime.NewSim(time.Unix(0, 0))
	cw := fe.deploy(t, guardian.Config{Clock: clock, Tuning: tuning})
	cw.w.Net().SetLink("cli", "srv", &netsim.Config{LossRate: 1.0})
	errc := make(chan error, 1)
	go func() { errc <- call(cw) }()
	var err error
	clock.Drive(func() bool {
		select {
		case err = <-errc:
			return true
		default:
			return false
		}
	})
	return err
}

// attemptsOf digs the core's per-attempt records out of either front end's
// exhaustion error.
func attemptsOf(t *testing.T, err error) []sendprim.CallTiming {
	t.Helper()
	var ae *amo.CallError
	if errors.As(err, &ae) {
		return ae.Attempts
	}
	var ce *sendprim.CallError
	if errors.As(err, &ce) {
		return ce.Attempts
	}
	t.Fatalf("err = %v (%T) carries no per-attempt records", err, err)
	return nil
}

func TestCoreContract(t *testing.T) {
	const ms = time.Millisecond
	dead := xrep.PortName{Node: "srv", Guardian: 99, Port: 1}
	rows := []struct {
		name string
		run  func(t *testing.T, fe frontEnd)
	}{
		{"a lossy link is masked within the budget", func(t *testing.T, fe frontEnd) {
			cw := fe.deploy(t, guardian.Config{Net: netsim.Config{Seed: 7, LossRate: 0.5}})
			start := time.Now()
			for i := 0; i < 8; i++ {
				if err := fe.call(cw.pr, cw.port, sendprim.CallOptions{Timeout: 5 * ms, Retries: 40}); err != nil {
					t.Fatalf("call %d under 50%% loss with 40 retries: %v", i, err)
				}
			}
			if el := time.Since(start); el < 5*ms {
				t.Fatalf("8 calls took %v: no attempt ever timed out, so nothing was masked", el)
			}
		}},
		{"a black-holed link exhausts with one record per attempt", func(t *testing.T, fe frontEnd) {
			err := fe.simulated(t, guardian.Tuning{BackoffCap: 25 * ms}, func(cw contractWorld) error {
				return fe.call(cw.pr, cw.port, sendprim.CallOptions{Timeout: 10 * ms, Retries: 4, Backoff: 10 * ms})
			})
			if !errors.Is(err, fe.timeout) {
				t.Fatalf("err = %v, want %v", err, fe.timeout)
			}
			// Waits are elapsed virtual time; backoffs grow 1×, 2×, 4×… of the
			// base up to the world's cap, and the last attempt sleeps none.
			want := []sendprim.CallTiming{
				{Start: 0, Wait: 10 * ms, Backoff: 10 * ms},
				{Start: 20 * ms, Wait: 10 * ms, Backoff: 20 * ms},
				{Start: 50 * ms, Wait: 10 * ms, Backoff: 25 * ms},
				{Start: 85 * ms, Wait: 10 * ms, Backoff: 25 * ms},
				{Start: 120 * ms, Wait: 10 * ms},
			}
			got := attemptsOf(t, err)
			if len(got) != len(want) {
				t.Fatalf("%d records, want Retries+1 = %d: %+v", len(got), len(want), got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("attempt %d = %+v, want %+v", i, got[i], want[i])
				}
			}
		}},
		{"a dead guardian without Resolve fails at once with the failure text", func(t *testing.T, fe frontEnd) {
			cw := fe.deploy(t, guardian.Config{})
			start := time.Now()
			err := fe.call(cw.pr, dead, sendprim.CallOptions{Timeout: 5 * time.Second, Retries: 3})
			if !errors.Is(err, fe.failed) || !strings.Contains(err.Error(), "target guardian doesn't exist") {
				t.Fatalf("err = %v, want %v naming the dead guardian", err, fe.failed)
			}
			if el := time.Since(start); el > time.Second {
				t.Fatalf("failed after %v: the failure report did not end the call", el)
			}
		}},
		{"a dead guardian with Resolve is re-resolved, retried and answered", func(t *testing.T, fe frontEnd) {
			cw := fe.deploy(t, guardian.Config{})
			resolved := 0
			err := fe.call(cw.pr, dead, sendprim.CallOptions{Timeout: 5 * time.Second, Retries: 2,
				Resolve: func() (xrep.PortName, bool) { resolved++; return cw.port, true }})
			if err != nil || resolved != 1 {
				t.Fatalf("err = %v after %d resolutions, want success after 1", err, resolved)
			}
		}},
		{"a killed process returns ErrKilled from the wait", func(t *testing.T, fe frontEnd) {
			fe.killed(t, sendprim.CallOptions{Timeout: 30 * time.Second})
		}},
		{"a killed process returns ErrKilled from the backoff pause", func(t *testing.T, fe frontEnd) {
			fe.killed(t, sendprim.CallOptions{Timeout: 5 * ms, Retries: 1, Backoff: 30 * time.Second})
		}},
		{"zero Timeout waits 100ms instead of polling", func(t *testing.T, fe frontEnd) {
			err := fe.simulated(t, guardian.Tuning{}, func(cw contractWorld) error {
				return fe.call(cw.pr, cw.port, sendprim.CallOptions{})
			})
			if got := attemptsOf(t, err); len(got) != 1 || got[0].Wait != sendprim.DefaultTimeout {
				t.Fatalf("attempts = %+v, want one that waited %v", got, sendprim.DefaultTimeout)
			}
		}},
	}
	for _, fe := range frontEnds {
		for _, row := range rows {
			fe, row := fe, row
			t.Run(fe.name+"/"+row.name, func(t *testing.T) { row.run(t, fe) })
		}
	}
}

// killed black-holes the link, starts a call that o parks in the core, crashes
// the caller's node and wants ErrKilled back promptly.
func (fe frontEnd) killed(t *testing.T, o sendprim.CallOptions) {
	t.Helper()
	cw := fe.deploy(t, guardian.Config{})
	cw.w.Net().SetLink("cli", "srv", &netsim.Config{LossRate: 1.0})
	errc := make(chan error, 1)
	go func() { errc <- fe.call(cw.pr, cw.port, o) }()
	time.Sleep(50 * time.Millisecond)
	cli, err := cw.w.Node("cli")
	if err != nil {
		t.Fatal(err)
	}
	cli.Crash()
	select {
	case err := <-errc:
		if !errors.Is(err, guardian.ErrKilled) {
			t.Fatalf("err = %v, want ErrKilled", err)
		}
	case <-time.After(testTimeout):
		t.Fatal("the call outlived its guardian")
	}
}

// TestStaleSeqIsIgnoredWithoutEndingTheAttempt is the amo-only row: a reply
// echoing another seq is discarded and the same attempt goes on waiting, so
// the real reply 20ms later is accepted with no retry spent.
// (The other amo-only row, redirect budget exhaustion falling back to
// ordinary retries, is TestMovedRedirectExhaustion.)
func TestStaleSeqIsIgnoredWithoutEndingTheAttempt(t *testing.T) {
	fe := amoFrontEnd
	fe.serve = func(ctx *guardian.Ctx) {
		for {
			m, st := ctx.Proc.Receive(guardian.Infinite, ctx.Ports[0])
			if st == guardian.RecvKilled {
				return
			}
			if st != guardian.RecvOK || m.IsFailure() {
				continue
			}
			_ = ctx.Proc.SendSeq(m.ReplyTo, xrep.PortName{}, amo.ReplyCommand,
				xrep.Seq{xrep.Int(m.Int(1) - 1), xrep.Str("stale"), xrep.Seq{}})
			ctx.Proc.Pause(20 * time.Millisecond)
			amo.SendReply(ctx.Proc, m, "fresh", nil)
		}
	}
	cw := fe.deploy(t, guardian.Config{})
	met := &amo.Metrics{}
	c, err := amo.NewCaller(cw.pr, amo.CallerOptions{Timeout: 5 * time.Second, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Call(cw.port, "work", "x")
	if err != nil || rep.Command != "fresh" || met.Retries.Load() != 0 {
		t.Fatalf("reply %v, err %v, %d retries; want the fresh reply from the first attempt", rep, err, met.Retries.Load())
	}
}
