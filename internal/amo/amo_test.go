package amo_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/amo"
	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/netsim"
	"repro/internal/vtime"
	"repro/internal/watchdog"
	"repro/internal/wire"
	"repro/internal/xrep"
)

const testTimeout = 5 * time.Second

// fixture is a two-node world: an "amoserver" guardian on node srv running
// an adding handler behind a Dedup filter, and a driver process on node
// cli. The handler's execution count is the ground truth every
// at-most-once assertion checks against. Besides "add" it serves "get", a
// read it declares read-only, and "stage", a misdeclared read that leaves a
// record in its log's volatile tail.
type fixture struct {
	w       *guardian.World
	srvPort xrep.PortName
	srvID   uint64
	g       *guardian.Guardian
	proc    *guardian.Process
	met     *amo.Metrics

	execs atomic.Int64
	total atomic.Int64
	dch   chan *amo.Dedup
}

// stagedRec is the record "stage" appends: a value no folder claims.
var stagedRec = wire.AppendRecHeader(nil, "test/staged", 0)

func deploy(t *testing.T, net netsim.Config, persist bool) *fixture {
	t.Helper()
	f := &fixture{met: &amo.Metrics{}, dch: make(chan *amo.Dedup, 1)}
	f.w = guardian.NewWorld(guardian.Config{Net: net})
	serve := func(ctx *guardian.Ctx) {
		opts := amo.DedupOptions{Metrics: f.met}
		if persist {
			opts.Log = ctx.G.Log()
		}
		d := amo.NewDedup(opts)
		if ctx.Recovering {
			if _, err := d.Recover(); err != nil {
				panic(err)
			}
		}
		select {
		case f.dch <- d:
		default:
		}
		d.Serve(ctx.Proc, func(pr *guardian.Process, req amo.Request) (string, xrep.Seq, bool) {
			f.execs.Add(1)
			switch req.Command {
			case "add":
				v := f.total.Add(int64(req.Args[0].(xrep.Int)))
				return "sum", xrep.Seq{xrep.Int(v)}, false
			case "get":
				return "sum", xrep.Seq{xrep.Int(f.total.Load())}, true
			case "stage":
				ctx.G.Log().Append(stagedRec)
				return "staged", nil, true
			}
			return "err", xrep.Seq{xrep.Str("unknown " + req.Command)}, false
		}, ctx.Ports[0])
	}
	f.w.MustRegister(&guardian.GuardianDef{
		TypeName: "amoserver",
		Provides: []*guardian.PortType{amo.ReqType},
		Init:     serve,
		Recover:  serve,
	})
	srv := f.w.MustAddNode("srv")
	created, err := srv.Bootstrap("amoserver")
	if err != nil {
		t.Fatal(err)
	}
	f.srvPort, f.srvID = created.Ports[0], created.GuardianID
	cli := f.w.MustAddNode("cli")
	f.g, f.proc, err = cli.NewDriver("op")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// dedup returns the server's current Dedup instance (a fresh one after
// each recovery).
func (f *fixture) dedup(t *testing.T) *amo.Dedup {
	t.Helper()
	select {
	case d := <-f.dch:
		return d
	case <-time.After(testTimeout):
		t.Fatal("server never published its dedup filter")
		return nil
	}
}

func (f *fixture) caller(t *testing.T, opts amo.CallerOptions) *amo.Caller {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = f.met
	}
	c, err := amo.NewCaller(f.proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// request sends one raw amo_req envelope — request id (client, seq), ack
// seq−1 — and returns the reply that arrives on reply.
func (f *fixture) request(t *testing.T, reply *guardian.Port, client string, seq int64, cmd string, args ...xrep.Value) *guardian.Message {
	t.Helper()
	if err := f.proc.SendReplyTo(f.srvPort, reply.Name(), amo.ReqCommand,
		client, seq, seq-1, cmd, append(xrep.Seq{}, args...)); err != nil {
		t.Fatal(err)
	}
	m, st := f.proc.Receive(testTimeout, reply)
	if st != guardian.RecvOK {
		t.Fatalf("%s seq %d: receive %v", cmd, seq, st)
	}
	return m
}

// replyInt reads the first outcome argument of an amo_reply envelope.
func replyInt(m *guardian.Message) int64 {
	return int64(m.Args[2].(xrep.Seq)[0].(xrep.Int))
}

// restart crashes the server node, brings it back and drains the dedup
// instance its recovery published.
func (f *fixture) restart(t *testing.T) {
	t.Helper()
	srv, err := f.w.Node("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv.Crash()
	if err := srv.Restart(); err != nil {
		t.Fatal(err)
	}
	f.dedup(t)
}

// serverLog returns the server guardian's log and its node's store.
func (f *fixture) serverLog(t *testing.T) (durable.Log, durable.Store) {
	t.Helper()
	srv, err := f.w.Node("srv")
	if err != nil {
		t.Fatal(err)
	}
	g, ok := srv.GuardianByID(f.srvID)
	if !ok {
		t.Fatal("server guardian is not running")
	}
	return g.Log(), srv.Store()
}

// backoffTotal sums the backoff a failed call slept between its attempts.
func backoffTotal(ce *amo.CallError) (d time.Duration) {
	for _, a := range ce.Attempts {
		d += a.Backoff
	}
	return d
}

func TestCallRoundTrip(t *testing.T) {
	f := deploy(t, netsim.Config{}, false)
	c := f.caller(t, amo.CallerOptions{Timeout: time.Second})
	for i, want := range []int64{5, 12} {
		r, err := c.Call(f.srvPort, "add", int64([]int64{5, 7}[i]))
		if err != nil {
			t.Fatal(err)
		}
		if r.Command != "sum" || r.Int(0) != want {
			t.Fatalf("call %d: %s %v", i, r.Command, r.Args)
		}
	}
	if n := f.execs.Load(); n != 2 {
		t.Fatalf("handler executed %d times, want 2", n)
	}
	if n := f.met.Calls.Load(); n != 2 {
		t.Fatalf("Calls = %d, want 2", n)
	}
}

// TestAtMostOnceUnderLossAndDup is the layer's core claim: under heavy
// loss AND duplication every logical call executes exactly once.
func TestAtMostOnceUnderLossAndDup(t *testing.T) {
	f := deploy(t, netsim.Config{
		Seed: 42, LossRate: 0.25, DupRate: 0.25,
		BaseLatency: 500 * time.Microsecond,
	}, false)
	c := f.caller(t, amo.CallerOptions{
		Timeout: 25 * time.Millisecond,
		Retries: 30,
		Backoff: amo.BackoffPolicy{Base: 2 * time.Millisecond, Jitter: 0.5},
	})
	const calls = 40
	for i := 0; i < calls; i++ {
		r, err := c.Call(f.srvPort, "add", int64(1))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if r.Command != "sum" {
			t.Fatalf("call %d: %s %v", i, r.Command, r.Args)
		}
	}
	if n := f.execs.Load(); n != calls {
		t.Fatalf("handler executed %d times for %d logical calls", n, calls)
	}
	if n := f.total.Load(); n != calls {
		t.Fatalf("total = %d, want %d", n, calls)
	}
	// A 25%-loss 25%-dup network that caused zero retries and zero dedups
	// over 40+ messages means fault injection is broken.
	if f.met.Retries.Load()+f.met.CallsDeduped.Load() == 0 {
		t.Fatal("no retries and no dedups under 25% loss + 25% dup")
	}
}

// TestReplayAnsweredFromCache sends the same request id twice, raw: the
// second delivery must yield the cached reply without re-execution.
func TestReplayAnsweredFromCache(t *testing.T) {
	f := deploy(t, netsim.Config{}, false)
	reply := f.g.MustNewPort(amo.ReplyType, 16)
	for i := 0; i < 2; i++ {
		if m := f.request(t, reply, "c1", 1, "add", xrep.Int(5)); m.Int(0) != 1 || m.Str(1) != "sum" || replyInt(m) != 5 {
			t.Fatalf("delivery %d: %v %v", i, m.Command, m.Args)
		}
	}
	if n := f.execs.Load(); n != 1 {
		t.Fatalf("handler executed %d times, want 1", n)
	}
	if n := f.met.RepliesReplayed.Load(); n != 1 {
		t.Fatalf("RepliesReplayed = %d, want 1", n)
	}
}

// TestAckWatermarkPrunes: a sequential caller's acks keep the server's
// cached-reply table at one entry per client.
func TestAckWatermarkPrunes(t *testing.T) {
	f := deploy(t, netsim.Config{}, false)
	d := f.dedup(t)
	c := f.caller(t, amo.CallerOptions{Timeout: time.Second})
	for i := 0; i < 5; i++ {
		if _, err := c.Call(f.srvPort, "add", int64(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Call n carries ack n-1, so after 5 calls exactly the 5th reply
	// remains cached.
	if n := d.Cached(c.Client()); n != 1 {
		t.Fatalf("cached replies = %d, want 1", n)
	}
}

// TestBackoffSpacesRetries: a black-holed link must cost
// timeout+backoff per attempt, and the error must carry the accounting.
func TestBackoffSpacesRetries(t *testing.T) {
	f := deploy(t, netsim.Config{}, false)
	f.w.Net().SetLink("cli", "srv", &netsim.Config{LossRate: 1.0})
	c := f.caller(t, amo.CallerOptions{
		Timeout: 10 * time.Millisecond,
		Retries: 2,
		Backoff: amo.BackoffPolicy{Base: 20 * time.Millisecond},
	})
	start := time.Now()
	_, err := c.Call(f.srvPort, "add", int64(1))
	elapsed := time.Since(start)
	if !errors.Is(err, amo.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	var ce *amo.CallError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not *CallError", err)
	}
	if len(ce.Attempts) != 3 {
		t.Fatalf("attempts = %d, want 3", len(ce.Attempts))
	}
	// 3 × 10ms waits + 20ms + 40ms backoffs ⇒ ≥ 90ms.
	if want := 85 * time.Millisecond; elapsed < want {
		t.Fatalf("elapsed %v, want ≥ %v", elapsed, want)
	}
	if got := backoffTotal(ce); got != 60*time.Millisecond {
		t.Fatalf("backoff total = %v, want 60ms", got)
	}
	if n := f.met.RetryBackoffTotal.Load(); n != int64(60*time.Millisecond) {
		t.Fatalf("RetryBackoffTotal = %d", n)
	}
}

// TestBackoffJitterStaysInBounds: with equal jitter each delay lands in
// [d/2, d], so two backoffs of nominal 20ms and 40ms total 30–60ms.
func TestBackoffJitterStaysInBounds(t *testing.T) {
	f := deploy(t, netsim.Config{}, false)
	f.w.Net().SetLink("cli", "srv", &netsim.Config{LossRate: 1.0})
	c := f.caller(t, amo.CallerOptions{
		Timeout: 5 * time.Millisecond,
		Retries: 2,
		Backoff: amo.BackoffPolicy{Base: 20 * time.Millisecond, Jitter: 0.5},
		Seed:    7,
	})
	_, err := c.Call(f.srvPort, "add", int64(1))
	var ce *amo.CallError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v", err)
	}
	if got := backoffTotal(ce); got < 30*time.Millisecond || got > 60*time.Millisecond {
		t.Fatalf("jittered backoff total %v outside [30ms, 60ms]", got)
	}
}

func TestCircuitOpenFailsFast(t *testing.T) {
	f := deploy(t, netsim.Config{}, false)
	h, err := amo.NewHealth(f.g)
	if err != nil {
		t.Fatal(err)
	}
	c := f.caller(t, amo.CallerOptions{
		Timeout: time.Second,
		Retries: 5,
		Health:  h,
	})
	h.MarkDown("srv")
	start := time.Now()
	_, err = c.Call(f.srvPort, "add", int64(1))
	if !errors.Is(err, amo.ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("circuit-open call took %v, not fast", elapsed)
	}
	if n := f.met.CircuitOpen.Load(); n != 1 {
		t.Fatalf("CircuitOpen = %d, want 1", n)
	}
	h.MarkUp("srv")
	if _, err := c.Call(f.srvPort, "add", int64(1)); err != nil {
		t.Fatalf("call after MarkUp: %v", err)
	}
}

// TestHealthFollowsWatchdog wires the breaker to a real watchdog: crash
// the server node, the breaker opens; restart it, the breaker closes.
func TestHealthFollowsWatchdog(t *testing.T) {
	f := deploy(t, netsim.Config{}, false)
	f.w.MustRegister(watchdog.Def())
	mon := f.w.MustAddNode("monitor")
	wd, err := mon.Bootstrap(watchdog.DefName, int64(20), int64(2))
	if err != nil {
		t.Fatal(err)
	}
	h, err := amo.NewHealth(f.g)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Subscribe(f.proc, wd.Ports[0], time.Second); err != nil {
		t.Fatal(err)
	}
	wdReply := f.g.MustNewPort(watchdog.ClientReplyType, 4)
	if err := f.proc.SendReplyTo(wd.Ports[0], wdReply.Name(), "watch", "srv"); err != nil {
		t.Fatal(err)
	}
	if m, st := f.proc.Receive(testTimeout, wdReply); st != guardian.RecvOK || m.Command != "watching" {
		t.Fatalf("watch: %v", st)
	}

	waitDown := func(want bool) {
		deadline := time.Now().Add(testTimeout)
		for time.Now().Before(deadline) {
			if h.Down("srv") == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("health never reported down=%v for srv", want)
	}

	c := f.caller(t, amo.CallerOptions{Timeout: time.Second, Health: h})
	if _, err := c.Call(f.srvPort, "add", int64(1)); err != nil {
		t.Fatal(err)
	}

	srvNode, _ := f.w.Node("srv")
	srvNode.Crash()
	waitDown(true)
	if _, err := c.Call(f.srvPort, "add", int64(1)); !errors.Is(err, amo.ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}

	if err := srvNode.Restart(); err != nil {
		t.Fatal(err)
	}
	waitDown(false)
	if _, err := c.Call(f.srvPort, "add", int64(1)); err != nil {
		t.Fatalf("call after recovery: %v", err)
	}
}

// TestDedupSurvivesCrash: with a stable log, a request executed before the
// crash is answered from the recovered cache afterwards — never
// re-executed.
func TestDedupSurvivesCrash(t *testing.T) {
	f := deploy(t, netsim.Config{}, true)
	f.dedup(t) // drain the pre-crash instance
	reply := f.g.MustNewPort(amo.ReplyType, 16)
	if m := f.request(t, reply, "c9", 1, "add", xrep.Int(5)); m.Str(1) != "sum" || replyInt(m) != 5 {
		t.Fatalf("first reply: %v", m.Args)
	}

	f.restart(t)

	if m := f.request(t, reply, "c9", 1, "add", xrep.Int(5)); m.Str(1) != "sum" || replyInt(m) != 5 {
		t.Fatalf("replayed reply: %v", m.Args)
	}
	if n := f.execs.Load(); n != 1 {
		t.Fatalf("handler executed %d times across the crash, want 1", n)
	}
	if n := f.met.RepliesReplayed.Load(); n < 1 {
		t.Fatalf("RepliesReplayed = %d, want ≥ 1", n)
	}
}

// TestReadOnlyReplyCachedNotLogged: a read the handler declares ReadOnly
// is cached like any reply — a live duplicate is answered from the cache
// without running the handler again — but it writes nothing to the log and
// forces nothing.
func TestReadOnlyReplyCachedNotLogged(t *testing.T) {
	f := deploy(t, netsim.Config{}, true)
	reply := f.g.MustNewPort(amo.ReplyType, 16)
	f.request(t, reply, "r1", 1, "add", xrep.Int(5))
	log, store := f.serverLog(t)
	syncs := store.SyncCount()

	for i := 0; i < 2; i++ {
		if m := f.request(t, reply, "r1", 2, "get"); m.Int(0) != 2 || m.Str(1) != "sum" || replyInt(m) != 5 {
			t.Fatalf("delivery %d: %v %v", i, m.Command, m.Args)
		}
	}
	if n := f.execs.Load(); n != 2 {
		t.Fatalf("handler executed %d times for one add and one read, want 2", n)
	}
	if n := f.met.RepliesReplayed.Load(); n != 1 {
		t.Fatalf("RepliesReplayed = %d, want 1", n)
	}
	if n := log.VolatileLen(); n != 0 {
		t.Fatalf("the read left %d volatile records", n)
	}
	if n := store.SyncCount(); n != syncs {
		t.Fatalf("the read forced the log: SyncCount %d → %d", syncs, n)
	}
}

// TestReadOnlyReexecutedAfterCrash: a read's reply was never logged, so
// after a crash its retry runs the handler again against the recovered
// state — harmless, because the read applies nothing.
func TestReadOnlyReexecutedAfterCrash(t *testing.T) {
	f := deploy(t, netsim.Config{}, true)
	f.dedup(t)
	reply := f.g.MustNewPort(amo.ReplyType, 16)
	f.request(t, reply, "r2", 1, "add", xrep.Int(5))
	if m := f.request(t, reply, "r2", 2, "get"); replyInt(m) != 5 {
		t.Fatalf("read before the crash: %v", m.Args)
	}

	f.restart(t)
	// Move the state on, so a reply of 7 can only come from running the
	// read again, not from the pre-crash answer of 5.
	f.total.Add(2)

	if m := f.request(t, reply, "r2", 2, "get"); m.Int(0) != 2 || replyInt(m) != 7 {
		t.Fatalf("retried read after the crash: %v %v, want sum 7", m.Command, m.Args)
	}
	if n := f.execs.Load(); n != 3 {
		t.Fatalf("handler executed %d times, want 3 (add, read, re-executed read)", n)
	}
	if n := f.met.RepliesReplayed.Load(); n != 0 {
		t.Fatalf("RepliesReplayed = %d, want 0", n)
	}
}

// TestReadOnlyWithVolatileTailIsLogged: a read that finishes while the log
// holds a volatile tail — here one its misdeclared handler appended — is
// logged and forced like a write, so its reply survives the crash and its
// retry is answered from the recovered cache.
func TestReadOnlyWithVolatileTailIsLogged(t *testing.T) {
	f := deploy(t, netsim.Config{}, true)
	f.dedup(t)
	reply := f.g.MustNewPort(amo.ReplyType, 16)
	log, store := f.serverLog(t)
	syncs := store.SyncCount()

	if m := f.request(t, reply, "r3", 1, "stage"); m.Str(1) != "staged" {
		t.Fatalf("stage: %v", m.Args)
	}
	if n := log.VolatileLen(); n != 0 {
		t.Fatalf("%d records still volatile after the reply", n)
	}
	if n := store.SyncCount(); n != syncs+1 {
		t.Fatalf("SyncCount %d → %d, want one forced write", syncs, n)
	}

	f.restart(t)

	if m := f.request(t, reply, "r3", 1, "stage"); m.Str(1) != "staged" {
		t.Fatalf("retried stage: %v", m.Args)
	}
	if n := f.execs.Load(); n != 1 {
		t.Fatalf("handler executed %d times across the crash, want 1", n)
	}
	if n := f.met.RepliesReplayed.Load(); n != 1 {
		t.Fatalf("RepliesReplayed = %d, want 1", n)
	}
}

// TestCallerSequential: a second in-flight call on one Caller is refused.
func TestCallerSequential(t *testing.T) {
	f := deploy(t, netsim.Config{}, false)
	f.w.Net().SetLink("cli", "srv", &netsim.Config{LossRate: 1.0})
	c := f.caller(t, amo.CallerOptions{Timeout: 300 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(f.srvPort, "add", int64(1))
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	if _, err := c.Call(f.srvPort, "add", int64(1)); !errors.Is(err, amo.ErrBusy) {
		t.Fatalf("concurrent call: %v, want ErrBusy", err)
	}
	if err := <-done; !errors.Is(err, amo.ErrTimeout) {
		t.Fatalf("first call: %v", err)
	}
}

// TestMovedRedirectExhaustion pins the redirect budget's failure edge
// with a server that answers every request by redirecting to itself.
// Once the budget is spent the Caller must fall back to ordinary retries
// and surface ErrTimeout — OutcomeMoved is routing vocabulary, and must
// never reach the application as a final Reply.
func TestMovedRedirectExhaustion(t *testing.T) {
	w := guardian.NewWorld(guardian.Config{})
	defer func() { _ = w.Close() }()
	w.MustRegister(&guardian.GuardianDef{
		TypeName: "movedloop",
		Provides: []*guardian.PortType{amo.ReqType},
		Init: func(ctx *guardian.Ctx) {
			self := ctx.Ports[0].Name()
			guardian.NewReceiver(ctx.Ports[0]).
				When(amo.ReqCommand, func(pr *guardian.Process, m *guardian.Message) {
					amo.SendMoved(pr, m, self, 99)
				}).
				Loop(ctx.Proc, nil)
		},
	})
	srv := w.MustAddNode("srv")
	created, err := srv.Bootstrap("movedloop")
	if err != nil {
		t.Fatal(err)
	}
	cli := w.MustAddNode("cli")
	_, proc, err := cli.NewDriver("op")
	if err != nil {
		t.Fatal(err)
	}
	met := &amo.Metrics{}
	c, err := amo.NewCaller(proc, amo.CallerOptions{
		Timeout: 50 * time.Millisecond,
		Retries: 2,
		Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rep, err := c.Call(created.Ports[0], "add", int64(1))
	if err == nil {
		t.Fatalf("redirect loop returned a final reply %q %v; want an error", rep.Command, rep.Args)
	}
	if !errors.Is(err, amo.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if n := met.Redirects.Load(); n < amo.MaxRedirects {
		t.Fatalf("Redirects = %d, want the full budget of %d burnt", n, amo.MaxRedirects)
	}
}

// TestRedirectIsNotARetry: Retries counts re-sends that spent the retry
// budget, Redirects the followed amo_moved replies; a redirect's re-send is
// progress and must not show up as a retry. The server drops request 1,
// redirects request 2 to itself and answers request 3.
func TestRedirectIsNotARetry(t *testing.T) {
	w := guardian.NewWorld(guardian.Config{})
	defer func() { _ = w.Close() }()
	w.MustRegister(&guardian.GuardianDef{
		TypeName: "dropmoveok",
		Provides: []*guardian.PortType{amo.ReqType},
		Init: func(ctx *guardian.Ctx) {
			self := ctx.Ports[0].Name()
			for n := 0; ; {
				m, st := ctx.Proc.Receive(time.Second, ctx.Ports[0])
				if st == guardian.RecvKilled {
					return
				}
				if st != guardian.RecvOK || m.IsFailure() {
					continue
				}
				switch n++; n {
				case 1: // dropped
				case 2:
					amo.SendMoved(ctx.Proc, m, self, 1)
				default:
					amo.SendReply(ctx.Proc, m, "ok", nil)
				}
			}
		},
	})
	created, err := w.MustAddNode("srv").Bootstrap("dropmoveok")
	if err != nil {
		t.Fatal(err)
	}
	_, proc, err := w.MustAddNode("cli").NewDriver("op")
	if err != nil {
		t.Fatal(err)
	}
	met := &amo.Metrics{}
	c, err := amo.NewCaller(proc, amo.CallerOptions{Timeout: 50 * time.Millisecond, Retries: 2, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if rep, err := c.Call(created.Ports[0], "add", int64(1)); err != nil || rep.Command != "ok" {
		t.Fatalf("call: %v %v", rep, err)
	}
	if r, d := met.Retries.Load(), met.Redirects.Load(); r != 1 || d != 1 {
		t.Fatalf("Retries = %d, Redirects = %d; want 1 and 1 (one timeout, one followed redirect)", r, d)
	}
}

// TestCallErrorWaitedIsElapsedPerAttempt: each attempt's Wait reports how long each
// failed attempt actually waited on the clock, not the configured timeout.
// The first attempt reaches a node that answers at once with a failure
// (no such guardian) and ends after one round trip; the re-resolved second
// goes to a node that is not there and runs out its timeout.
func TestCallErrorWaitedIsElapsedPerAttempt(t *testing.T) {
	const latency, timeout = time.Millisecond, 10 * time.Second
	clock := vtime.NewSim(time.Unix(0, 0))
	w := guardian.NewWorld(guardian.Config{Clock: clock, Net: netsim.Config{BaseLatency: latency}})
	defer w.Close()
	w.MustAddNode("srv")
	_, proc, err := w.MustAddNode("cli").NewDriver("op")
	if err != nil {
		t.Fatal(err)
	}
	dead := xrep.PortName{Node: "srv", Guardian: 99, Port: 1}
	c, err := amo.NewCaller(proc, amo.CallerOptions{
		Timeout: timeout,
		Retries: 1,
		Metrics: &amo.Metrics{},
		Resolve: func() (xrep.PortName, bool) { return xrep.PortName{Node: "nowhere", Guardian: 1, Port: 1}, true },
	})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.Call(dead, "add", int64(1))
		errc <- err
	}()
	var callErr error
	clock.Drive(func() bool {
		select {
		case callErr = <-errc:
			return true
		default:
			return false
		}
	})
	var ce *amo.CallError
	if !errors.As(callErr, &ce) {
		t.Fatalf("err = %v, want a *CallError", callErr)
	}
	if len(ce.Attempts) != 2 || ce.Attempts[0].Wait != 2*latency || ce.Attempts[1].Wait != timeout {
		t.Fatalf("Attempts = %+v, want waits [%v %v]: one round trip to the failure reply, then a full timeout", ce.Attempts, 2*latency, timeout)
	}
}
