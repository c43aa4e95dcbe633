package bank_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/guardian"
	"repro/internal/nameserv"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sendprim"
	"repro/internal/tpc"
	"repro/internal/vtime"
	"repro/internal/xrep"
)

// amoCallAllocCeiling is what one at-most-once deposit may allocate, end to
// end on both nodes: the measured 30 plus one, because guardianbench's bound
// on call_small allocs_per_op (+3 %) is about one allocation.
const amoCallAllocCeiling = 31

// amoReadAllocCeiling is what one at-most-once balance read may allocate:
// the measured 28 plus one. It sits under amoCallAllocCeiling because a
// read writes no records.
const amoReadAllocCeiling = 29

// sendprimCallAllocCeiling is what one sendprim.Call echo round trip may
// allocate, end to end on both nodes: the measured 15 plus one.
const sendprimCallAllocCeiling = 16

// measureAmoCall opens an account on a branch behind a netsim transport,
// then reports what one warm at-most-once call of cmd on it allocates, end
// to end on both nodes, against ceiling.
func measureAmoCall(t *testing.T, ceiling int, cmd, want string, args ...any) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	clock := vtime.NewReal()
	w := guardian.NewWorld(guardian.Config{
		Clock:     clock,
		Transport: netsim.New(clock, netsim.Config{Seed: 1}),
	})
	defer w.Close()
	w.MustRegister(bank.BranchDef())
	cr, err := w.MustAddNode("branch").Bootstrap(bank.BranchDefName)
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := w.MustAddNode("cli").NewDriver("teller")
	if err != nil {
		t.Fatal(err)
	}
	c, err := amo.NewCaller(drv, amo.CallerOptions{Timeout: 5 * time.Second, Metrics: &amo.Metrics{}})
	if err != nil {
		t.Fatal(err)
	}
	amoPort := cr.Ports[1]
	if rep, err := c.Call(amoPort, "open", "acct"); err != nil || rep.Command != bank.OutcomeOK {
		t.Fatalf("open: %v %v", rep, err)
	}
	call := func() {
		rep, err := c.Call(amoPort, cmd, args...)
		if err != nil || rep.Command != want {
			t.Fatalf("%s: %v %v", cmd, rep, err)
		}
	}
	for i := 0; i < 200; i++ {
		call() // warm the pools, port fifos and log arrays
	}
	n := testing.AllocsPerRun(2000, call)
	t.Logf("one amo %s allocates %.1f times", cmd, n)
	if n > float64(ceiling) {
		t.Errorf("one amo %s allocates %.1f times, ceiling %d", cmd, n, ceiling)
	}
}

// TestAmoCallAllocCeiling pins the whole call path's allocation count —
// caller envelope, send, netsim transit, decode, dispatch, receive, dedup,
// op and dedup records, reply and back — so a tree-building encoder or a
// per-receive waiter cannot return unnoticed. The figure counts every
// goroutine's allocations, so it is comparable to guardianbench's
// call_small allocs_per_op less the periodic checkpoint.
func TestAmoCallAllocCeiling(t *testing.T) {
	measureAmoCall(t, amoCallAllocCeiling, "deposit", bank.OutcomeOK, "acct", int64(1))
}

// TestAmoReadAllocCeiling pins the read path the same way: the same
// envelope, dispatch and reply, but no op record, no dedup record and no
// log copy.
func TestAmoReadAllocCeiling(t *testing.T) {
	measureAmoCall(t, amoReadAllocCeiling, "balance", "balance_is", "acct")
}

// escrowRoundAllocCeiling is what one 2PC round against a shard branch may
// allocate: a prepare, its yes vote, the commit and its ack, end to end on
// both nodes — the measured 29, which repeats exactly (54 while each escrow
// step built, marshalled and folded a record tree and each reply boxed the
// txid again). The figure counts each round's growth of the participant's
// table; it is ring_mixed's split-transfer path less the coordinator.
const escrowRoundAllocCeiling = 29

// TestEscrowRoundAllocCeiling pins the participant path ring_mixed's split
// transfers take: a driver's prepare → vote_yes → commit → ack_commit round
// against a shard branch over netsim, each round a distinct transaction.
func TestEscrowRoundAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	clock := vtime.NewReal()
	w := guardian.NewWorld(guardian.Config{
		Clock:     clock,
		Transport: netsim.New(clock, netsim.Config{Seed: 1}),
	})
	defer w.Close()
	w.MustRegister(bank.BranchDef())
	cr, err := w.MustAddNode("s1").Bootstrap(bank.BranchDefName, bank.ShardArg("s1"))
	if err != nil {
		t.Fatal(err)
	}
	g, drv, err := w.MustAddNode("cli").NewDriver("coord")
	if err != nil {
		t.Fatal(err)
	}
	native := cr.Ports[0]
	client := g.MustNewPort(bank.ClientReplyType, 4)
	votes := g.MustNewPort(tpc.CoordReplyType, 4)
	for _, args := range [][]any{{"open", "acct"}, {"deposit", "acct", int64(1 << 40), "fund"}} {
		if err := drv.SendReplyTo(native, client.Name(), args[0].(string), args[1:]...); err != nil {
			t.Fatal(err)
		}
		if m, st := drv.Receive(5*time.Second, client); st != guardian.RecvOK || m.Command != bank.OutcomeOK {
			t.Fatalf("%s: %v %v", args[0], st, m)
		}
	}
	const warm, runs = 200, 400
	txids := make([]string, warm+runs+1)
	for i := range txids {
		txids[i] = fmt.Sprintf("cli/tx%06d", i)
	}
	op := bank.EscrowOp("debit", "acct", 1)
	next := 0
	step := func(cmd string, args ...any) string {
		if err := drv.SendReplyTo(native, votes.Name(), cmd, args...); err != nil {
			t.Fatal(err)
		}
		m, st := drv.Receive(5*time.Second, votes)
		if st != guardian.RecvOK {
			t.Fatalf("%s: %v", cmd, st)
		}
		return m.Command
	}
	round := func() {
		txid := txids[next]
		next++
		step("prepare", txid, op)
		// Only a prepared transaction acks a commit: the ack is the yes vote's.
		if got := step("commit", txid); got != "ack_commit" {
			t.Fatalf("commit %s: %s", txid, got)
		}
	}
	for i := 0; i < warm; i++ {
		round()
	}
	n := testing.AllocsPerRun(runs, round)
	t.Logf("one escrow round allocates %.1f times", n)
	if n > escrowRoundAllocCeiling {
		t.Errorf("one escrow round allocates %.1f times, ceiling %d", n, escrowRoundAllocCeiling)
	}
}

// crossShardTransferAllocCeiling is what one cross-shard Router.Transfer
// may allocate, end to end on every node: the router's begin, the
// coordinator's prepares and commits, both shards' four escrow steps, six
// forced records and the outcome back — the measured 101, which repeats
// exactly (185 before escrow records were written field by field and the
// txid was boxed once per transaction).
const crossShardTransferAllocCeiling = 101

// TestCrossShardTransferAllocCeiling pins the 2PC path ring_mixed's split
// transfers take, coordinator included: a Router over a two-shard ring
// moving one unit between accounts on different shards, over netsim.
func TestCrossShardTransferAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	clock := vtime.NewReal()
	w := guardian.NewWorld(guardian.Config{
		Clock:     clock,
		Transport: netsim.New(clock, netsim.Config{Seed: 1}),
	})
	defer w.Close()
	w.MustRegister(bank.BranchDef())
	w.MustRegister(nameserv.Def())
	w.MustRegister(tpc.CoordinatorDef())
	nsCr, err := w.MustAddNode("registry").Bootstrap(nameserv.DefName)
	if err != nil {
		t.Fatal(err)
	}
	coCr, err := w.MustAddNode("coordinator").Bootstrap(tpc.CoordinatorDefName)
	if err != nil {
		t.Fatal(err)
	}
	var members []ring.Member
	for _, s := range []string{"s1", "s2"} {
		cr, err := w.MustAddNode(s).Bootstrap(bank.BranchDefName, bank.ShardArg(s))
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, ring.Member{Name: s, Native: cr.Ports[0], Amo: cr.Ports[1]})
	}
	_, drv, err := w.MustAddNode("cli").NewDriver("router")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := nameserv.NewClient(drv, nsCr.Ports[0])
	if err != nil {
		t.Fatal(err)
	}
	r := ring.New("accounts", 0, members...)
	if err := bank.Bootstrap(drv, r, bank.RebalanceOptions{NS: ns}); err != nil {
		t.Fatal(err)
	}
	rt, err := bank.NewRouter(drv, bank.RouterOptions{
		NS: ns, RingName: "accounts", Coordinator: coCr.Ports[0],
		Call: amo.CallerOptions{Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	from, to := accountsOwnedBy(r, "s1", "x", 1)[0], accountsOwnedBy(r, "s2", "y", 1)[0]
	for _, acct := range []string{from, to} {
		if rep, err := rt.Call(acct, "open", acct); err != nil || rep.Command != bank.OutcomeOK {
			t.Fatalf("open %s: %v %v", acct, rep, err)
		}
	}
	if rep, err := rt.Call(from, "deposit", from, int64(1<<40)); err != nil || rep.Command != bank.OutcomeOK {
		t.Fatalf("deposit: %v %v", rep, err)
	}
	transfer := func() {
		if out, err := rt.Transfer(from, to, 1); err != nil || out != bank.OutcomeOK {
			t.Fatalf("transfer: %q %v", out, err)
		}
	}
	for i := 0; i < 100; i++ {
		transfer()
	}
	n := testing.AllocsPerRun(300, transfer)
	t.Logf("one cross-shard transfer allocates %.1f times", n)
	if n > crossShardTransferAllocCeiling {
		t.Errorf("one cross-shard transfer allocates %.1f times, ceiling %d", n, crossShardTransferAllocCeiling)
	}
}

var echoType = guardian.NewPortType("alloc_echo_port").Msg("echo", xrep.KindString).Replies("echo", "echoed")

var echoReplyType = guardian.NewPortType("alloc_echo_reply_port").Msg("echoed", xrep.KindString)

// TestSendprimCallAllocCeiling pins the bare remote transaction send the
// same way: ephemeral reply port, one encode, send, transit, dispatch, the
// echo's reply and back. It is the path under guardianbench's
// sendprim.call_ns_per_op probe and ring_mixed's 2PC begin.
func TestSendprimCallAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	clock := vtime.NewReal()
	w := guardian.NewWorld(guardian.Config{
		Clock:     clock,
		Transport: netsim.New(clock, netsim.Config{Seed: 1}),
	})
	defer w.Close()
	w.MustRegister(&guardian.GuardianDef{
		TypeName: "alloc_echo",
		Provides: []*guardian.PortType{echoType},
		Init: func(ctx *guardian.Ctx) {
			for {
				m, st := ctx.Proc.Receive(guardian.Infinite, ctx.Ports[0])
				if st == guardian.RecvKilled {
					return
				}
				if st == guardian.RecvOK && !m.IsFailure() {
					_ = ctx.Proc.Send(m.ReplyTo, "echoed", m.Str(0))
				}
			}
		},
	})
	cr, err := w.MustAddNode("srv").Bootstrap("alloc_echo")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := w.MustAddNode("cli").NewDriver("caller")
	if err != nil {
		t.Fatal(err)
	}
	opts := sendprim.CallOptions{Timeout: 5 * time.Second, Retries: 1}
	args := []any{"payload"}
	echo := func() {
		m, err := sendprim.Call(drv, cr.Ports[0], echoReplyType, opts, "echo", args...)
		if err != nil || m.Command != "echoed" {
			t.Fatalf("echo: %v %v", m, err)
		}
	}
	for i := 0; i < 200; i++ {
		echo()
	}
	n := testing.AllocsPerRun(2000, echo)
	t.Logf("one sendprim.Call echo allocates %.1f times", n)
	if n > sendprimCallAllocCeiling {
		t.Errorf("one sendprim.Call echo allocates %.1f times, ceiling %d", n, sendprimCallAllocCeiling)
	}
}
