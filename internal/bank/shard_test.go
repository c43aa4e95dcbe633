package bank_test

// Integration tests for the sharded bank: a consistent-hash ring of
// branch guardians behind the nameserver's membership service, with live
// rebalancing (join/leave) driven under client traffic. The invariants
// audited here are the same three the DST ring workload sweeps:
// conservation (no money minted or burned by a migration), exactly-once
// (every acked op applied exactly once, even when its retry crosses an
// epoch flip), and single-owner-per-epoch (each account served by exactly
// the shard the committed ring names).

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/fault"
	"repro/internal/guardian"
	"repro/internal/nameserv"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sendprim"
	"repro/internal/tpc"
	"repro/internal/xrep"
)

const shardTestTimeout = 5 * time.Second

// shardCluster is a world with a nameserver, a 2PC coordinator, and a set
// of shard-mode branches, one per node so they can crash independently.
type shardCluster struct {
	t       *testing.T
	w       *guardian.World
	nsPort  xrep.PortName
	coord   xrep.PortName
	ringNm  string
	nodes   map[string]*guardian.Node
	created map[string]*guardian.Created
	members map[string]ring.Member
	drv     *guardian.Node
	drivers int
}

func deployShardCluster(t *testing.T, net netsim.Config, shards ...string) *shardCluster {
	t.Helper()
	return deployShardClusterWith(t, net, nil, shards...)
}

// deployShardClusterWith is deployShardCluster with each node's crash hook.
func deployShardClusterWith(t *testing.T, net netsim.Config, crash func(node string) fault.Hook, shards ...string) *shardCluster {
	t.Helper()
	w := guardian.NewWorld(guardian.Config{Net: net, Crash: crash, Tuning: guardian.Tuning{BackoffCap: 30 * time.Millisecond}})
	t.Cleanup(func() { _ = w.Close() })
	w.MustRegister(bank.BranchDef())
	w.MustRegister(nameserv.Def())
	w.MustRegister(tpc.CoordinatorDef())

	reg := w.MustAddNode("registry")
	nsCr, err := reg.Bootstrap(nameserv.DefName)
	if err != nil {
		t.Fatal(err)
	}
	con := w.MustAddNode("coordinator")
	coCr, err := con.Bootstrap(tpc.CoordinatorDefName)
	if err != nil {
		t.Fatal(err)
	}
	c := &shardCluster{
		t: t, w: w,
		nsPort:  nsCr.Ports[0],
		coord:   coCr.Ports[0],
		ringNm:  "accounts",
		nodes:   map[string]*guardian.Node{"registry": reg, "coordinator": con},
		created: make(map[string]*guardian.Created),
		members: make(map[string]ring.Member),
	}
	for _, s := range shards {
		c.addShard(s)
	}
	c.drv = w.MustAddNode("drivers")
	return c
}

// addShard boots one shard-mode branch on its own node.
func (c *shardCluster) addShard(name string) ring.Member {
	c.t.Helper()
	n := c.w.MustAddNode(name)
	cr, err := n.Bootstrap(bank.BranchDefName, bank.ShardArg(name))
	if err != nil {
		c.t.Fatal(err)
	}
	m := ring.Member{Name: name, Native: cr.Ports[0], Amo: cr.Ports[1]}
	c.nodes[name] = n
	c.created[name] = cr
	c.members[name] = m
	return m
}

// driver makes a fresh client process with a nameserver handle.
func (c *shardCluster) driver() (*guardian.Process, *nameserv.Client) {
	c.t.Helper()
	c.drivers++
	_, pr, err := c.drv.NewDriver(fmt.Sprintf("drv-%d", c.drivers))
	if err != nil {
		c.t.Fatal(err)
	}
	ns, err := nameserv.NewClient(pr, c.nsPort)
	if err != nil {
		c.t.Fatal(err)
	}
	return pr, ns
}

// bootstrapRing commits epoch 1 over the named shards.
func (c *shardCluster) bootstrapRing(shards ...string) *ring.Ring {
	c.t.Helper()
	ms := make([]ring.Member, 0, len(shards))
	for _, s := range shards {
		ms = append(ms, c.members[s])
	}
	r := ring.New(c.ringNm, 0, ms...)
	pr, ns := c.driver()
	if err := bank.Bootstrap(pr, r, bank.RebalanceOptions{NS: ns}); err != nil {
		c.t.Fatal(err)
	}
	return r
}

// router builds one client-side Router with its own amo session.
func (c *shardCluster) router() *bank.Router {
	c.t.Helper()
	pr, ns := c.driver()
	rt, err := bank.NewRouter(pr, bank.RouterOptions{
		NS:          ns,
		RingName:    c.ringNm,
		Coordinator: c.coord,
		Call: amo.CallerOptions{
			Timeout: 50 * time.Millisecond,
			Retries: 40,
			Backoff: amo.BackoffPolicy{Base: 2 * time.Millisecond, Jitter: 0.5},
		},
	})
	if err != nil {
		c.t.Fatal(err)
	}
	return rt
}

// sync pings every shard's native port and returns only after each has
// answered — the receive establishes a happens-before edge with all state
// the shard wrote earlier, so the snapshots below are race-free.
func (c *shardCluster) sync(shards ...string) {
	c.t.Helper()
	pr, _ := c.driver()
	for _, s := range shards {
		_, err := sendprim.Call(pr, c.members[s].Native, bank.MigrateReplyType,
			sendprim.CallOptions{Timeout: 100 * time.Millisecond, Retries: 20, Backoff: 5 * time.Millisecond},
			"handoff_status", "sync-probe")
		if err != nil {
			c.t.Fatalf("sync %s: %v", s, err)
		}
	}
}

// snapshot reads one shard's member name, adopted epoch, and accounts.
func (c *shardCluster) snapshot(shard string) (int64, map[string]int64) {
	c.t.Helper()
	g, ok := c.nodes[shard].GuardianByID(c.created[shard].GuardianID)
	if !ok {
		c.t.Fatalf("shard %s guardian missing", shard)
	}
	member, epoch, accts, ok := bank.ShardSnapshot(g)
	if !ok || member != shard {
		c.t.Fatalf("shard %s snapshot: member=%q ok=%v", shard, member, ok)
	}
	return epoch, accts
}

// auditPlacement asserts single-owner-per-epoch: every shard has adopted
// exactly r.Epoch and every account lives on exactly the shard r names.
// It returns the cluster-wide balance total for conservation checks.
func (c *shardCluster) auditPlacement(r *ring.Ring, shards []string, accounts []string) int64 {
	c.t.Helper()
	c.sync(shards...)
	where := make(map[string]string)
	var total int64
	for _, s := range shards {
		epoch, accts := c.snapshot(s)
		if epoch != r.Epoch {
			c.t.Errorf("shard %s adopted epoch %d, committed ring is %d", s, epoch, r.Epoch)
		}
		for a, bal := range accts {
			if prev, dup := where[a]; dup {
				c.t.Errorf("account %s present on both %s and %s", a, prev, s)
			}
			where[a] = s
			total += bal
		}
	}
	for _, a := range accounts {
		owner, ok := r.Owner(a)
		if !ok {
			c.t.Fatalf("ring has no owner for %s", a)
		}
		if where[a] != owner.Name {
			c.t.Errorf("account %s on shard %q, ring epoch %d owns it to %q", a, where[a], r.Epoch, owner.Name)
		}
	}
	return total
}

// accountsOwnedBy generates keys until n of them hash to member.
func accountsOwnedBy(r *ring.Ring, member, prefix string, n int) []string {
	var out []string
	for i := 0; len(out) < n && i < 100000; i++ {
		k := fmt.Sprintf("%s-%04d", prefix, i)
		if m, ok := r.Owner(k); ok && m.Name == member {
			out = append(out, k)
		}
	}
	return out
}

// mustOK fails the test unless the reply outcome is ok.
func mustOK(t *testing.T, rep *amo.Reply, err error, what string) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if rep.Command != bank.OutcomeOK {
		t.Fatalf("%s: outcome %s", what, rep.Command)
	}
}

// TestRingShardedOpsAndPlacement opens accounts through the Router and
// checks every one landed on — and is served by — the ring-assigned shard.
func TestRingShardedOpsAndPlacement(t *testing.T) {
	shards := []string{"s1", "s2", "s3"}
	c := deployShardCluster(t, netsim.Config{Seed: 1}, shards...)
	r := c.bootstrapRing(shards...)
	rt := c.router()
	defer rt.Close()

	var accounts []string
	var want int64
	for i := 0; i < 30; i++ {
		a := fmt.Sprintf("acct-%02d", i)
		accounts = append(accounts, a)
		rep, err := rt.Call(a, "open", a)
		mustOK(t, rep, err, "open "+a)
		amt := int64(10 * (i + 1))
		rep, err = rt.Call(a, "deposit", a, amt)
		mustOK(t, rep, err, "deposit "+a)
		want += amt
	}
	for i, a := range accounts {
		rep, err := rt.Call(a, "balance", a)
		if err != nil || rep.Command != "balance_is" || rep.Int(0) != int64(10*(i+1)) {
			t.Fatalf("balance %s: %v %v", a, rep, err)
		}
	}
	if total := c.auditPlacement(r, shards, accounts); total != want {
		t.Errorf("conservation: cluster total %d, deposited %d", total, want)
	}
	// Placement must spread: with 64 vnodes no shard should be empty.
	for _, s := range shards {
		if _, accts := c.snapshot(s); len(accts) == 0 {
			t.Errorf("shard %s owns no accounts out of %d", s, len(accounts))
		}
	}
}

// TestShardSeedIsCapped: a seed asking for more accounts than the cap is
// answered with nothing created; one under it creates what it asks for.
func TestShardSeedIsCapped(t *testing.T) {
	c := deployShardCluster(t, netsim.Config{}, "s1")
	c.bootstrapRing("s1")
	pr, _ := c.driver()
	seed := func(n int64) (created, total int64) {
		t.Helper()
		rep, err := sendprim.Call(pr, c.members["s1"].Native, bank.MigrateReplyType,
			sendprim.CallOptions{Timeout: 100 * time.Millisecond, Retries: 20, Backoff: 5 * time.Millisecond},
			"seed", "acct", n, int64(100))
		if err != nil || rep.Command != "seeded" {
			t.Fatalf("seed %d: %v %v", n, rep, err)
		}
		return rep.Int(0), rep.Int(1)
	}
	if created, total := seed(1 << 30); created != 0 || total != 0 {
		t.Fatalf("an over-cap seed created %d accounts (total %d), want none", created, total)
	}
	if created, total := seed(3); created != 3 || total != 3 {
		t.Fatalf("seed 3: created %d, total %d", created, total)
	}
	if _, accts := c.snapshot("s1"); len(accts) != 3 {
		t.Fatalf("shard holds %d accounts, want 3", len(accts))
	}
}

// TestRingCrossShardTransfer routes a transfer whose accounts live on
// different shards through the 2PC escrow path, and a same-shard pair
// through the single amo op.
func TestRingCrossShardTransfer(t *testing.T) {
	shards := []string{"s1", "s2"}
	c := deployShardCluster(t, netsim.Config{Seed: 2}, shards...)
	r := c.bootstrapRing(shards...)
	rt := c.router()
	defer rt.Close()

	a := accountsOwnedBy(r, "s1", "x", 2)
	b := accountsOwnedBy(r, "s2", "y", 1)
	for _, acct := range []string{a[0], a[1], b[0]} {
		rep, err := rt.Call(acct, "open", acct)
		mustOK(t, rep, err, "open "+acct)
	}
	rep, err := rt.Call(a[0], "deposit", a[0], int64(500))
	mustOK(t, rep, err, "seed")

	// Cross-shard: coordinator-run escrow legs.
	out, err := rt.Transfer(a[0], b[0], 200)
	if err != nil || out != bank.OutcomeOK {
		t.Fatalf("cross-shard transfer: %q %v", out, err)
	}
	// Same-shard: one amo transfer.
	out, err = rt.Transfer(a[0], a[1], 100)
	if err != nil || out != bank.OutcomeOK {
		t.Fatalf("same-shard transfer: %q %v", out, err)
	}
	// Overdraw cross-shard: the debit participant votes no.
	out, err = rt.Transfer(a[0], b[0], 10_000)
	if err != nil || out != tpc.OutcomeAborted {
		t.Fatalf("overdraw should abort: %q %v", out, err)
	}

	for acct, want := range map[string]int64{a[0]: 200, a[1]: 100, b[0]: 200} {
		rep, err := rt.Call(acct, "balance", acct)
		if err != nil || rep.Command != "balance_is" || rep.Int(0) != want {
			t.Fatalf("balance %s: %v %v (want %d)", acct, rep, err, want)
		}
	}
	if total := c.auditPlacement(r, shards, []string{a[0], a[1], b[0]}); total != 500 {
		t.Errorf("conservation: total %d after transfers, want 500", total)
	}
}

// TestRingRebalanceJoinUnderTraffic grows a 3-shard ring to 4 while
// concurrent tellers keep depositing, then audits conservation,
// exactly-once, and single-owner-per-epoch against the tellers' ledgers.
func TestRingRebalanceJoinUnderTraffic(t *testing.T) {
	shards := []string{"s1", "s2", "s3"}
	c := deployShardCluster(t, netsim.Config{Seed: 3, BaseLatency: 100 * time.Microsecond}, shards...)
	r1 := c.bootstrapRing(shards...)

	const tellers = 4
	const perTeller = 6
	const seedBal = 1000

	setup := c.router()
	var accounts []string
	for i := 0; i < tellers*perTeller; i++ {
		a := fmt.Sprintf("acct-%03d", i)
		accounts = append(accounts, a)
		rep, err := setup.Call(a, "open", a)
		mustOK(t, rep, err, "open "+a)
		rep, err = setup.Call(a, "deposit", a, int64(seedBal))
		mustOK(t, rep, err, "seed "+a)
	}
	setup.Close()

	// Tellers hammer deposits while the ring grows underneath them.
	okDeposits := make([]map[string]int64, tellers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for ti := 0; ti < tellers; ti++ {
		rt := c.router()
		mine := accounts[ti*perTeller : (ti+1)*perTeller]
		okDeposits[ti] = make(map[string]int64)
		wg.Add(1)
		go func(ti int, rt *bank.Router, mine []string) {
			defer wg.Done()
			defer rt.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a := mine[i%len(mine)]
				rep, err := rt.Call(a, "deposit", a, int64(10))
				if err != nil {
					t.Errorf("teller %d: deposit %s: %v", ti, a, err)
					return
				}
				if rep.Command != bank.OutcomeOK {
					t.Errorf("teller %d: deposit %s: %s", ti, a, rep.Command)
					return
				}
				okDeposits[ti][a] += 10
			}
		}(ti, rt, mine)
	}

	// Let traffic establish, then join s4 live.
	time.Sleep(50 * time.Millisecond)
	m4 := c.addShard("s4")
	pr, ns := c.driver()
	r2, err := bank.Join(pr, c.ringNm, m4, bank.RebalanceOptions{NS: ns})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if r2.Epoch != r1.Epoch+1 {
		t.Fatalf("join produced epoch %d, want %d", r2.Epoch, r1.Epoch+1)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Exactly-once: each account's balance equals its seed plus exactly
	// the deposits its teller saw acked — a double-applied retry (e.g. one
	// re-routed across the epoch flip) or a lost op would both break this.
	shards = append(shards, "s4")
	audit := c.router()
	defer audit.Close()
	var want int64
	for ti := 0; ti < tellers; ti++ {
		for _, a := range accounts[ti*perTeller : (ti+1)*perTeller] {
			exp := int64(seedBal) + okDeposits[ti][a]
			want += exp
			rep, err := audit.Call(a, "balance", a)
			if err != nil || rep.Command != "balance_is" {
				t.Fatalf("balance %s: %v %v", a, rep, err)
			}
			if got := rep.Int(0); got != exp {
				t.Errorf("exactly-once: %s balance %d, ledger says %d", a, got, exp)
			}
		}
	}
	if total := c.auditPlacement(r2, shards, accounts); total != want {
		t.Errorf("conservation: cluster total %d, ledgers say %d", total, want)
	}
}

// TestRingLeaveDrainsShard removes a member and checks its whole range
// moved and the leaver serves only redirects afterwards.
func TestRingLeaveDrainsShard(t *testing.T) {
	shards := []string{"s1", "s2", "s3"}
	c := deployShardCluster(t, netsim.Config{Seed: 4}, shards...)
	r1 := c.bootstrapRing(shards...)
	rt := c.router()
	defer rt.Close()

	var accounts []string
	for i := 0; i < 24; i++ {
		a := fmt.Sprintf("acct-%03d", i)
		accounts = append(accounts, a)
		rep, err := rt.Call(a, "open", a)
		mustOK(t, rep, err, "open "+a)
		rep, err = rt.Call(a, "deposit", a, int64(100))
		mustOK(t, rep, err, "seed "+a)
	}

	pr, ns := c.driver()
	r2, err := bank.Leave(pr, c.ringNm, "s2", bank.RebalanceOptions{NS: ns})
	if err != nil {
		t.Fatalf("leave: %v", err)
	}
	if r2.Epoch != r1.Epoch+1 {
		t.Fatalf("leave produced epoch %d", r2.Epoch)
	}
	c.sync("s1", "s2", "s3")
	if _, accts := c.snapshot("s2"); len(accts) != 0 {
		t.Errorf("leaver still holds %d accounts: %v", len(accts), accts)
	}
	// The drained member still answers with redirects, so a stale client
	// that cached its port converges instead of erroring.
	if total := c.auditPlacement(r2, []string{"s1", "s3"}, accounts); total != 24*100 {
		t.Errorf("conservation: total %d after drain, want %d", total, 24*100)
	}
	for _, a := range accounts {
		rep, err := rt.Call(a, "balance", a)
		if err != nil || rep.Command != "balance_is" || rep.Int(0) != 100 {
			t.Fatalf("post-drain balance %s: %v %v", a, rep, err)
		}
	}
}

// TestRingMidCallMigrationNoDoubleApply is the epoch-flip retry audit:
// a call executes at the old owner, its reply is lost, the range
// migrates, and the retry — carrying the SAME request id — lands first on
// the old owner (which must redirect without executing) and then on the
// new owner (which must answer from the migrated dedup state without
// re-executing). The account must be credited exactly once.
func TestRingMidCallMigrationNoDoubleApply(t *testing.T) {
	shards := []string{"s1", "s2"}
	c := deployShardCluster(t, netsim.Config{Seed: 5}, shards...)
	r1 := c.bootstrapRing(shards...)

	acct := accountsOwnedBy(r1, "s1", "mig", 1)[0]
	rt := c.router()
	defer rt.Close()
	rep, err := rt.Call(acct, "open", acct)
	mustOK(t, rep, err, "open")

	// Hand-rolled amo envelope so the test controls the request id.
	g, pr, err := c.drv.NewDriver("mig-client")
	if err != nil {
		t.Fatal(err)
	}
	reply, err := g.NewPort(amo.ReplyType, 8)
	if err != nil {
		t.Fatal(err)
	}
	deposit := func(to xrep.PortName, seq int64) (string, xrep.Seq) {
		t.Helper()
		if err := pr.SendReplyTo(to, reply.Name(), amo.ReqCommand,
			"mig-session", seq, int64(0), "deposit", xrep.Seq{xrep.Str(acct), xrep.Int(100)}); err != nil {
			t.Fatal(err)
		}
		m, st := pr.Receive(shardTestTimeout, reply)
		if st != guardian.RecvOK {
			t.Fatalf("receive: %v", st)
		}
		if m.Int(0) != seq {
			t.Fatalf("seq echo %d, want %d", m.Int(0), seq)
		}
		return m.Str(1), m.Args[2].(xrep.Seq)
	}

	// 1. The call executes at the old owner; pretend the reply was lost.
	if out, _ := deposit(c.members["s1"].Amo, 1); out != bank.OutcomeOK {
		t.Fatalf("initial deposit: %s", out)
	}

	// 2. The range migrates: s1 leaves, everything moves to s2.
	pr2, ns := c.driver()
	r2, err := bank.Leave(pr2, c.ringNm, "s1", bank.RebalanceOptions{NS: ns})
	if err != nil {
		t.Fatalf("leave: %v", err)
	}

	// 3. The retry hits the old owner: a moved redirect naming the new
	// owner and its epoch — regenerable routing state, never an effect.
	out, args := deposit(c.members["s1"].Amo, 1)
	if out != amo.OutcomeMoved {
		t.Fatalf("retry at old owner: %s, want %s", out, amo.OutcomeMoved)
	}
	movedTo, ok := args[0].(xrep.PortName)
	if !ok || movedTo != c.members["s2"].Amo {
		t.Fatalf("redirect names %v, want s2's amo port", args[0])
	}
	if ep, ok := args[1].(xrep.Int); !ok || int64(ep) != r2.Epoch {
		t.Fatalf("redirect epoch %v, want %d", args[1], r2.Epoch)
	}

	// 4. Following the redirect must hit the dedup state that traveled
	// with the range: same cached outcome, no second execution.
	if out, _ := deposit(c.members["s2"].Amo, 1); out != bank.OutcomeOK {
		t.Fatalf("retry at new owner: %s", out)
	}
	rep, err = rt.Call(acct, "balance", acct)
	if err != nil || rep.Command != "balance_is" || rep.Int(0) != 100 {
		t.Fatalf("double-apply: balance %v %v, want exactly 100", rep, err)
	}

	// 5. The Caller path end to end: a session whose Resolve still pins
	// the OLD owner (a cached resolution across the epoch flip). The
	// moved redirect inside the Caller must override the stale resolve —
	// with the same request id — and the op must apply exactly once.
	stale, err := amo.NewCaller(pr2, amo.CallerOptions{
		Timeout: 50 * time.Millisecond,
		Retries: 20,
		Backoff: amo.BackoffPolicy{Base: 2 * time.Millisecond},
		Resolve: func() (xrep.PortName, bool) { return c.members["s1"].Amo, true },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	srep, err := stale.Call(c.members["s1"].Amo, "withdraw", acct, int64(30))
	if err != nil || srep.Command != bank.OutcomeOK {
		t.Fatalf("stale-resolve withdraw: %v %v", srep, err)
	}
	rep, err = rt.Call(acct, "balance", acct)
	if err != nil || rep.Int(0) != 70 {
		t.Fatalf("post-withdraw balance %v %v, want 70", rep, err)
	}
	c.auditPlacement(r2, []string{"s2"}, []string{acct})
}

// TestRingCoordinatorCrashBetweenPrepareAndCommit pins a cross-shard
// transfer in the 2PC danger window: both participants — on different
// shards — have voted yes and the decision is logged, but the commit
// never reaches the debit leg before the coordinator dies. Recovery must
// re-drive the decision and drain the prepared slot deterministically:
// the escrow hold releases, the debit applies exactly once, and the
// re-announced commit to the already-committed leg is a no-op.
func TestRingCoordinatorCrashBetweenPrepareAndCommit(t *testing.T) {
	// Hold s2 in its prepared state: the hook fires after the durable
	// prepare, the test severs coordinator→s2 before letting the yes vote
	// out, so the decision can never reach this leg.
	prepared := make(chan string, 1)
	release := make(chan struct{})
	var once sync.Once
	crash := func(node string) fault.Hook {
		if node != "s2" {
			return nil
		}
		return func(point, txid string) {
			if point != fault.AfterPrepare {
				return
			}
			once.Do(func() {
				prepared <- txid
				<-release
			})
		}
	}
	shards := []string{"s1", "s2"}
	c := deployShardClusterWith(t, netsim.Config{Seed: 7}, crash, shards...)
	r1 := c.bootstrapRing(shards...)
	rt := c.router()
	defer rt.Close()

	a := accountsOwnedBy(r1, "s1", "cr", 1)[0] // credit leg
	b := accountsOwnedBy(r1, "s2", "db", 1)[0] // debit leg, holds the escrow
	for _, acct := range []string{a, b} {
		rep, err := rt.Call(acct, "open", acct)
		mustOK(t, rep, err, "open "+acct)
	}
	rep, err := rt.Call(b, "deposit", b, int64(500))
	mustOK(t, rep, err, "seed")

	done := make(chan string, 1)
	go func() {
		out, err := rt.Transfer(b, a, 200)
		if err != nil {
			t.Errorf("transfer: %v", err)
		}
		done <- out
	}()
	select {
	case <-prepared:
		// Sever only the decision path: the yes vote (s2→coordinator)
		// still flows, the commit (coordinator→s2) cannot.
		c.w.Net().SetLink("coordinator", "s2", &netsim.Config{LossRate: 1.0})
		close(release)
	case <-time.After(shardTestTimeout):
		t.Fatal("debit leg never prepared")
	}

	out := <-done
	if t.Failed() {
		return
	}
	if out != bank.OutcomeOK {
		t.Fatalf("transfer outcome %q, want committed", out)
	}

	// The decision is durable at the coordinator and applied on the
	// credit leg, but s2 still holds the escrow: its balance is intact
	// and the hold blocks spending into the prepared amount.
	rep, err = rt.Call(b, "balance", b)
	if err != nil || rep.Int(0) != 500 {
		t.Fatalf("debit leg balance %v %v, want 500 (commit severed)", rep, err)
	}
	rep, err = rt.Call(b, "withdraw", b, int64(400))
	if err != nil || rep.Command != bank.OutcomeInsufficient {
		t.Fatalf("withdraw into the hold: %v %v, want insufficient", rep, err)
	}

	// Kill the coordinator in the window, heal the network, recover. Its
	// log shows tx decided but unsettled; recovery re-drives the commit.
	c.nodes["coordinator"].Crash()
	c.w.Net().SetLink("coordinator", "s2", nil)
	if err := c.nodes["coordinator"].Restart(); err != nil {
		t.Fatalf("coordinator restart: %v", err)
	}
	deadline := time.Now().Add(shardTestTimeout)
	for {
		rep, err = rt.Call(b, "balance", b)
		if err == nil && rep.Command == "balance_is" && rep.Int(0) == 300 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("debit leg never drained after recovery: %v %v", rep, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Hold fully released: the remaining balance is spendable to zero.
	rep, err = rt.Call(b, "withdraw", b, int64(300))
	mustOK(t, rep, err, "post-drain withdraw")
	// Re-announced commit on the already-committed credit leg was a
	// no-op: credited exactly once.
	rep, err = rt.Call(a, "balance", a)
	if err != nil || rep.Int(0) != 200 {
		t.Fatalf("credit leg %v %v, want exactly 200", rep, err)
	}
	if total := c.auditPlacement(r1, shards, []string{a, b}); total != 200 {
		t.Errorf("conservation: total %d, want 200", total)
	}
}

// TestRingLatePrepareAfterAbortVotesNo: an abort that overtakes its prepare
// on a shard's native port is remembered, so the late prepare votes no and
// escrows nothing — also after a crash — and the whole balance stays
// spendable. Acking the abort without a record let the late prepare hold the
// amount for good: withdrawals came back insufficient and every handoff cut
// of the range came back busy.
func TestRingLatePrepareAfterAbortVotesNo(t *testing.T) {
	c := deployShardCluster(t, netsim.Config{}, "s1")
	c.bootstrapRing("s1")
	rt := c.router()
	defer rt.Close()
	rep, err := rt.Call("acct", "open", "acct")
	mustOK(t, rep, err, "open")
	rep, err = rt.Call("acct", "deposit", "acct", int64(100))
	mustOK(t, rep, err, "deposit")

	pr, _ := c.driver()
	votes := pr.Guardian().MustNewPort(tpc.CoordReplyType, 8)
	step := func(want, cmd string, args ...any) {
		t.Helper()
		if err := pr.SendReplyTo(c.members["s1"].Native, votes.Name(), cmd, args...); err != nil {
			t.Fatal(err)
		}
		m, st := pr.Receive(shardTestTimeout, votes)
		if st != guardian.RecvOK || m.Command != want {
			t.Fatalf("%s: %v %v, want %s", cmd, st, m, want)
		}
	}
	step("ack_abort", "abort", "late")
	step("vote_no", "prepare", "late", bank.EscrowOp("debit", "acct", 3))
	c.nodes["s1"].Crash()
	if err := c.nodes["s1"].Restart(); err != nil {
		t.Fatal(err)
	}
	step("vote_no", "prepare", "late", bank.EscrowOp("debit", "acct", 3))
	rep, err = rt.Call("acct", "withdraw", "acct", int64(100))
	mustOK(t, rep, err, "withdraw the whole balance")
}

// movingAccounts generates keys owned by from under r1 that r2 hands to
// to — the witnesses of one planned move.
func movingAccounts(r1, r2 *ring.Ring, from, to, prefix string, n int) []string {
	var out []string
	for i := 0; len(out) < n && i < 100000; i++ {
		k := fmt.Sprintf("%s-%04d", prefix, i)
		o1, ok1 := r1.Owner(k)
		o2, ok2 := r2.Owner(k)
		if ok1 && ok2 && o1.Name == from && o2.Name == to {
			out = append(out, k)
		}
	}
	return out
}

// TestRingAmnesicRepullAfterCut pins the destination-crash-before-install
// window. Played puller-by-hand so the window is deterministic: client
// traffic mutates the moving range, the source cuts durably and ships the
// whole range in its reply — and the destination never installs it (the
// reply died with it). The source retains the range it cut until the
// driver's ack, so a repeated cut re-offers the same range and the
// re-driven rebalance installs it exactly once.
func TestRingAmnesicRepullAfterCut(t *testing.T) {
	shards := []string{"s1", "s2"}
	c := deployShardCluster(t, netsim.Config{Seed: 8}, shards...)
	r1 := c.bootstrapRing(shards...)
	m3 := c.addShard("s3")
	r2, err := r1.WithJoin(m3)
	if err != nil {
		t.Fatal(err)
	}

	moving := movingAccounts(r1, r2, "s1", "s3", "mv", 3)
	staying := accountsOwnedBy(r1, "s2", "st", 2)
	if len(moving) < 3 || len(staying) < 2 {
		t.Fatalf("placement found %d moving / %d staying accounts", len(moving), len(staying))
	}
	all := append(append([]string{}, moving...), staying...)
	rt := c.router()
	defer rt.Close()
	for _, a := range all {
		rep, err := rt.Call(a, "open", a)
		mustOK(t, rep, err, "open "+a)
		rep, err = rt.Call(a, "deposit", a, int64(50))
		mustOK(t, rep, err, "seed "+a)
	}
	// Traffic on the moving range right up to the cut: the cut reads the
	// accounts as they stand, so nothing trails it.
	for _, a := range moving {
		rep, err := rt.Call(a, "deposit", a, int64(7))
		mustOK(t, rep, err, "late deposit "+a)
	}

	// Cut, as the destination's puller would.
	hid := bank.HandoffID(c.ringNm, r2.Epoch, "s1", "s3")
	blob := string(r2.Marshal())
	pr, _ := c.driver()
	opts := sendprim.CallOptions{Timeout: 200 * time.Millisecond, Retries: 20, Backoff: 5 * time.Millisecond}
	src := c.members["s1"].Native
	cut := func() xrep.Seq {
		t.Helper()
		cm, err := sendprim.Call(pr, src, bank.MigrateReplyType, opts, "migrate_cut", hid, blob, "s3")
		if err != nil || cm.Command != "cut_done" {
			t.Fatalf("migrate_cut: %v %v", cm, err)
		}
		return cm.Seq(0)
	}
	shipped := cut()
	if len(shipped) != len(moving) {
		t.Fatalf("the cut shipped %v, want the %d moving accounts", shipped, len(moving))
	}
	for _, e := range shipped {
		if bal := e.(xrep.Seq)[1]; bal != xrep.Int(57) {
			t.Errorf("the cut shipped %v, want balance 57 (a deposit made before the cut missed it?)", e)
		}
	}
	if again := cut(); !reflect.DeepEqual(again, shipped) {
		t.Fatalf("a repeated cut shipped %v, want the retained %v", again, shipped)
	}

	// The install never happens — the destination is amnesiac. The
	// re-driven rebalance re-pulls the already-cut range; with the tail
	// folded into the durable final, it must be applied exactly once.
	pr2, ns := c.driver()
	if err := bank.Rebalance(pr2, r2, bank.RebalanceOptions{NS: ns}); err != nil {
		t.Fatalf("re-driven rebalance: %v", err)
	}
	for _, a := range moving {
		rep, err := rt.Call(a, "balance", a)
		if err != nil || rep.Command != "balance_is" {
			t.Fatalf("balance %s: %v %v", a, rep, err)
		}
		if got := rep.Int(0); got != 57 {
			t.Errorf("exactly-once: %s balance %d, want 57 (tail applied twice?)", a, got)
		}
	}
	want := int64(len(all)) * 50
	want += int64(len(moving)) * 7
	if total := c.auditPlacement(r2, []string{"s1", "s2", "s3"}, all); total != want {
		t.Errorf("conservation: cluster total %d, want %d", total, want)
	}
	// The driver acked the source, which dropped the range: a late cut
	// request is refused, not answered with a range that may have moved on.
	cm, err := sendprim.Call(pr, src, bank.MigrateReplyType, opts, "migrate_cut", hid, blob, "s3")
	if err != nil || cm.Command != "migrate_denied" {
		t.Fatalf("cut after the ack: %v %v, want migrate_denied", cm, err)
	}
}

// TestRingCutWaitsForPreparedEscrow: a cut is refused while a prepared
// escrow debit pins a moving account, so a commit can never land after
// the range has shipped. Once the transaction commits, the cut ships the
// debited balance, and a prepare that arrives after the cut votes no: the
// account is no longer the source's.
func TestRingCutWaitsForPreparedEscrow(t *testing.T) {
	shards := []string{"s1", "s2"}
	c := deployShardCluster(t, netsim.Config{Seed: 10}, shards...)
	r1 := c.bootstrapRing(shards...)
	r2, err := r1.WithJoin(c.addShard("s3"))
	if err != nil {
		t.Fatal(err)
	}
	moving := movingAccounts(r1, r2, "s1", "s3", "pin", 1)
	if len(moving) == 0 {
		t.Fatal("placement found no account moving s1>s3")
	}
	a := moving[0]
	rt := c.router()
	defer rt.Close()
	rep, err := rt.Call(a, "open", a)
	mustOK(t, rep, err, "open "+a)
	rep, err = rt.Call(a, "deposit", a, int64(100))
	mustOK(t, rep, err, "deposit "+a)

	pr, _ := c.driver()
	opts := sendprim.CallOptions{Timeout: 200 * time.Millisecond, Retries: 20, Backoff: 5 * time.Millisecond}
	src := c.members["s1"].Native
	escrow := func(want, cmd string, args ...any) {
		t.Helper()
		m, err := sendprim.Call(pr, src, tpc.CoordReplyType, opts, cmd, args...)
		if err != nil || m.Command != want {
			t.Fatalf("%s %v: %v %v, want %s", cmd, args, m, err, want)
		}
	}
	hid := bank.HandoffID(c.ringNm, r2.Epoch, "s1", "s3")
	cut := func() *guardian.Message {
		t.Helper()
		cm, err := sendprim.Call(pr, src, bank.MigrateReplyType, opts, "migrate_cut", hid, string(r2.Marshal()), "s3")
		if err != nil {
			t.Fatalf("migrate_cut: %v", err)
		}
		return cm
	}

	escrow("vote_yes", "prepare", "pin/tx1", bank.EscrowOp("debit", a, 30))
	if cm := cut(); cm.Command != "cut_busy" {
		t.Fatalf("cut with a prepared debit on %s: %s, want cut_busy", a, cm.Command)
	}
	escrow("ack_commit", "commit", "pin/tx1")
	cm := cut()
	if cm.Command != "cut_done" {
		t.Fatalf("cut after the commit: %s, want cut_done", cm.Command)
	}
	want := xrep.Seq{xrep.Seq{xrep.Str(a), xrep.Int(70)}}
	if got := cm.Seq(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("the cut shipped %v, want %v", got, want)
	}
	escrow("vote_no", "prepare", "pin/tx2", bank.EscrowOp("debit", a, 1))
}

// TestRingTransferSplitWindowAborts parks a transfer in the cut→commit
// window: the source has durably cut a range toward the joiner (so it
// answers split for pairs straddling the pending epoch) while the
// committed ring the Router plans against still co-locates both accounts.
// Transfer must report the abort outcome its callers know to retry, never
// the raw amo_split routing constant.
func TestRingTransferSplitWindowAborts(t *testing.T) {
	shards := []string{"s1", "s2"}
	c := deployShardCluster(t, netsim.Config{Seed: 9}, shards...)
	r1 := c.bootstrapRing(shards...)
	m3 := c.addShard("s3")
	r2, err := r1.WithJoin(m3)
	if err != nil {
		t.Fatal(err)
	}
	stay := movingAccounts(r1, r2, "s1", "s1", "sw", 1)
	move := movingAccounts(r1, r2, "s1", "s3", "sw", 1)
	if len(stay) == 0 || len(move) == 0 {
		t.Fatalf("placement found no witness pair (stay=%d move=%d)", len(stay), len(move))
	}
	rt := c.router()
	defer rt.Close()
	for _, a := range []string{stay[0], move[0]} {
		rep, err := rt.Call(a, "open", a)
		mustOK(t, rep, err, "open "+a)
	}
	rep, err := rt.Call(stay[0], "deposit", stay[0], int64(100))
	mustOK(t, rep, err, "seed")

	// Cut the moving range by hand and stop: no install, no commit — the
	// window stays open for the whole Transfer below.
	hid := bank.HandoffID(c.ringNm, r2.Epoch, "s1", "s3")
	pr, _ := c.driver()
	opts := sendprim.CallOptions{Timeout: 200 * time.Millisecond, Retries: 20, Backoff: 5 * time.Millisecond}
	src := c.members["s1"].Native
	cm, err := sendprim.Call(pr, src, bank.MigrateReplyType, opts, "migrate_cut", hid, string(r2.Marshal()), "s3")
	if err != nil || cm.Command != "cut_done" {
		t.Fatalf("migrate_cut: %v %v", cm, err)
	}

	out, err := rt.Transfer(stay[0], move[0], 10)
	if err != nil {
		t.Fatalf("transfer in the split window: %v", err)
	}
	if out == amo.OutcomeSplit {
		t.Fatalf("Transfer leaked the raw %s routing constant", amo.OutcomeSplit)
	}
	if out != tpc.OutcomeAborted {
		t.Fatalf("split-window transfer outcome %q, want %q", out, tpc.OutcomeAborted)
	}
	// The window never closes in this test, so the money must not move.
	rep, err = rt.Call(stay[0], "balance", stay[0])
	if err != nil || rep.Int(0) != 100 {
		t.Fatalf("balance after aborted transfer: %v %v, want 100", rep, err)
	}
}

// TestRingSourceCrashAfterCut kills the handoff source right after its
// durable cut and lets it recover: whatever cut reply died with it, the
// next pull is re-offered the whole range from the durable moved_out
// record, so the rebalance still converges with nothing lost or doubled.
func TestRingSourceCrashAfterCut(t *testing.T) {
	cut := make(chan struct{}, 1)
	crash := func(node string) fault.Hook {
		if node != "s1" {
			return nil
		}
		return func(point, _ string) {
			if point != fault.AfterCut {
				return
			}
			select {
			case cut <- struct{}{}:
			default:
			}
		}
	}
	shards := []string{"s1", "s2"}
	c := deployShardClusterWith(t, netsim.Config{Seed: 6}, crash, shards...)
	c.bootstrapRing(shards...)

	rt := c.router()
	defer rt.Close()
	var accounts []string
	for i := 0; i < 16; i++ {
		a := fmt.Sprintf("acct-%03d", i)
		accounts = append(accounts, a)
		rep, err := rt.Call(a, "open", a)
		mustOK(t, rep, err, "open "+a)
		rep, err = rt.Call(a, "deposit", a, int64(50))
		mustOK(t, rep, err, "seed "+a)
	}

	// s3 joins; s1 will cut ranges toward it. Crash s1 at its first cut.
	m3 := c.addShard("s3")
	joinErr := make(chan error, 1)
	pr, ns := c.driver()
	go func() {
		_, err := bank.Join(pr, c.ringNm, m3, bank.RebalanceOptions{NS: ns})
		joinErr <- err
	}()

	select {
	case <-cut:
		c.nodes["s1"].Crash()
		if err := c.nodes["s1"].Restart(); err != nil {
			t.Fatalf("restart s1: %v", err)
		}
	case err := <-joinErr:
		// The join finished before s1 cut anything toward s3 — possible
		// but placement makes it vanishingly unlikely; treat as setup
		// failure so the test does not silently stop covering the crash.
		t.Fatalf("join finished before any s1 cut (err=%v)", err)
	}
	if err := <-joinErr; err != nil {
		t.Fatalf("join after source crash: %v", err)
	}

	pr2, ns2 := c.driver()
	rs, err := ns2.RingGet(c.ringNm, shardTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ring.Unmarshal(rs.Committed)
	if err != nil || r2.Epoch != 2 {
		t.Fatalf("committed ring after crash-recovery join: %v err=%v", r2, err)
	}
	_ = pr2
	if total := c.auditPlacement(r2, []string{"s1", "s2", "s3"}, accounts); total != 16*50 {
		t.Errorf("conservation: total %d after crash-recovery handoff, want %d", total, 16*50)
	}
	for _, a := range accounts {
		rep, err := rt.Call(a, "balance", a)
		if err != nil || rep.Command != "balance_is" || rep.Int(0) != 50 {
			t.Fatalf("balance %s after recovery: %v %v", a, rep, err)
		}
	}
}

// TestShardCrashHookIsPerWorld: two worlds in one process each run a shard
// branch on a node named s1, and only world A's s1 has a crash hook. A
// prepare and a cut on world B's s1 must not reach it; a prepare on world
// A's s1 must.
func TestShardCrashHookIsPerWorld(t *testing.T) {
	var mu sync.Mutex
	var heard []string
	crash := func(node string) fault.Hook {
		if node != "s1" {
			return nil
		}
		return func(point, _ string) {
			mu.Lock()
			heard = append(heard, point)
			mu.Unlock()
		}
	}
	heardNow := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), heard...)
	}
	shards := []string{"s1", "s2"}
	a := deployShardClusterWith(t, netsim.Config{Seed: 8}, crash, shards...)
	b := deployShardCluster(t, netsim.Config{Seed: 8}, shards...)

	// transfer moves 10 from an account on s1 to one on s2: both legs
	// prepare, the s1 debit leg holding the escrow.
	transfer := func(c *shardCluster) (*ring.Ring, []string) {
		r := c.bootstrapRing(shards...)
		rt := c.router()
		defer rt.Close()
		from := accountsOwnedBy(r, "s1", "db", 1)[0]
		to := accountsOwnedBy(r, "s2", "cr", 1)[0]
		accounts := []string{from, to}
		for i := 0; i < 16; i++ {
			accounts = append(accounts, fmt.Sprintf("acct-%03d", i))
		}
		for _, acct := range accounts {
			rep, err := rt.Call(acct, "open", acct)
			mustOK(t, rep, err, "open "+acct)
		}
		rep, err := rt.Call(from, "deposit", from, int64(100))
		mustOK(t, rep, err, "seed")
		if out, err := rt.Transfer(from, to, 10); err != nil || out != bank.OutcomeOK {
			t.Fatalf("transfer: %q %v", out, err)
		}
		return r, accounts
	}

	r1, accounts := transfer(b)
	// s3 joins world B: B's s1 cuts the ranges that move to it.
	m3 := b.addShard("s3")
	pr, ns := b.driver()
	if _, err := bank.Join(pr, b.ringNm, m3, bank.RebalanceOptions{NS: ns}); err != nil {
		t.Fatalf("join: %v", err)
	}
	rs, err := ns.RingGet(b.ringNm, shardTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ring.Unmarshal(rs.Committed)
	if err != nil {
		t.Fatal(err)
	}
	cut := false
	for _, acct := range accounts {
		was, _ := r1.Owner(acct)
		now, _ := r2.Owner(acct)
		cut = cut || (was.Name == "s1" && now.Name == "s3")
	}
	if !cut {
		t.Fatal("no account moved from s1 to s3: world B's s1 cut nothing")
	}
	if got := heardNow(); len(got) != 0 {
		t.Fatalf("world A's hook heard world B's s1: %v", got)
	}

	transfer(a)
	if got := heardNow(); len(got) == 0 || got[0] != fault.AfterPrepare {
		t.Fatalf("world A's hook heard %v, want %s first", got, fault.AfterPrepare)
	}
}
