package dst

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/guardian"
	"repro/internal/nameserv"
	"repro/internal/ring"
	"repro/internal/sendprim"
	"repro/internal/tpc"
	"repro/internal/xrep"
)

// RingTopology describes a consistent-hash bank: Shards initial members,
// each a shard-mode branch on its own node, plus Joins members that enter
// and Leaves members that drain MID-RUN — every membership change is a
// live rebalance (one durable cut shipping each range, epoch flip) racing the
// fault schedule and the client traffic. A 2PC coordinator on its own
// crash-eligible node carries the cross-shard transfers.
type RingTopology struct {
	// Shards is the number of initial ring members. Zero means 3.
	Shards int
	// Joins is the number of members joined live during the run.
	Joins int
	// Leaves is the number of initial members drained live during the
	// run. Must leave at least one member on the ring.
	Leaves int
}

func (r RingTopology) withDefaults() RingTopology {
	if r.Shards <= 0 {
		r.Shards = 3
	}
	return r
}

const (
	ringName      = "dst-accounts"
	ringCoordNode = "txncoord"
)

func ringMemberNode(i int) string { return fmt.Sprintf("r%d", i) }
func ringJoinerNode(i int) string { return fmt.Sprintf("j%d", i) }

// ringWorkload drives client traffic through bank.Router (ring-resolved
// at-most-once calls, 2PC fallback for split transfers) while session 0 —
// the rebalancer — grows and shrinks the ring underneath it. Unlike the
// static topology, money here DOES move between shards — by migration and
// by cross-shard 2PC — so the bank.go account invariants are cluster-wide,
// over the merged accounts and one tally. Invariants:
//
//	conservation:  global balance total within the acked/issued bounds —
//	               a migration that minted or dropped an account breaks it.
//	balance:       exact balances for every client whose calls were all
//	               acked, across however many epoch flips re-routed them.
//	single-owner:  after the drain, every account lives on exactly the
//	               member the committed ring names, and every branch has
//	               adopted the committed epoch.
//	recovery:      every branch's served state equals a pure replay of
//	               its durable log (migration records included).
//	drain:         every durable 2PC decision reaches both legs (the
//	               coordinator's unsettled set empties after recovery),
//	               and no branch still escrows a transaction whose
//	               decision settled. Escrow with no decision at all is
//	               2PC's blocking case and allowed.
type ringWorkload struct {
	opts Options
	topo RingTopology
	w    *guardian.World
	met  *amo.Metrics

	memberNodes []string // initial + joiners, in join order
	nsPort      xrep.PortName
	coordPort   xrep.PortName
	coordID     uint64
	created     map[string]*guardian.Created // branch per member node

	books   bankBooks      // one cluster-wide tally
	ledgers []clientLedger // traffic session i uses ledgers[i-1]

	mu         sync.Mutex
	pending    *ring.Ring // staged epoch the rebalancer did not finish
	rebalances int
	ringEpoch  int64
}

func newRingWorkload(opts Options) (*ringWorkload, error) {
	t := opts.Ring.withDefaults()
	if t.Leaves >= t.Shards+t.Joins {
		return nil, fmt.Errorf("dst: ring of %d+%d members cannot survive %d leaves", t.Shards, t.Joins, t.Leaves)
	}
	if opts.Clients < 2 {
		return nil, fmt.Errorf("dst: ring workload needs >= 2 client sessions (session 0 is the rebalancer)")
	}
	s := &ringWorkload{
		opts:    opts,
		topo:    t,
		met:     &amo.Metrics{},
		created: make(map[string]*guardian.Created),
		books:   bankBooks{tallies: make([]bankTally, 1)},
		ledgers: make([]clientLedger, opts.Clients-1),
	}
	for i := 0; i < t.Shards; i++ {
		s.memberNodes = append(s.memberNodes, ringMemberNode(i))
	}
	for i := 0; i < t.Joins; i++ {
		s.memberNodes = append(s.memberNodes, ringJoinerNode(i))
	}
	return s, nil
}

func (s *ringWorkload) crashNodes() []string {
	return append(append([]string{}, s.memberNodes...), ringCoordNode)
}

// killNodes: a plain shard cannot survive permanent loss of its node.
func (s *ringWorkload) killNodes() []string { return nil }

func (s *ringWorkload) setup(w *guardian.World) error {
	s.w = w
	w.MustRegister(bank.BranchDef())
	w.MustRegister(nameserv.Def())
	w.MustRegister(tpc.CoordinatorDef())

	// The nameserver lives on the never-crashed clients node: ring
	// membership must stay readable or no invariant is auditable. The
	// coordinator gets its own crash-eligible node — its recovery drain
	// is part of what the sweep exercises.
	cl := w.MustAddNode(clientsNode)
	nsCr, err := cl.Bootstrap(nameserv.DefName)
	if err != nil {
		return err
	}
	s.nsPort = nsCr.Ports[0]
	cn := w.MustAddNode(ringCoordNode)
	// Short vote windows and a deep settle budget: the horizon is seconds,
	// and undelivered decisions must drain before it ends or in recovery.
	coCr, err := cn.Bootstrap(tpc.CoordinatorDefName, int64(200), int64(8))
	if err != nil {
		return err
	}
	s.coordPort, s.coordID = coCr.Ports[0], coCr.GuardianID

	// Every member — joiners included — boots its branch now; a joiner
	// simply owns nothing until its join commits an epoch that names it.
	for _, node := range s.memberNodes {
		n := w.MustAddNode(node)
		args := append([]any{bank.ShardArg(node)}, branchArgs(s.opts)...)
		cr, err := n.Bootstrap(bank.BranchDefName, args...)
		if err != nil {
			return err
		}
		s.created[node] = cr
	}
	return nil
}

func (s *ringWorkload) member(node string) ring.Member {
	cr := s.created[node]
	return ring.Member{Name: node, Native: cr.Ports[0], Amo: cr.Ports[1]}
}

func (s *ringWorkload) note(f func()) {
	s.mu.Lock()
	f()
	s.mu.Unlock()
}

func (s *ringWorkload) rebalanceOpts(ns *nameserv.Client) bank.RebalanceOptions {
	return bank.RebalanceOptions{
		NS:      ns,
		Timeout: 250 * time.Millisecond,
		Call: sendprim.CallOptions{
			Timeout: 4 * s.opts.AttemptTimeout,
			Retries: s.opts.Retries,
			Backoff: 2 * time.Millisecond,
		},
		PollInterval: 20 * time.Millisecond,
		PollBudget:   300,
	}
}

// ringGetRetry wraps the single-attempt nameserv client: under
// simulation a same-node call can miss its virtual-clock timeout window,
// so a fetch that matters is retried, 5 ms apart.
func (s *ringWorkload) ringGetRetry(ns *nameserv.Client, timeout time.Duration, attempts int) (rs nameserv.RingState, err error) {
	waitUntil(s.w.Clock(), time.Duration(attempts)*5*time.Millisecond, func() bool {
		rs, err = ns.RingGet(ringName, timeout)
		return err == nil
	})
	return rs, err
}

// client 0 is the rebalancer: it bootstraps epoch 1, then paces the
// joins and leaves across the horizon. Sessions >= 1 are bank traffic.
func (s *ringWorkload) client(i int, crng *rand.Rand) {
	node, err := s.w.Node(clientsNode)
	if err != nil {
		return
	}
	_, pr, err := node.NewDriver(fmt.Sprintf("ring-client-%d", i))
	if err != nil {
		return
	}
	ns, err := nameserv.NewClient(pr, s.nsPort)
	if err != nil {
		return
	}
	if i == 0 {
		s.rebalancer(pr, ns, crng)
		return
	}
	s.traffic(i, pr, ns, crng)
}

func (s *ringWorkload) rebalancer(pr *guardian.Process, ns *nameserv.Client, crng *rand.Rand) {
	ropts := s.rebalanceOpts(ns)
	initial := make([]ring.Member, s.topo.Shards)
	for i := range initial {
		initial[i] = s.member(ringMemberNode(i))
	}
	boot := ring.New(ringName, 0, initial...)
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if err = bank.Bootstrap(pr, boot, ropts); err == nil {
			break
		}
		pr.Pause(10 * time.Millisecond)
	}
	if err != nil {
		// Traffic sessions will find no committed ring and mark their
		// ledgers uncertain; check() reports the dead cluster.
		return
	}
	s.note(func() { s.ringEpoch = 1 })

	// One membership change per step: joins first, then drains, spread
	// over the horizon so each rebalance races live traffic and whatever
	// fault windows the schedule placed there.
	type step struct {
		join bool
		node string
	}
	var steps []step
	for j := 0; j < s.topo.Joins; j++ {
		steps = append(steps, step{join: true, node: ringJoinerNode(j)})
	}
	for l := 0; l < s.topo.Leaves; l++ {
		steps = append(steps, step{join: false, node: ringMemberNode(l)})
	}
	gap := s.opts.Profile.Horizon * 3 / 4 / time.Duration(len(steps)+1)
	for _, st := range steps {
		if gap > 0 {
			pr.Pause(time.Duration(float64(gap) * (0.5 + crng.Float64())))
		}
		rs, err := s.ringGetRetry(ns, ropts.Timeout, 8)
		if err != nil || rs.CommittedEpoch == 0 {
			return
		}
		old, err := ring.Unmarshal(rs.Committed)
		if err != nil {
			return
		}
		var next *ring.Ring
		if st.join {
			next, err = old.WithJoin(s.member(st.node))
		} else {
			next, err = old.WithLeave(st.node)
		}
		if err != nil {
			return
		}
		// Record the target BEFORE driving it: a rebalance the schedule
		// interrupts is re-driven to completion by check(), which is
		// exactly what a production driver would do after its crash.
		s.note(func() { s.pending = next })
		if err := bank.Rebalance(pr, next, ropts); err != nil {
			return
		}
		s.note(func() { s.pending = nil; s.rebalances++; s.ringEpoch = next.Epoch })
	}
}

func (s *ringWorkload) traffic(i int, pr *guardian.Process, ns *nameserv.Client, crng *rand.Rand) {
	led := &s.ledgers[i-1]
	led.acctA, led.acctB = fmt.Sprintf("rc%da", i), fmt.Sprintf("rc%db", i)

	// Wait out the bootstrap: no committed ring, no routing.
	if !waitUntil(s.w.Clock(), 2*time.Second, func() bool {
		rs, err := ns.RingGet(ringName, s.opts.AttemptTimeout)
		return err == nil && rs.CommittedEpoch > 0
	}) {
		return
	}
	rt, err := bank.NewRouter(pr, bank.RouterOptions{
		NS:          ns,
		RingName:    ringName,
		Coordinator: s.coordPort,
		Call:        callerOptions(s.opts, s.met, crng.Int63()),
	})
	if err != nil {
		return
	}
	defer rt.Close()

	link := routerLink(rt)
	s.books.fund(led, 0, link)
	for op := 0; op < s.opts.OpsPerClient; op++ {
		pace(pr, crng, s.opts)
		s.books.op(led, 0, link, crng)
	}
}

func (s *ringWorkload) check(w *guardian.World, rep *Report, crashed bool) {
	tally := s.books.close(rep)[0]
	s.mu.Lock()
	rep.Rebalances, rep.RingEpoch = s.rebalances, s.ringEpoch
	pending := s.pending
	s.mu.Unlock()
	rep.Retries = s.met.Retries.Load()

	// Bring every crashed node back and prove each branch serves.
	for _, node := range s.crashNodes() {
		if revive(w, rep, node) == nil {
			return
		}
	}
	pr := checker(w, rep, "ring-checker")
	if pr == nil {
		return
	}
	for _, node := range s.memberNodes {
		if err := pingBranch(pr, s.member(node).Native, s.opts); err != nil {
			rep.addViolation("recovery", "branch %s unreachable after restart: %v", node, err)
			return
		}
	}
	ns, err := nameserv.NewClient(pr, s.nsPort)
	if err != nil {
		rep.addViolation("setup", "nameserv client: %v", err)
		return
	}

	// Finish what the schedule interrupted: a rebalance is resumable from
	// its durable state (staged epoch, handoff records), so driving the
	// recorded target again must converge now that the network is healed.
	ropts := s.rebalanceOpts(ns)
	if pending != nil {
		var rerr error
		for attempt := 0; attempt < 3; attempt++ {
			if rerr = bank.Rebalance(pr, pending, ropts); rerr == nil {
				break
			}
		}
		if rerr != nil {
			rep.addViolation("rebalance", "epoch %d unfinishable after heal: %v", pending.Epoch, rerr)
			return
		}
		rep.Rebalances++
	}
	rs, err := s.ringGetRetry(ns, ropts.Timeout, 40)
	if err != nil || rs.CommittedEpoch == 0 {
		rep.addViolation("rebalance", "no committed ring after run: %v", err)
		return
	}
	committed, err := ring.Unmarshal(rs.Committed)
	if err != nil {
		rep.addViolation("rebalance", "committed ring undecodable: %v", err)
		return
	}
	rep.RingEpoch = committed.Epoch

	// Converge adoption: a broadcast the schedule ate is regenerable.
	for _, node := range s.memberNodes {
		if _, err := sendprim.Call(pr, s.member(node).Native, bank.MigrateReplyType, auditCallOptions(s.opts),
			"ring_update", string(committed.Marshal())); err != nil {
			rep.addViolation("rebalance", "branch %s rejected ring broadcast: %v", node, err)
			return
		}
	}

	// Drain the coordinator: crash-restart it once more so recovery
	// re-drives every decided-but-unsettled transaction, then require the
	// unsettled set to empty — each decision reaching both legs.
	var coord *guardian.Guardian // the coordinator, once it has drained
	coordNode, err := w.Node(ringCoordNode)
	if err == nil {
		coordNode.Crash()
		if err := coordNode.Restart(); err != nil {
			rep.addViolation("drain", "coordinator restart: %v", err)
			return
		}
		drained := waitUntil(w.Clock(), 3*time.Second, func() bool {
			g, ok := coordNode.GuardianByID(s.coordID)
			if !ok {
				return false
			}
			unsettled, ok := tpc.CoordinatorUnsettled(g)
			return ok && len(unsettled) == 0
		})
		cg, _ := coordNode.GuardianByID(s.coordID)
		if drained {
			coord = cg
		} else {
			unsettled, _ := tpc.CoordinatorUnsettled(cg)
			rep.addViolation("drain", "coordinator decisions never settled: %v", unsettled)
		}
	}

	// Single-owner-per-epoch and conservation, from the branches' own
	// state. The audit pings above ordered these reads after everything
	// each branch wrote.
	memberSet := make(map[string]bool, len(committed.Members))
	for _, m := range committed.Members {
		memberSet[m.Name] = true
	}
	merged := make(map[string]int64)
	where := make(map[string]string)
	for _, node := range s.memberNodes {
		native := s.member(node).Native
		g := serving(w, rep, node, s.created[node].GuardianID,
			func() error { return pingBranch(pr, native, s.opts) })
		if g == nil {
			return
		}
		member, epoch, accts, ok := bank.ShardSnapshot(g)
		if !ok || member != node {
			rep.addViolation("single-owner", "branch %s is not in shard mode (member %q)", node, member)
			continue
		}
		if epoch != committed.Epoch {
			rep.addViolation("single-owner", "branch %s adopted epoch %d, committed is %d", node, epoch, committed.Epoch)
		}
		if !memberSet[node] && len(accts) > 0 {
			rep.addViolation("single-owner", "non-member %s still holds %d accounts", node, len(accts))
		}
		for a, bal := range accts {
			if prev, dup := where[a]; dup {
				rep.addViolation("single-owner", "account %s on both %s and %s", a, prev, node)
			}
			where[a] = node
			merged[a] = bal
		}
		// Every participant logged a settled decision before acking it.
		if txids, _ := bank.ShardEscrows(g); coord != nil {
			for _, txid := range txids {
				if _, settled, _ := tpc.CoordinatorDecision(coord, txid); settled {
					rep.addViolation("drain", "branch %s still escrows %s, whose decision settled", node, txid)
				}
			}
		}
		// Migration records included.
		auditReplay(rep, "branch "+node, g, accts)
	}
	for a, node := range where {
		owner, ok := committed.Owner(a)
		if !ok {
			rep.addViolation("single-owner", "committed ring owns nothing (account %s)", a)
			continue
		}
		if owner.Name != node {
			rep.addViolation("single-owner", "account %s on %s, epoch %d owns it to %s", a, node, committed.Epoch, owner.Name)
		}
	}

	// Conservation, and exact balances for all-acked clients across every
	// epoch flip their retries crossed.
	ledgers := make([]*clientLedger, len(s.ledgers))
	for i := range s.ledgers {
		ledgers[i] = &s.ledgers[i]
	}
	auditAccounts(rep, "cluster", merged, tally, ledgers)
}
