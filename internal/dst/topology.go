package dst

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/nameserv"
	"repro/internal/replica"
	"repro/internal/xrep"
)

// Topology is the shape of the bank world under test: Shards independent
// bank branches, each on its own node (ReplFactor ≤ 1) or behind its own
// quorum replica group (ReplFactor ≥ 3, odd), plus the shared clients
// node. Topology{1, 1} is one branch on one crashable node; Topology{1, 3}
// is one three-member group; Shards=67 with ReplFactor=3 is the 200-node
// scale sweep: 201 member nodes, one clients node, 67 replicated logs.
// Only replicated schedules may contain EvKill (permanent primary loss →
// failover must preserve acknowledged effects) and split-brain isolation
// windows (stale-term traffic must be fenced).
type Topology struct {
	// Shards is the number of independent bank branches.
	Shards int
	// ReplFactor is the number of members in each shard's replica group.
	// 0 or 1 places each branch on one plain node; an odd value ≥ 3
	// places it behind a quorum group whose members heartbeat, elect, and
	// ship logs.
	ReplFactor int
}

func (t Topology) replicated() bool { return t.ReplFactor > 1 }

// shardsPerClient is how many shards each client session spreads its
// operations over (capped at Shards). A stride assignment keeps every
// client's shard set deterministic without consuming any random stream.
const shardsPerClient = 3

const (
	// replHeartbeat is deliberately small against the 2 s horizon so
	// failure detection (heartbeat × (threshold+1) ≈ 60 ms) and the
	// election resolve well inside a kill or isolation window.
	replHeartbeat = 20 * time.Millisecond
	replThreshold = 2
)

// shardGroup is shard i's replica group name; shardService the name its
// leader binds, which clients re-resolve on every retry.
func shardGroup(i int) string   { return fmt.Sprintf("dst-s%d", i) }
func shardService(i int) string { return fmt.Sprintf("bank/s%d", i) }

// shardedWorkload is the bank workload at every static shape: Shards
// branches, each its own guardian (and, replicated, its own quorum group
// with its own log, elections, and service name), all sharing one lossy
// network and one fault schedule. Money never moves between shards, so
// the bank.go invariants hold per shard, from shard i's tally and
// ledgers only, plus:
//
//	exactly-once:  ackedOK ≤ applies ≤ issued on shard i's branch
//	               (crash-free, takeover-free runs: the counter is
//	               volatile)
//	recovery:      (plain) state after one more crash+restart == state
//	               before
//	failover:      (replicated) each group ends with a live leader
//	               serving its branch — an acknowledged effect required
//	               a quorum, so it survives the primary's permanent
//	               death, and a double-applied retry across the failover
//	               would break conservation or balance
//	replication:   (replicated) every live member's log converges to
//	               the leader's, record by record
type shardedWorkload struct {
	opts Options
	topo Topology
	w    *guardian.World
	met  *amo.Metrics

	// shardNodes[i] is shard i's node set; index 0 is the initial
	// primary (replicated) or the only node (plain).
	shardNodes  [][]string
	memberShard map[string]int
	// nsPort is the name service on the clients node — the one piece of
	// a replicated world that must outlive any member.
	nsPort xrep.PortName

	// clientShards[c] are the shard indices client c operates on;
	// ledgers[c] is parallel to it. shardLedgers[i] are the same ledgers
	// by shard, for the auditor.
	clientShards [][]int
	ledgers      [][]clientLedger
	shardLedgers [][]*clientLedger

	created []*guardian.Created // per shard; plain mode only

	storesMu sync.Mutex
	stores   map[string]*replica.Store // member node → store; replicated only

	books bankBooks // one tally per shard
}

func newShardedWorkload(opts Options) (*shardedWorkload, error) {
	t := Topology{Shards: 1}
	if opts.Topology != nil {
		t = *opts.Topology
	}
	if t.Shards < 1 {
		return nil, fmt.Errorf("dst: topology needs at least 1 shard, got %d", t.Shards)
	}
	if t.replicated() && (t.ReplFactor < 3 || t.ReplFactor%2 == 0) {
		return nil, fmt.Errorf("dst: topology ReplFactor must be 0, 1, or an odd number >= 3, got %d", t.ReplFactor)
	}
	// A takeover re-creates the branch from replica.Config.AppArgs, which
	// would carry "raw" too — but then the dedup table the replicated log
	// exists to carry is gone, and every failover check is vacuous.
	if opts.Bug != "" && t.replicated() {
		return nil, fmt.Errorf("dst: bug %q needs a plain topology (ReplFactor <= 1)", opts.Bug)
	}
	s := &shardedWorkload{
		opts:         opts,
		topo:         t,
		met:          &amo.Metrics{},
		memberShard:  make(map[string]int),
		nsPort:       xrep.PortName{Node: clientsNode, Guardian: 2, Port: 1},
		created:      make([]*guardian.Created, t.Shards),
		shardLedgers: make([][]*clientLedger, t.Shards),
		stores:       make(map[string]*replica.Store),
		books:        bankBooks{tallies: make([]bankTally, t.Shards)},
	}
	for i := 0; i < t.Shards; i++ {
		var nodes []string
		if t.replicated() {
			for j := 0; j < t.ReplFactor; j++ {
				nodes = append(nodes, fmt.Sprintf("s%dm%d", i, j+1))
			}
		} else {
			nodes = []string{fmt.Sprintf("s%d", i)}
		}
		for _, n := range nodes {
			s.memberShard[n] = i
		}
		s.shardNodes = append(s.shardNodes, nodes)
	}
	per := shardsPerClient
	if per > t.Shards {
		per = t.Shards
	}
	for c := 0; c < opts.Clients; c++ {
		shards, ledgers := make([]int, per), make([]clientLedger, per)
		for k := range shards {
			shards[k] = (c*per + k) % t.Shards
			s.shardLedgers[shards[k]] = append(s.shardLedgers[shards[k]], &ledgers[k])
		}
		s.clientShards = append(s.clientShards, shards)
		s.ledgers = append(s.ledgers, ledgers)
	}
	return s, nil
}

func (s *shardedWorkload) crashNodes() []string {
	var out []string
	for _, nodes := range s.shardNodes {
		out = append(out, nodes...)
	}
	return out
}

// killNodes: replicated shards can lose their initial primary for good —
// the remaining majority elects past it; a plain shard cannot survive
// permanent node loss, so nothing is kill-eligible.
func (s *shardedWorkload) killNodes() []string {
	if !s.topo.replicated() {
		return nil
	}
	out := make([]string, len(s.shardNodes))
	for i, nodes := range s.shardNodes {
		out[i] = nodes[0]
	}
	return out
}

// wrapStore puts each member node's store behind its shard's replication
// layer; the clients node (and every node in plain mode) keeps its plain
// store. Composes under storage faults: the replica layer sees the
// faulted disk, exactly as a deployment would.
func (s *shardedWorkload) wrapStore(node string, inner durable.Store) (durable.Store, error) {
	si, ok := s.memberShard[node]
	if !ok || !s.topo.replicated() {
		return inner, nil
	}
	st, err := replica.NewStore(inner, replica.Config{
		Group:       shardGroup(si),
		Self:        node,
		Members:     s.shardNodes[si],
		Mode:        replica.ModeQuorum,
		Heartbeat:   replHeartbeat,
		Threshold:   replThreshold,
		AppDef:      bank.BranchDefName,
		AppArgs:     branchArgs(s.opts),
		Service:     shardService(si),
		NS:          s.nsPort,
		ServicePort: 1,
	})
	if err != nil {
		return nil, err
	}
	s.storesMu.Lock()
	s.stores[node] = st
	s.storesMu.Unlock()
	return st, nil
}

func (s *shardedWorkload) store(node string) *replica.Store {
	s.storesMu.Lock()
	defer s.storesMu.Unlock()
	return s.stores[node]
}

func (s *shardedWorkload) setup(w *guardian.World) error {
	s.w = w
	w.MustRegister(bank.BranchDef())
	cl := w.MustAddNode(clientsNode)
	if s.topo.replicated() {
		w.MustRegister(replica.Def())
		w.MustRegister(nameserv.Def())
		if _, err := cl.Bootstrap(nameserv.DefName); err != nil {
			return err
		}
	}
	for i, nodes := range s.shardNodes {
		for _, m := range nodes {
			n := w.MustAddNode(m)
			if !s.topo.replicated() {
				continue
			}
			// The replicator must be each member's FIRST guardian: its
			// port {node, 2, 1} is the a-priori address group members
			// reach each other at.
			if _, err := n.Bootstrap(replica.DefName); err != nil {
				return err
			}
		}
		primary, err := w.Node(nodes[0])
		if err != nil {
			return err
		}
		created, err := primary.Bootstrap(bank.BranchDefName, branchArgs(s.opts)...)
		if err != nil {
			return err
		}
		if s.topo.replicated() {
			s.store(nodes[0]).Adopt(primary, created)
		} else {
			s.created[i] = created
		}
	}
	return nil
}

// dial builds session pr's connection to shard si: plain mode calls the
// branch's at-most-once port directly; replicated mode waits for the
// shard's service binding and re-resolves it on every retry, so a
// permanent kill of the primary is survivable — followers elect, the
// winner re-creates the branch from the shipped log and re-binds the
// name, and the clients' retries land on it.
func (s *shardedWorkload) dial(pr *guardian.Process, ns *nameserv.Client, si int, seed int64) (*amo.Caller, bankLink, error) {
	copts := callerOptions(s.opts, s.met, seed)
	var port xrep.PortName
	if s.topo.replicated() {
		svc := shardService(si)
		copts.Resolve = func() (xrep.PortName, bool) {
			p, _, err := ns.Lookup(svc, s.opts.AttemptTimeout)
			return p, err == nil
		}
		// The leader binds the name once its branch is serving.
		if !waitUntil(s.w.Clock(), time.Second, func() (bound bool) {
			port, bound = copts.Resolve()
			return bound
		}) {
			return nil, bankLink{}, fmt.Errorf("dst: service %s never bound", svc)
		}
	} else {
		port = s.created[si].Ports[1]
	}
	caller, err := amo.NewCaller(pr, copts)
	if err != nil {
		return nil, bankLink{}, err
	}
	return caller, callerLink(caller, port), nil
}

func (s *shardedWorkload) client(i int, crng *rand.Rand) {
	shards := s.clientShards[i]
	node, err := s.w.Node(clientsNode)
	if err != nil {
		return
	}
	_, pr, err := node.NewDriver(fmt.Sprintf("bank-client-%d", i))
	if err != nil {
		return
	}
	var ns *nameserv.Client
	if s.topo.replicated() {
		if ns, err = nameserv.NewClient(pr, s.nsPort); err != nil {
			return
		}
	}

	// Connect to and fund every assigned shard; a shard that cannot be
	// dialed leaves its ledger unfunded and op skips it.
	links := make([]bankLink, len(shards))
	for k, si := range shards {
		led := &s.ledgers[i][k]
		led.acctA, led.acctB = fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		caller, link, err := s.dial(pr, ns, si, crng.Int63())
		if err != nil {
			continue
		}
		defer caller.Close()
		links[k] = link
		s.books.fund(led, si, link)
	}
	for op := 0; op < s.opts.OpsPerClient; op++ {
		pace(pr, crng, s.opts)
		k := crng.Intn(len(shards))
		s.books.op(&s.ledgers[i][k], shards[k], links[k], crng)
	}
}

// findLeader returns shard si's live leading member with a serving
// branch, if any.
func (s *shardedWorkload) findLeader(w *guardian.World, si int) (string, *replica.Store) {
	for _, m := range s.shardNodes[si] {
		n, err := w.Node(m)
		if err != nil || !n.Alive() {
			continue
		}
		st := s.store(m)
		if st == nil {
			continue
		}
		if _, _, isSelf := st.Leader(); !isSelf {
			continue
		}
		if g := st.AppGuardian(); g == nil || !g.Alive() {
			continue
		}
		return m, st
	}
	return "", nil
}

// replStats sums the replication counters of the given member nodes.
func (s *shardedWorkload) replStats(nodes []string) replica.Stats {
	var sum replica.Stats
	for _, m := range nodes {
		st := s.store(m)
		if st == nil {
			continue
		}
		r := st.ReplStats()
		sum.ShippedBatches += r.ShippedBatches
		sum.ShippedRecords += r.ShippedRecords
		sum.AppliedRecords += r.AppliedRecords
		sum.CheckpointsShipped += r.CheckpointsShipped
		sum.FencedStale += r.FencedStale
		sum.ForksDetected += r.ForksDetected
		sum.Elections += r.Elections
		sum.Takeovers += r.Takeovers
	}
	return sum
}

func (s *shardedWorkload) check(w *guardian.World, rep *Report, crashed bool) {
	tallies := s.books.close(rep)
	rep.Retries = s.met.Retries.Load()
	defer func() { rep.Repl = s.replStats(s.crashNodes()) }()

	pr := checker(w, rep, "bank-checker")
	if pr == nil {
		return
	}
	for si := range s.shardNodes {
		s.auditShard(w, rep, pr, si, tallies[si], crashed)
	}
}

// auditShard audits one shard: locate its serving branch, then the
// shared account and replay checks with the shape-specific ones between.
func (s *shardedWorkload) auditShard(w *guardian.World, rep *Report, pr *guardian.Process,
	si int, tally bankTally, crashed bool) {
	scope := fmt.Sprintf("shard %d", si)
	var g *guardian.Guardian
	var leader string
	if s.topo.replicated() {
		g, leader = s.servingLeader(w, rep, pr, si)
	} else {
		g = s.servingPlain(w, rep, pr, si)
	}
	if g == nil {
		return
	}

	accts, err := bank.Snapshot(g)
	if err != nil {
		rep.addViolation("recovery", "%s: snapshot: %v", scope, err)
		return
	}
	auditAccounts(rep, scope, accts, tally, s.shardLedgers[si])

	// The execution-count audit needs the branch's volatile applies
	// counter to have seen every op: sound only when no node crashed and
	// no takeover re-created the branch mid-run.
	if !crashed && s.replStats(s.shardNodes[si]).Takeovers == 0 {
		applies, err := bank.Applies(g)
		if err != nil {
			rep.addViolation("exactly-once", "%s: applies: %v", scope, err)
		} else if applies < tally.ackedOK || applies > tally.issued {
			rep.addViolation("exactly-once",
				"%s: branch executed %d ok ops, want between %d acked-ok and %d issued",
				scope, applies, tally.ackedOK, tally.issued)
		}
	}

	if s.topo.replicated() {
		s.auditFollowers(w, rep, si, leader, g)
	} else if g = s.restartPlain(w, rep, pr, si, accts); g == nil {
		return
	}
	auditReplay(rep, scope, g, accts)
}

// servingLeader locates replicated shard si's serving branch: failover
// liveness says some live member must end up leading with its branch
// answering — the schedule always leaves a quorum alive.
func (s *shardedWorkload) servingLeader(w *guardian.World, rep *Report, pr *guardian.Process, si int) (*guardian.Guardian, string) {
	var leader string
	var lst *replica.Store
	if !waitUntil(w.Clock(), 3*time.Second, func() bool {
		leader, lst = s.findLeader(w, si)
		return lst != nil
	}) {
		rep.addViolation("failover", "shard %d: no live leader serving the branch", si)
		return nil, ""
	}
	ports := lst.AppPorts()
	if len(ports) == 0 {
		rep.addViolation("failover", "shard %d: leader %s serves no ports", si, leader)
		return nil, ""
	}
	if err := pingBranch(pr, ports[0], s.opts); err != nil {
		rep.addViolation("failover", "shard %d: leader branch unreachable: %v", si, err)
		return nil, ""
	}
	if si == 0 {
		rep.Leader = leader
	}
	return lst.AppGuardian(), leader
}

// servingPlain locates plain shard si's branch, restarting its node if
// the schedule left it down.
func (s *shardedWorkload) servingPlain(w *guardian.World, rep *Report, pr *guardian.Process, si int) *guardian.Guardian {
	cr := s.created[si]
	return serving(w, rep, s.shardNodes[si][0], cr.GuardianID,
		func() error { return pingBranch(pr, cr.Ports[0], s.opts) })
}

// restartPlain crashes plain shard si once more and requires the
// restarted branch to serve exactly the pre-crash accounts; it returns
// the recovered guardian for the replay audit.
func (s *shardedWorkload) restartPlain(w *guardian.World, rep *Report, pr *guardian.Process,
	si int, pre map[string]int64) *guardian.Guardian {
	n, _ := w.Node(s.shardNodes[si][0])
	n.Crash()
	g := s.servingPlain(w, rep, pr, si)
	if g == nil {
		return nil
	}
	post, err := bank.Snapshot(g)
	if err != nil {
		rep.addViolation("recovery", "shard %d: post-restart snapshot: %v", si, err)
		return nil
	}
	if !equalAccounts(post, pre) {
		rep.addViolation("recovery", "shard %d: post-restart accounts %v != pre-crash %v", si, post, pre)
	}
	return g
}

// auditFollowers is replication liveness: every live member's copy of
// the branch log converges to the leader's, record by record — the fork
// rule truncates whatever a deposed member held that the group never
// committed, so no member may sit ahead or apart.
func (s *shardedWorkload) auditFollowers(w *guardian.World, rep *Report, si int, leader string, g *guardian.Guardian) {
	logName := g.LogName()
	for _, m := range s.shardNodes[si] {
		if m == leader {
			continue
		}
		n, err := w.Node(m)
		if err != nil || !n.Alive() {
			continue
		}
		st := s.store(m)
		if st == nil {
			continue
		}
		var diff string
		if !waitUntil(w.Clock(), 3*time.Second, func() bool {
			l, err := st.Inner().OpenLog(logName)
			if err != nil {
				diff = err.Error()
				return false
			}
			diff = logDiff(g.Log(), l)
			return diff == ""
		}) {
			rep.addViolation("replication",
				"shard %d: member %s's log differs from leader %s's: %s", si, m, leader, diff)
		}
	}
}

// logDiff compares two copies of one log: the same tail, and the same
// records (seq and bytes) wherever both still hold them one by one. It
// returns "" when they agree.
func logDiff(leader, member durable.Log) string {
	if a, b := leader.LastDurableSeq(), member.LastDurableSeq(); a != b {
		return fmt.Sprintf("at seq %d, leader at %d", b, a)
	}
	lr, lat := liveRecords(leader)
	mr, mat := liveRecords(member)
	from := max(lat, mat)
	lr, mr = recordsAfter(lr, from), recordsAfter(mr, from)
	if len(lr) != len(mr) {
		return fmt.Sprintf("%d records after seq %d, leader %d", len(mr), from, len(lr))
	}
	for i := range lr {
		if lr[i].Seq != mr[i].Seq || !bytes.Equal(lr[i].Data, mr[i].Data) {
			return fmt.Sprintf("record %d differs from the leader's %d", mr[i].Seq, lr[i].Seq)
		}
	}
	return ""
}

// liveRecords returns l's records and its checkpoint watermark.
func liveRecords(l durable.Log) ([]durable.Record, uint64) {
	_, recs, _ := l.Recover()
	if len(recs) > 0 {
		return recs, recs[0].Seq - 1
	}
	return recs, l.LastDurableSeq()
}

// recordsAfter drops the records at or below seq.
func recordsAfter(recs []durable.Record, seq uint64) []durable.Record {
	for len(recs) > 0 && recs[0].Seq <= seq {
		recs = recs[1:]
	}
	return recs
}
