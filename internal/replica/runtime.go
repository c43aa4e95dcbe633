package replica

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/nameserv"
	"repro/internal/vtime"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// role is a member's current standing in the group.
type role int

const (
	roleFollower role = iota
	roleCandidate
	roleLeader
)

// shipBatchMax bounds the records per rep_append message; a lagging
// follower catches up over several ticks rather than one huge frame.
const shipBatchMax = 128

// termLogCompactAfter bounds the term log's growth: each persist is a
// full state snapshot, so anything but the last record is garbage.
const termLogCompactAfter = 64

// termLogName names the group's reserved (unreplicated) term log.
func termLogName(group string) string { return "_replica-" + group }

// waiter is one quorum-mode Sync blocked until the group holds seq of log.
type waiter struct {
	log string
	seq uint64
	ch  chan struct{}
}

// shipJob is one replicated batch waiting for the ship loop to transmit.
type shipJob struct{ ch chan struct{} }

// Runtime is a member's replication state machine. It is created with
// the Store (so it exists before the world does) and attaches to the
// replicator guardian when that guardian starts; the persisted term
// state lives in the group's reserved term log and survives both.
type Runtime struct {
	st  *Store
	cfg Config

	termLog durable.Log
	shipC   chan struct{}

	mu        sync.Mutex
	g         *guardian.Guardian
	clock     vtime.Clock
	hb        time.Duration
	threshold int
	nsReply   xrep.PortName

	role     role
	term     uint64
	dataTerm uint64 // highest origin term among records this member holds
	votedFor string
	leader   string
	appLog   string // the application guardian's log name, learned from Adopt or heartbeats
	lastHB   time.Time
	votes    map[string]bool

	// diverged is the persisted quarantine fence: this member may hold
	// records the group never committed, so it must not stand for
	// election and its acks must not count toward quorum. risk is the
	// persisted early warning that sets it: "I led my current term and
	// made records locally durable whose group fate is unknown" —
	// written BEFORE the batch becomes durable, so a primary killed in
	// any replication window restarts quarantined rather than eligible.
	// unverified lists the logs whose content has not yet been proven to
	// derive from the current leader; when it empties, the member heals.
	diverged   bool
	risk       bool
	unverified map[string]bool

	// frontier maps each replicated log to its term attribution: spans
	// of (origin term, first seq), ascending by seq. It is the compact
	// persisted form of a per-record term stamp, and what makes the
	// log-matching check possible without changing the WAL record
	// format.
	frontier map[string][]span

	// Leader-only state. fence is closed on deposition or crash; every
	// blocked replicate() select includes it, and the application
	// guardian is killed BEFORE it closes, so a Sync released by the
	// fence can never acknowledge its client (Process.send fails on a
	// killed guardian). suspect marks members that reported themselves
	// quarantined; forked marks (member, log) pairs caught acking past
	// the leader's own tail. Either way the member's positions never
	// count toward quorum. The two are cleared on different evidence —
	// suspect by the member's own healed (non-diverged) ack, a forked
	// entry only by a possible ack for THAT log — so an unrelated clean
	// ack cannot launder a detected fork.
	fence     chan struct{}
	acks      map[string]map[string]uint64 // member -> log -> durable seq
	published map[string]uint64            // log -> highest seq handed to shipping
	baseline  map[string]uint64            // log -> durable tail when this reign began
	suspect   map[string]bool
	forked    map[string]map[string]bool
	waiters   []*waiter
	jobs      []*shipJob

	appG       *guardian.Guardian
	appPorts   []xrep.PortName
	registered bool
	purged     bool

	// pendingReset marks a crash whose reset could not take mu
	// synchronously: a storage fault during a term-log persist
	// fail-stops the node from INSIDE a critical section, so reset()
	// re-entering mu on the same goroutine would deadlock. The flag is
	// consumed at the next lock acquisition — a spawned finisher, or
	// attach at the latest — always before any post-restart decision.
	pendingReset atomic.Bool

	stats Stats
}

// span attributes every record from start onward (until the next span)
// to the reign of term — the per-log term frontier.
type span struct {
	term  uint64
	start uint64
}

// newRuntime builds the member's runtime, replaying persisted term state
// from the wrapped store. A member whose persisted state says it led its
// last term with locally durable records of unknown group fate (risk),
// or that was already quarantined (diverged), restarts quarantined: it
// may hold records the group never committed, and it must not stand for
// election until its log is proven to derive from the current leader's.
func newRuntime(s *Store, cfg Config) (*Runtime, error) {
	tl, err := s.inner.OpenLog(termLogName(cfg.Group))
	if err != nil {
		return nil, err
	}
	rt := &Runtime{st: s, cfg: cfg, termLog: tl, shipC: make(chan struct{}, 1)}
	// Every term-log record, and its checkpoint, is a whole state: the
	// last one read stands. A member that cannot read its own term state
	// must not come up at term 0 and vote again.
	err = guardian.Replay(tl, func(cp []byte) error {
		v, err := wire.UnmarshalValue(cp)
		if err == nil {
			_, err = rt.foldTermState(v)
		}
		return err
	}, rt.foldTermState)
	if err != nil {
		return nil, fmt.Errorf("replica: term log %s: %w", termLogName(cfg.Group), err)
	}
	// A one-member group is its own majority: everything it writes is
	// group-committed by definition, so a leftover risk marker must not
	// quarantine it (there is no other leader to ever heal against).
	quarantine := (rt.diverged || rt.risk) && cfg.quorum() > 1
	rt.risk = false // the marker belongs to the reign that wrote it
	if quarantine {
		rt.diverged = true
		rt.unverified = make(map[string]bool)
		for _, name := range s.shippable() {
			rt.unverified[name] = true
		}
	} else {
		rt.diverged = false
	}
	return rt, nil
}

// persistLocked snapshots (term, votedFor, appLog, dataTerm, diverged,
// risk, frontier) to the term log. Called with rt.mu held.
func (rt *Runtime) persistLocked() {
	b := func(v bool) xrep.Int {
		if v {
			return 1
		}
		return 0
	}
	rec := xrep.Seq{xrep.Int(rt.term), xrep.Str(rt.votedFor), xrep.Str(rt.appLog),
		xrep.Int(rt.dataTerm), b(rt.diverged), b(rt.risk), rt.frontierValueLocked()}
	buf, err := wire.MarshalValue(rec)
	if err != nil {
		return
	}
	//lint:allow lockorder term-log persist runs under rt.mu by design; contended paths reach it through TryLock and the pendingReset handshake, so no receive loop parks behind it
	seq := rt.termLog.AppendSync(buf)
	if rt.termLog.DurableLen() > termLogCompactAfter {
		//lint:allow lockorder same hand as the AppendSync above: compaction of the record just persisted
		rt.termLog.Checkpoint(buf, seq)
	}
}

// frontierValueLocked encodes the term frontier as a sequence of
// (log, ((term, start), ...)) entries. Called with rt.mu held.
func (rt *Runtime) frontierValueLocked() xrep.Seq {
	out := xrep.Seq{}
	for name, spans := range rt.frontier {
		sv := xrep.Seq{}
		for _, sp := range spans {
			sv = append(sv, xrep.Seq{xrep.Int(sp.term), xrep.Int(sp.start)})
		}
		out = append(out, xrep.Seq{xrep.Str(name), sv})
	}
	return out
}

// foldTermState is the term log's folder (guardian.Folder), and
// persistLocked's inverse: it loads (term, votedFor, appLog, dataTerm,
// diverged, risk, frontier) into rt. Older term logs stop after any field
// from the third on.
func (rt *Runtime) foldTermState(v xrep.Value) (bool, error) {
	f := xrep.ReadSeq(v, 2)
	rt.term, rt.votedFor = uint64(f.Int()), f.Str()
	rt.appLog, rt.dataTerm, rt.diverged, rt.risk, rt.frontier = "", 0, false, false, nil
	if f.More() {
		rt.appLog = f.Str()
	}
	if f.More() {
		rt.dataTerm = uint64(f.Int())
	}
	if f.More() {
		rt.diverged = f.Int() != 0
	}
	if f.More() {
		rt.risk = f.Int() != 0
	}
	var err error
	if f.More() {
		rt.frontier, err = parseFrontier(f.Seq())
	}
	return true, errors.Join(f.Err(), err)
}

// parseFrontier decodes frontierValueLocked's encoding.
func parseFrontier(v xrep.Seq) (map[string][]span, error) {
	out := make(map[string][]span, len(v))
	for _, ev := range v {
		entry := xrep.ReadSeq(ev, 2)
		name, sv := entry.Str(), entry.Seq()
		if err := entry.Err(); err != nil {
			return nil, fmt.Errorf("frontier entry: %w", err)
		}
		for _, spv := range sv {
			pair := xrep.ReadSeq(spv, 2)
			out[name] = append(out[name], span{term: uint64(pair.Int()), start: uint64(pair.Int())})
			if err := pair.Err(); err != nil {
				return nil, fmt.Errorf("frontier span: %w", err)
			}
		}
	}
	return out, nil
}

// termIn reports the origin term spans attribute to the record at seq —
// 0 when unattributed (seq 0, or below a checkpoint horizon older than
// the frontier). An unattributed record passes every log-matching check
// vacuously: no claim, no conflict.
func termIn(spans []span, seq uint64) uint64 {
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].start <= seq {
			return spans[i].term
		}
	}
	return 0
}

// termAtLocked is termIn over this member's own frontier. Called with
// rt.mu held.
func (rt *Runtime) termAtLocked(log string, seq uint64) uint64 {
	return termIn(rt.frontier[log], seq)
}

// addSpanLocked attributes records from start onward to term, reporting
// whether the frontier changed. A start at or before an existing span's
// start supersedes that span and everything after it — the re-attribution
// path when a new reign overwrites what a phantom span claimed. Called
// with rt.mu held.
func (rt *Runtime) addSpanLocked(log string, term, start uint64) bool {
	spans := rt.frontier[log]
	for len(spans) > 0 && spans[len(spans)-1].start >= start {
		spans = spans[:len(spans)-1]
	}
	if len(spans) > 0 && spans[len(spans)-1].term == term {
		if len(rt.frontier[log]) != len(spans) {
			rt.frontier[log] = spans
			return true
		}
		return false
	}
	if rt.frontier == nil {
		rt.frontier = make(map[string][]span)
	}
	rt.frontier[log] = append(spans, span{term: term, start: start})
	return true
}

// quarantineLocked marks this member diverged: every replicated log is
// unverified until proven to derive from the current leader. Called with
// rt.mu held.
func (rt *Runtime) quarantineLocked() {
	if !rt.diverged {
		rt.stats.ForksDetected++
	}
	rt.diverged = true
	rt.unverified = make(map[string]bool)
	for _, name := range rt.st.shippable() {
		rt.unverified[name] = true
	}
	rt.persistLocked()
}

// verifyLogLocked records that log's content now provably derives from
// the current leader (log-matching at this member's tail, or wholesale
// checkpoint supersession); when every quarantined log is verified the
// member heals and regains candidacy. Called with rt.mu held.
func (rt *Runtime) verifyLogLocked(log string) {
	if !rt.diverged {
		return
	}
	delete(rt.unverified, log)
	if len(rt.unverified) > 0 {
		return
	}
	rt.diverged = false
	rt.risk = false
	rt.stats.Heals++
	rt.persistLocked()
}

// replicatorMain is the replicator guardian's Init and Recover process.
func replicatorMain(ctx *guardian.Ctx) {
	rs, ok := ctx.G.Node().Store().(*Store)
	if !ok {
		return // not a member node: inert
	}
	rt := rs.rt
	rt.attach(ctx)
	rt.receiveLoop(ctx)
}

// attach binds the runtime to its freshly started guardian: resolve
// tuning, assume initial leadership (first boot of Members[0] only), and
// start the ship loop.
func (rt *Runtime) attach(ctx *guardian.Ctx) {
	w := ctx.G.Node().World()
	t := w.Tuning()
	rt.mu.Lock()
	if rt.pendingReset.Load() {
		// The crash's deferred reset lost the race to this restart:
		// consume it now so no pre-crash leader state leaks into the
		// decisions below, then re-take the lock.
		rt.finishResetLocked()
		rt.mu.Lock()
	}
	rt.g = ctx.G
	rt.clock = w.Clock()
	rt.hb = rt.cfg.Heartbeat
	if rt.hb <= 0 {
		rt.hb = t.HeartbeatInterval
	}
	rt.threshold = rt.cfg.Threshold
	if rt.threshold <= 0 {
		rt.threshold = guardian.FailureThreshold
	}
	rt.lastHB = rt.clock.Now()
	initial := rt.cfg.Self == rt.cfg.Members[0] && rt.term == 0
	if initial {
		rt.term = 1
		rt.votedFor = rt.cfg.Self
	}
	rt.purged = false
	rt.mu.Unlock()
	if initial {
		rt.becomeLeader(1, false)
	} else {
		rt.purgeZombieApp()
	}
	ctx.G.Spawn("ship", rt.shipLoop)
}

// purgeZombieApp destroys application guardians this member is not
// serving: Node.Restart revives every guardian with a Recover process
// from its in-memory meta, including an old primary's application
// guardian — which must not take client traffic on a node that is no
// longer leader (its writes would be local-only and its acks unbacked).
// Called at attach and again on the first accepted heartbeat, because a
// restart may instantiate the application after the replicator.
func (rt *Runtime) purgeZombieApp() {
	rt.mu.Lock()
	g := rt.g
	tracked := rt.appG
	isLeader := rt.role == roleLeader
	rt.mu.Unlock()
	if g == nil || isLeader || rt.cfg.AppDef == "" {
		return
	}
	node := g.Node()
	for _, id := range node.Guardians() {
		zg, ok := node.GuardianByID(id)
		if !ok || zg == tracked {
			continue
		}
		if zg.DefName() == rt.cfg.AppDef {
			zg.SelfDestruct()
		}
	}
}

// adoptApp records the application guardian this (leader) member serves.
func (rt *Runtime) adoptApp(g *guardian.Guardian, ports []xrep.PortName) {
	rt.mu.Lock()
	rt.appG = g
	rt.appPorts = append([]xrep.PortName(nil), ports...)
	rt.registered = false
	if rt.appLog != g.LogName() {
		rt.appLog = g.LogName()
		rt.persistLocked()
	}
	if l, err := rt.st.innerLog(rt.appLog); err == nil {
		if rt.published == nil {
			rt.published = make(map[string]uint64)
		}
		if s := l.LastDurableSeq(); s > rt.published[rt.appLog] {
			rt.published[rt.appLog] = s
		}
	}
	rt.mu.Unlock()
	rt.pokeShip()
}

// pokeShip nudges the ship loop without waiting for its timer.
func (rt *Runtime) pokeShip() {
	select {
	case rt.shipC <- struct{}{}:
	default:
	}
}

// preSync is called by repLog.Sync BEFORE the batch becomes locally
// durable. On the leader it persists the risk marker — "records of my
// reign are about to exist whose group fate is unknown" — and attributes
// the batch to the current term in the frontier. The ordering is the
// point: if the process dies in ANY later window (records durable but
// never shipped included), the persisted risk quarantines the restarted
// member before its forked records can win an election. Costs one
// term-log fsync per reign per log, not per batch.
func (rt *Runtime) preSync(log string, firstSeq uint64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.role != roleLeader {
		return
	}
	changed := false
	if !rt.risk {
		rt.risk = true
		changed = true
	}
	if rt.dataTerm != rt.term {
		rt.dataTerm = rt.term
		changed = true
	}
	if rt.addSpanLocked(log, rt.term, firstSeq) {
		changed = true
	}
	if changed {
		rt.persistLocked()
	}
}

// replicate is the durability boundary: called by repLog.Sync after the
// batch is locally durable. On followers and unattached members it is a
// no-op (their writes are the apply path or pre-bootstrap setup). On the
// leader it publishes the batch to the ship loop and, in quorum mode,
// blocks until a majority holds it — or the fence closes.
func (rt *Runtime) replicate(log string, recs []durable.Record) {
	if len(recs) == 0 {
		return
	}
	rt.mu.Lock()
	if rt.role != roleLeader || rt.g == nil {
		rt.mu.Unlock()
		return
	}
	mode := rt.cfg.Mode
	hooks := rt.cfg.Hooks
	fence := rt.fence
	top := recs[len(recs)-1].Seq
	rt.mu.Unlock()

	if hooks.BeforeShip != nil {
		hooks.BeforeShip(log)
	}

	job := &shipJob{ch: make(chan struct{})}
	rt.mu.Lock()
	if rt.published == nil {
		rt.published = make(map[string]uint64)
	}
	if top > rt.published[log] {
		rt.published[log] = top
	}
	rt.jobs = append(rt.jobs, job)
	rt.stats.ShippedBatches++
	rt.stats.ShippedRecords += int64(len(recs))
	rt.mu.Unlock()
	rt.pokeShip()

	select {
	case <-job.ch:
	case <-fence:
		return
	}
	if hooks.AfterShip != nil {
		hooks.AfterShip(log)
	}
	if mode != ModeQuorum {
		return
	}

	rt.mu.Lock()
	if rt.fence != fence {
		rt.mu.Unlock()
		return
	}
	if rt.quorumForLocked(log, top) {
		rt.mu.Unlock()
	} else {
		w := &waiter{log: log, seq: top, ch: make(chan struct{})}
		rt.waiters = append(rt.waiters, w)
		rt.mu.Unlock()
		select {
		case <-w.ch:
		case <-fence:
			return
		}
	}
	if hooks.AfterQuorum != nil {
		hooks.AfterQuorum(log)
	}
}

// noteCheckpoint wakes the ship loop so followers learn about a
// compaction promptly (the checkpoint itself is re-read from the log).
func (rt *Runtime) noteCheckpoint(string, []byte, uint64) { rt.pokeShip() }

// quorumForLocked reports whether a majority of the group (counting this
// leader) durably holds log up to seq. Suspect members — self-reported
// diverged, or caught acking past the leader's own log — never count:
// their positions describe a forked log, not the group's. Called with
// rt.mu held.
func (rt *Runtime) quorumForLocked(log string, seq uint64) bool {
	count := 1 // the leader's own durable copy
	for _, mem := range rt.cfg.Members {
		if mem == rt.cfg.Self || rt.suspectedLocked(mem) {
			continue
		}
		if am, ok := rt.acks[mem]; ok && am[log] >= seq {
			count++
		}
	}
	return count >= rt.cfg.quorum()
}

// suspectedLocked reports whether a member's acks are currently
// untrusted, for either reason. Called with rt.mu held.
func (rt *Runtime) suspectedLocked(mem string) bool {
	return rt.suspect[mem] || len(rt.forked[mem]) > 0
}

// quorumHeldAllLocked reports whether every record written during this
// reign is quorum-held — the deposition check: false means acknowledged-
// or-in-flight records may exist that the new leader never saw. The tail
// (not just the published position) is compared against the reign's
// baseline: a batch can be locally durable before replicate() has
// published it, and those records are at risk too. Records inherited
// from earlier reigns are a previous leader's risk, not this one's —
// forks among them are caught by the wire-level log-matching checks.
// Called with rt.mu held.
func (rt *Runtime) quorumHeldAllLocked() bool {
	for _, name := range rt.st.shippable() {
		l, err := rt.st.innerLog(name)
		if err != nil {
			return false
		}
		tail := l.LastDurableSeq()
		if tail <= rt.baseline[name] {
			continue
		}
		if tail > rt.published[name] || !rt.quorumForLocked(name, tail) {
			return false
		}
	}
	return true
}

// becomeLeader assumes leadership at term. viaElection distinguishes a
// won election (take over the application guardian) from first-boot
// primacy (the caller bootstraps the application itself and hands it
// over with Store.Adopt). The term and role are re-checked under the
// lock: between tallying the winning vote and getting here, a
// concurrent tick can have started a new election (bumping rt.term to a
// term this member collected no quorum for) or a higher-term message
// can have deposed the candidacy — assuming leadership then would
// permit two leaders in one term.
func (rt *Runtime) becomeLeader(term uint64, viaElection bool) {
	rt.mu.Lock()
	if rt.role == roleLeader || rt.term != term || rt.diverged ||
		(viaElection && rt.role != roleCandidate) {
		rt.mu.Unlock()
		return
	}
	rt.role = roleLeader
	rt.leader = rt.cfg.Self
	rt.votes = nil
	rt.fence = make(chan struct{})
	rt.acks = make(map[string]map[string]uint64)
	rt.published = make(map[string]uint64)
	rt.baseline = make(map[string]uint64)
	rt.suspect = make(map[string]bool)
	rt.forked = make(map[string]map[string]bool)
	for _, name := range rt.st.shippable() {
		if l, err := rt.st.innerLog(name); err == nil {
			tail := l.LastDurableSeq()
			rt.published[name] = tail
			rt.baseline[name] = tail
		}
	}
	rt.waiters = nil
	rt.registered = false
	rt.risk = false // nothing written under this term yet
	rt.persistLocked()
	needTakeover := viaElection && rt.cfg.AppDef != "" && rt.appG == nil
	appLog := rt.appLog
	rt.mu.Unlock()
	if needTakeover {
		rt.takeover(appLog)
	}
	rt.pokeShip()
}

// takeover re-creates the application guardian from the replicated log.
func (rt *Runtime) takeover(appLog string) {
	rt.mu.Lock()
	g := rt.g
	rt.mu.Unlock()
	if g == nil {
		return
	}
	node := g.Node()
	if appLog == "" {
		// Never heard a log name from the old primary: look for a shipped
		// log of the definition's, else start the group's log fresh.
		prefix := rt.cfg.AppDef + "-"
		for _, n := range rt.st.shippable() {
			if strings.HasPrefix(n, prefix) {
				appLog = n
				break
			}
		}
		if appLog == "" {
			appLog = rt.cfg.AppDef + "-" + rt.cfg.Group
		}
	}
	c, err := node.Takeover(rt.cfg.AppDef, appLog, rt.cfg.AppArgs...)
	if err != nil {
		return
	}
	ng, ok := node.GuardianByID(c.GuardianID)
	if !ok {
		return
	}
	rt.mu.Lock()
	rt.appG = ng
	rt.appPorts = append([]xrep.PortName(nil), c.Ports...)
	rt.registered = false
	rt.stats.Takeovers++
	if rt.appLog != appLog {
		rt.appLog = appLog
		rt.persistLocked()
	}
	rt.mu.Unlock()
}

// stepDownLocked adopts a higher term, deposing this member if it led.
// Called with rt.mu held; the caller MUST SelfDestruct the returned
// application guardian BEFORE closing the returned fence — that order is
// what guarantees a fence-released Sync cannot acknowledge its client.
func (rt *Runtime) stepDownLocked(newTerm uint64) (appG *guardian.Guardian, fence chan struct{}) {
	wasLeader := rt.role == roleLeader
	rt.term = newTerm
	rt.votedFor = ""
	rt.role = roleFollower
	rt.votes = nil
	rt.leader = ""
	if wasLeader {
		if !rt.quorumHeldAllLocked() {
			// Locally durable records the group may not hold: this
			// member's log has forked from the new leader's. It must not
			// lead again until healed (DESIGN §12).
			rt.quarantineLocked()
		}
		rt.risk = false // reign over; its outcome is now resolved precisely
		appG = rt.appG
		rt.appG = nil
		rt.appPorts = nil
		fence = rt.fence
		rt.fence = nil
		rt.registered = false
		rt.waiters = nil
	}
	rt.lastHB = rt.clock.Now()
	rt.persistLocked()
	return appG, fence
}

// observe processes an incoming message's term. It returns true when the
// message is stale (lower term) and must be rejected; otherwise it has
// adopted any higher term (deposing a stale self) and, when the message
// names the current leader, refreshed the heartbeat clock.
func (rt *Runtime) observe(term uint64, leader, appLog string) (stale bool) {
	rt.mu.Lock()
	if term < rt.term {
		rt.stats.FencedStale++
		rt.mu.Unlock()
		return true
	}
	var appG *guardian.Guardian
	var fence chan struct{}
	if term > rt.term {
		appG, fence = rt.stepDownLocked(term)
	}
	if leader != "" && leader != rt.cfg.Self {
		rt.leader = leader
		rt.lastHB = rt.clock.Now()
		if rt.role == roleCandidate {
			rt.role = roleFollower
			rt.votes = nil
		}
		if appLog != "" && rt.appLog != appLog {
			rt.appLog = appLog
			rt.persistLocked()
		}
	}
	rt.mu.Unlock()
	if appG != nil {
		appG.SelfDestruct()
	}
	if fence != nil {
		close(fence)
	}
	return false
}

// bounce tells a stale sender what the current term is — the deposition
// signal an old primary cut off by a partition eventually receives.
func (rt *Runtime) bounce(pr *guardian.Process, to string) {
	rt.mu.Lock()
	term, leader, appLog := rt.term, rt.leader, rt.appLog
	rt.mu.Unlock()
	_ = pr.Send(PortAt(to), "rep_heartbeat", rt.cfg.Group, int64(term), leader, appLog)
}

// reset returns the runtime to a blank follower: the node crashed (store
// Crash). Persisted term state survives; the fence is closed so any Sync
// blocked in replicate returns (its guardian is already dead, so no
// acknowledgement escapes). A crashing leader evaluates its divergence
// exactly the way a live deposition would — the in-memory Runtime
// survives a simulated crash, so the quarantine must be drawn here too,
// not only in stepDownLocked. Nothing is persisted: the store has
// already crashed, and the persisted risk flag covers real process
// death.
// A crash triggered by a storage fault arrives from INSIDE one of the
// runtime's own critical sections (the fault wrapper fail-stops the node
// before a term-log AppendSync returns, and that persist holds mu), so
// reset must not block on mu unconditionally: it marks the reset pending
// and lets the next lock acquisition — the spawned finisher once the
// persist's section unwinds, or attach on restart at the latest —
// consume it. Both run before any post-restart decision, and the fork
// evaluation sees the same volatile ack state either way.
func (rt *Runtime) reset() {
	rt.pendingReset.Store(true)
	if rt.mu.TryLock() {
		rt.finishResetLocked()
		return
	}
	go func() {
		rt.mu.Lock()
		rt.finishResetLocked()
	}()
}

// finishResetLocked consumes a pending reset. Called with mu held; always
// releases it.
func (rt *Runtime) finishResetLocked() {
	if !rt.pendingReset.Swap(false) {
		rt.mu.Unlock()
		return
	}
	if rt.role == roleLeader && !rt.quorumHeldAllLocked() {
		if !rt.diverged {
			rt.stats.ForksDetected++
		}
		rt.diverged = true
		rt.unverified = make(map[string]bool)
		for _, name := range rt.st.shippable() {
			rt.unverified[name] = true
		}
	}
	rt.risk = false
	rt.resetLocked()
	fence := rt.fence
	rt.fence = nil
	rt.mu.Unlock()
	if fence != nil {
		close(fence)
	}
}

// shutdown is reset's graceful twin: the world is closing in an orderly
// way, so the reign's outcome can be resolved and PERSISTED — a leader
// whose every record is quorum-held restarts eligible instead of
// conservatively quarantined.
func (rt *Runtime) shutdown() {
	rt.mu.Lock()
	if rt.role == roleLeader {
		if rt.quorumHeldAllLocked() {
			rt.risk = false
		} else {
			rt.quarantineLocked()
			rt.risk = false
		}
		rt.persistLocked()
	}
	rt.resetLocked()
	fence := rt.fence
	rt.fence = nil
	rt.mu.Unlock()
	if fence != nil {
		close(fence)
	}
}

// resetLocked clears the volatile role state shared by reset and
// shutdown. Called with rt.mu held; the caller handles the fence.
func (rt *Runtime) resetLocked() {
	rt.role = roleFollower
	rt.leader = ""
	rt.votes = nil
	rt.appG = nil
	rt.appPorts = nil
	rt.registered = false
	rt.acks = nil
	rt.published = nil
	rt.baseline = nil
	rt.suspect = nil
	rt.forked = nil
	rt.waiters = nil
	rt.jobs = nil
	if rt.clock != nil {
		rt.lastHB = rt.clock.Now()
	}
	rt.g = nil
}

// --- ship loop -------------------------------------------------------

// shipLoop is the replicator's clocked process: it transmits pending
// batches and heartbeats while leader, and watches for leader silence
// while follower.
func (rt *Runtime) shipLoop(pr *guardian.Process) {
	for {
		rt.mu.Lock()
		hb := rt.hb
		rt.mu.Unlock()
		t := rt.clock.NewTimer(hb)
		select {
		case <-pr.Killed():
			t.Stop()
			return
		case <-rt.shipC:
			t.Stop()
		case <-t.C():
		}
		rt.tick(pr)
	}
}

// electionJitterLocked spreads member timeouts so two followers rarely
// stand in the same instant; deterministic in (self, term) so a DST
// schedule replays identically. Called with rt.mu held.
//
// The range matters: under a simulated clock every member's tick timer
// fires at the SAME virtual instants, so election timing quantizes to
// whole ticks — a jitter smaller than one heartbeat is absorbed entirely
// by that quantization and two candidates that once collided collide in
// every later term (a livelock the DST harness found). Spanning
// threshold+2 heartbeats gives the jitter that many distinct tick
// buckets, and a fresh (self, term) draw each round, so a split vote
// almost surely separates within a couple of terms.
func (rt *Runtime) electionJitterLocked() time.Duration {
	h := fnv.New64a()
	_, _ = h.Write([]byte(rt.cfg.Self))
	var b [8]byte
	for i, t := 0, rt.term; i < 8; i, t = i+1, t>>8 {
		b[i] = byte(t)
	}
	_, _ = h.Write(b[:])
	span := rt.hb * time.Duration(rt.threshold+2)
	return time.Duration(h.Sum64() % uint64(span))
}

// tick is one beat: leader shipping or follower failure detection, then
// release of batches published since the last beat.
func (rt *Runtime) tick(pr *guardian.Process) {
	now := rt.clock.Now()
	rt.mu.Lock()
	r := rt.role
	term := rt.term
	jobs := rt.jobs
	rt.jobs = nil
	timeout := rt.hb*time.Duration(rt.threshold+1) + rt.electionJitterLocked()
	electDue := r != roleLeader && !rt.diverged && now.Sub(rt.lastHB) > timeout
	rt.mu.Unlock()

	if r == roleLeader {
		rt.leaderTick(pr, term)
	} else if electDue {
		rt.startElection(pr)
	}
	for _, j := range jobs {
		close(j.ch)
	}
}

// leaderTick heartbeats the group, ships every follower the suffix (or
// checkpoint) it lacks, and keeps the service name bound.
func (rt *Runtime) leaderTick(pr *guardian.Process, term uint64) {
	rt.mu.Lock()
	self := rt.cfg.Self
	appLog := rt.appLog
	published := make(map[string]uint64, len(rt.published))
	for k, v := range rt.published {
		published[k] = v
	}
	frontier := make(map[string][]span, len(rt.frontier))
	for k, v := range rt.frontier {
		frontier[k] = append([]span(nil), v...)
	}
	acks := make(map[string]map[string]uint64, len(rt.acks))
	for mem, am := range rt.acks {
		cp := make(map[string]uint64, len(am))
		for k, v := range am {
			cp[k] = v
		}
		acks[mem] = cp
	}
	needReg := rt.cfg.Service != "" && !rt.registered &&
		rt.cfg.ServicePort < len(rt.appPorts)
	var svcPort xrep.PortName
	if needReg {
		svcPort = rt.appPorts[rt.cfg.ServicePort]
	}
	nsReply := rt.nsReply
	rt.mu.Unlock()

	for _, mem := range rt.cfg.Members {
		if mem != self {
			_ = pr.Send(PortAt(mem), "rep_heartbeat", rt.cfg.Group, int64(term), self, appLog)
		}
	}

	for name, p := range published {
		l, err := rt.st.innerLog(name)
		if err != nil {
			continue
		}
		cp, recs, rerr := l.Recover()
		if rerr != nil && rerr != durable.ErrNoCheckpoint {
			continue
		}
		cpAt := l.LastDurableSeq()
		if len(recs) > 0 {
			cpAt = recs[0].Seq - 1
		}
		for _, mem := range rt.cfg.Members {
			if mem == self {
				continue
			}
			am, known := acks[mem]
			if !known {
				continue // no ack heard yet: its position is unknown
			}
			a := am[name]
			if a >= p {
				continue
			}
			if a < cpAt {
				// The follower is behind the compaction horizon: records
				// it needs no longer exist, ship the checkpoint instead.
				if rerr == nil {
					_ = pr.Send(PortAt(mem), "rep_checkpoint", rt.cfg.Group,
						int64(term), name, xrep.Bytes(cp), int64(cpAt),
						int64(termIn(frontier[name], cpAt)))
					rt.mu.Lock()
					rt.stats.CheckpointsShipped++
					rt.mu.Unlock()
				}
				continue
			}
			batch := make(xrep.Seq, 0, shipBatchMax)
			for _, rec := range recs {
				if rec.Seq <= a || rec.Seq > p {
					continue
				}
				batch = append(batch, xrep.Seq{xrep.Int(rec.Seq),
					xrep.Int(termIn(frontier[name], rec.Seq)), xrep.Bytes(rec.Data)})
				if len(batch) == shipBatchMax {
					break
				}
			}
			if len(batch) > 0 {
				_ = pr.Send(PortAt(mem), "rep_append", rt.cfg.Group, int64(term), name,
					int64(termIn(frontier[name], a)), batch)
			}
		}
	}

	if needReg {
		_ = pr.SendReplyTo(rt.cfg.NS, nsReply, "register_keyed",
			rt.cfg.Service, svcPort, rt.cfg.Group)
	}
}

// electionPositionsLocked snapshots this member's durable position on
// every application log, the per-log completeness measure elections
// compare — never a sum across logs, which would let a candidate trade
// surplus in one log for missing committed records in another. Called
// with rt.mu held.
func (rt *Runtime) electionPositionsLocked() xrep.Seq {
	pos := xrep.Seq{}
	for _, name := range rt.st.shippable() {
		if l, err := rt.st.innerLog(name); err == nil {
			pos = append(pos, xrep.Seq{xrep.Str(name), xrep.Int(l.LastDurableSeq())})
		}
	}
	return pos
}

// candidateCompleteLocked reports whether the candidate's per-log
// positions are at least as complete as this voter's on EVERY log the
// voter holds; a log the candidate never mentioned counts as position 0.
// Called with rt.mu held.
func (rt *Runtime) candidateCompleteLocked(positions map[string]uint64) bool {
	for _, name := range rt.st.shippable() {
		l, err := rt.st.innerLog(name)
		if err != nil {
			return false
		}
		if positions[name] < l.LastDurableSeq() {
			return false
		}
	}
	return true
}

// startElection stands for leadership of the next term.
func (rt *Runtime) startElection(pr *guardian.Process) {
	rt.mu.Lock()
	if rt.role == roleLeader || rt.diverged {
		rt.mu.Unlock()
		return
	}
	rt.term++
	rt.role = roleCandidate
	rt.votedFor = rt.cfg.Self
	rt.votes = map[string]bool{rt.cfg.Self: true}
	rt.leader = ""
	rt.lastHB = rt.clock.Now()
	rt.stats.Elections++
	rt.persistLocked()
	term := rt.term
	lastTerm := rt.dataTerm
	positions := rt.electionPositionsLocked()
	rt.mu.Unlock()

	if rt.cfg.quorum() == 1 {
		rt.becomeLeader(term, true)
		return
	}
	for _, mem := range rt.cfg.Members {
		if mem != rt.cfg.Self {
			_ = pr.Send(PortAt(mem), "rep_vote_req", rt.cfg.Group,
				int64(term), int64(lastTerm), positions, rt.cfg.Self)
		}
	}
}

// --- receive loop ----------------------------------------------------

// receiveLoop handles the replication stream, the election protocol, and
// name-service replies until the guardian dies.
func (rt *Runtime) receiveLoop(ctx *guardian.Ctx) {
	nsReply, err := ctx.G.NewPort(nameserv.ClientReplyType, 16)
	if err != nil {
		return
	}
	rt.mu.Lock()
	rt.nsReply = nsReply.Name()
	rt.mu.Unlock()
	group := rt.cfg.Group
	mine := func(m *guardian.Message) bool { return m.Str(0) == group }
	nop := func(*guardian.Process, *guardian.Message) {}

	guardian.NewReceiver(ctx.Ports[0], nsReply).
		When("rep_append", func(pr *guardian.Process, m *guardian.Message) {
			if !mine(m) {
				return
			}
			rt.onAppend(pr, m)
		}).
		When("rep_checkpoint", func(pr *guardian.Process, m *guardian.Message) {
			if !mine(m) {
				return
			}
			rt.onCheckpoint(pr, m)
		}).
		When("rep_ack", func(pr *guardian.Process, m *guardian.Message) {
			if !mine(m) {
				return
			}
			rt.onAck(pr, m)
		}).
		When("rep_heartbeat", func(pr *guardian.Process, m *guardian.Message) {
			if !mine(m) {
				return
			}
			rt.onHeartbeat(pr, m)
		}).
		When("rep_fork", func(pr *guardian.Process, m *guardian.Message) {
			if !mine(m) {
				return
			}
			rt.onFork(pr, m)
		}).
		When("rep_vote_req", func(pr *guardian.Process, m *guardian.Message) {
			if !mine(m) {
				return
			}
			rt.onVoteReq(pr, m)
		}).
		When("rep_vote", func(pr *guardian.Process, m *guardian.Message) {
			if !mine(m) {
				return
			}
			rt.onVote(pr, m)
		}).
		When("rep_whois", func(pr *guardian.Process, m *guardian.Message) {
			if m.ReplyTo.IsZero() {
				return
			}
			rt.mu.Lock()
			leader, term := rt.leader, rt.term
			ready := rt.role == roleLeader && rt.appG != nil && rt.appG.Alive()
			rt.mu.Unlock()
			_ = pr.Send(m.ReplyTo, "rep_leader", leader, int64(term), ready)
		}).
		When(nameserv.OutcomeBound, func(_ *guardian.Process, _ *guardian.Message) {
			rt.mu.Lock()
			rt.registered = true
			rt.mu.Unlock()
		}).
		When(nameserv.OutcomeNotBound, nop).
		When(nameserv.OutcomeDropped, nop). // name service busy: re-register next tick
		When(nameserv.OutcomeDenied, nop).  // foreign owner holds the name; retrying is harmless
		When("binding", nop).
		When("bindings", nop).
		// Ring-membership replies (§14) are deliverable on any name-service
		// client port; the replicator never asks for them, so they are noise.
		When(nameserv.RingStateReply, nop).
		When(nameserv.RingStaged, nop).
		When(nameserv.RingCommitted, nop).
		When(nameserv.RingStale, nop).
		WhenFailure(func(_ *guardian.Process, _ string, _ *guardian.Message) {
			// §3.4 failure arm: a send to a crashed member bounced (their
			// primordial guardian reported the dead port). The failure
			// detector here is heartbeat silence, not bounces: nothing to do.
		}).
		Loop(ctx.Proc, nil)
}

// onAppend is the follower apply path: records go in primary order or
// not at all, one Sync per message, then the durable position is acked.
//
// Before anything is applied the batch is log-matched: the leader stamps
// every record with its origin term and the batch with prevTerm, the
// origin term of the leader's record just before it. If this member's
// own attribution disagrees at any overlapping position, the logs forked
// there — the old silent-retention hole — and the member quarantines
// itself instead of acking as caught up. The same stamp heals: a
// quarantined member whose record at its exact tail matches the leader's
// has proven (by the log-matching property: same position, same origin
// term ⇒ identical prefixes) that its whole log derives from the
// leader's, so the quarantine lifts and the apply proceeds.
func (rt *Runtime) onAppend(pr *guardian.Process, m *guardian.Message) {
	term := uint64(m.Int(1))
	if rt.observe(term, m.SrcNode, "") {
		rt.bounce(pr, m.SrcNode)
		return
	}
	name := m.Str(2)
	prevTerm := uint64(m.Int(3))
	recs := m.Seq(4)
	type shipped struct {
		seq, origin uint64
		data        []byte
	}
	batch := make([]shipped, 0, len(recs))
	for _, rv := range recs {
		f := xrep.ReadSeq(rv, 3)
		batch = append(batch, shipped{uint64(f.Int()), uint64(f.Int()), f.Bytes()})
		if f.Err() != nil {
			return // a batch is taken whole or not at all; the leader re-ships
		}
	}
	if len(batch) == 0 {
		return
	}
	l, err := rt.st.innerLog(name)
	if err != nil {
		return
	}
	last := l.LastDurableSeq()
	prevSeq := batch[0].seq - 1

	rt.mu.Lock()
	// Log-matching at the batch boundary and across the overlap region.
	conflict := false
	if prevSeq > 0 && prevSeq <= last && prevTerm != 0 {
		if mine := rt.termAtLocked(name, prevSeq); mine != 0 && mine != prevTerm {
			conflict = true
		}
	}
	for _, r := range batch {
		if r.seq > last || r.origin == 0 {
			continue
		}
		if mine := rt.termAtLocked(name, r.seq); mine != 0 && mine != r.origin {
			conflict = true
		}
	}
	if conflict {
		rt.quarantineLocked()
	} else if rt.diverged && rt.unverified[name] && prevSeq == last {
		// The leader is extending exactly this member's tail and the
		// origin terms agree there (or the tail is empty/unattributed, in
		// which case nothing local can conflict): the local log is a
		// prefix of the leader's. Heal this log.
		rt.verifyLogLocked(name)
	}
	// A still-unverified log must not be extended: appending the group's
	// records after a forked prefix would interleave two histories.
	blocked := rt.diverged && rt.unverified[name]
	var apply []shipped
	if !blocked {
		next := last + 1
		changed := false
		maxOrigin := rt.dataTerm
		for _, r := range batch {
			if r.seq <= last {
				continue // duplicate of an already-durable record
			}
			if r.seq != next {
				break // gap: stop, the ack tells the leader where to resume
			}
			apply = append(apply, r)
			next++
			// Attribute BEFORE the record becomes durable: a phantom span
			// past the tail is harmless, an unattributed durable record
			// would dodge every future log-matching check.
			if r.origin != 0 {
				if rt.addSpanLocked(name, r.origin, r.seq) {
					changed = true
				}
				if r.origin > maxOrigin {
					maxOrigin = r.origin
				}
			}
		}
		if maxOrigin != rt.dataTerm {
			rt.dataTerm = maxOrigin
			changed = true
		}
		if changed {
			rt.persistLocked()
		}
	}
	rt.mu.Unlock()

	if len(apply) > 0 {
		for _, r := range apply {
			l.Append(r.data)
		}
		l.Sync()
		rt.mu.Lock()
		rt.stats.AppliedRecords += int64(len(apply))
		rt.mu.Unlock()
	}
	rt.mu.Lock()
	div := rt.diverged
	rt.mu.Unlock()
	_ = pr.Send(PortAt(m.SrcNode), "rep_ack", rt.cfg.Group,
		int64(term), name, int64(l.LastDurableSeq()), div)
}

// onCheckpoint installs a catch-up checkpoint on a lagging follower. An
// install wholesale-supersedes the local log (the condition is upTo past
// this member's tail, so no local record survives it), which is also the
// heal path for a truly forked log: whatever conflicting records it
// held are gone, replaced by the leader's state.
func (rt *Runtime) onCheckpoint(pr *guardian.Process, m *guardian.Message) {
	term := uint64(m.Int(1))
	if rt.observe(term, m.SrcNode, "") {
		rt.bounce(pr, m.SrcNode)
		return
	}
	name := m.Str(2)
	state := m.Bytes(3)
	upTo := uint64(m.Int(4))
	cpTerm := uint64(m.Int(5))
	l, err := rt.st.innerLog(name)
	if err != nil {
		return
	}
	if upTo > l.LastDurableSeq() {
		l.Checkpoint(state, upTo)
		l.SkipTo(upTo)
		rt.mu.Lock()
		// The install replaced every local record of this log: re-seed
		// its term attribution from the leader's stamp and mark the log
		// verified (its content IS the leader's now).
		if rt.frontier == nil {
			rt.frontier = make(map[string][]span)
		}
		rt.frontier[name] = []span{{term: cpTerm, start: upTo}}
		if cpTerm > rt.dataTerm {
			rt.dataTerm = cpTerm
		}
		rt.persistLocked()
		rt.verifyLogLocked(name)
		rt.mu.Unlock()
	}
	rt.mu.Lock()
	div := rt.diverged
	rt.mu.Unlock()
	_ = pr.Send(PortAt(m.SrcNode), "rep_ack", rt.cfg.Group,
		int64(term), name, int64(l.LastDurableSeq()), div)
}

// onFork handles a leader's fork notice: the leader caught this member
// acking a position past anything the leader ever held, so the member
// carries records the group never committed and must quarantine.
func (rt *Runtime) onFork(_ *guardian.Process, m *guardian.Message) {
	term := uint64(m.Int(1))
	if rt.observe(term, m.SrcNode, "") {
		return // stale notice from a deposed leader
	}
	rt.mu.Lock()
	if term == rt.term && rt.role != roleLeader {
		rt.quarantineLocked()
	}
	rt.mu.Unlock()
}

// onAck advances a follower's durable watermark and releases any Sync
// whose batch just reached quorum. Two fork screens run first: a member
// that reports itself diverged is suspect (its positions describe a
// forked log, not the group's), and an ack past the leader's own durable
// tail is impossible — the leader's tail is monotone within its reign,
// so such a position can only name records the group never committed.
// The impossible-ack case earns the member a rep_fork notice so it
// quarantines itself even though it never saw the conflict locally.
func (rt *Runtime) onAck(pr *guardian.Process, m *guardian.Message) {
	term := uint64(m.Int(1))
	name := m.Str(2)
	seq := uint64(m.Int(3))
	selfDiverged := m.Bool(4)
	mem := m.SrcNode
	var release []*waiter
	sendFork := false
	rt.mu.Lock()
	if term != rt.term || rt.role != roleLeader {
		if term < rt.term {
			rt.stats.FencedStale++
		}
		rt.mu.Unlock()
		return
	}
	if selfDiverged {
		rt.suspect[mem] = true
	} else {
		delete(rt.suspect, mem) // healed (or never suspect): trust resumes
	}
	possible := true
	if l, err := rt.st.innerLog(name); err == nil && seq > l.LastDurableSeq() {
		possible = false
		if !rt.suspectedLocked(mem) {
			rt.stats.ForksDetected++
		}
		if rt.forked[mem] == nil {
			rt.forked[mem] = make(map[string]bool)
		}
		rt.forked[mem][name] = true
		sendFork = true
	}
	if possible {
		// A possible position for THIS log retires its fork flag. That is
		// not yet proof the content matches — the leader's tail may simply
		// have grown past the member's — but a genuinely forked-ahead
		// member is always a deposed leader, which self-quarantines
		// (persisted risk / deposition check) and stays suspect via its
		// own div=true acks until provably healed. The fork flag is the
		// backstop for the window before that self-report arrives.
		if rt.forked[mem][name] {
			delete(rt.forked[mem], name)
			if len(rt.forked[mem]) == 0 {
				delete(rt.forked, mem)
			}
		}
		// Impossible positions are never stored: acks are monotone-max,
		// and one forked high-water mark would keep counting toward
		// quorum long after the member healed at a lower tail.
		am := rt.acks[mem]
		if am == nil {
			am = make(map[string]uint64)
			rt.acks[mem] = am
		}
		if seq > am[name] {
			am[name] = seq
		}
	}
	keep := rt.waiters[:0]
	for _, w := range rt.waiters {
		if w.log == name && rt.quorumForLocked(name, w.seq) {
			release = append(release, w)
		} else {
			keep = append(keep, w)
		}
	}
	rt.waiters = keep
	rt.mu.Unlock()
	if sendFork {
		_ = pr.Send(PortAt(mem), "rep_fork", rt.cfg.Group, int64(term), name)
	}
	for _, w := range release {
		close(w.ch)
	}
}

// onHeartbeat refreshes the failure detector and acks this member's
// durable positions so the leader knows where to resume shipping.
func (rt *Runtime) onHeartbeat(pr *guardian.Process, m *guardian.Message) {
	term := uint64(m.Int(1))
	leader := m.Str(2)
	appLog := m.Str(3)
	if rt.observe(term, leader, appLog) {
		rt.bounce(pr, m.SrcNode)
		return
	}
	if leader == rt.cfg.Self {
		return
	}
	rt.mu.Lock()
	needPurge := !rt.purged
	rt.purged = true
	div := rt.diverged
	rt.mu.Unlock()
	if needPurge {
		rt.purgeZombieApp()
	}
	// Ack every local application log AND the leader's announced log —
	// a fresh follower has no logs at all, and without this first ack at
	// seq 0 the leader would never learn where to start shipping.
	names := rt.st.shippable()
	if appLog != "" && !reservedLog(appLog) {
		seen := false
		for _, n := range names {
			if n == appLog {
				seen = true
				break
			}
		}
		if !seen {
			names = append(names, appLog)
		}
	}
	for _, name := range names {
		l, err := rt.st.innerLog(name)
		if err != nil {
			continue
		}
		_ = pr.Send(PortAt(leader), "rep_ack", rt.cfg.Group,
			int64(term), name, int64(l.LastDurableSeq()), div)
	}
}

// onVoteReq grants at most one vote per term, and only to a candidate
// whose log is at least as complete as this member's on EVERY log — the
// positions travel per log, because a summed measure would let surplus
// in one log mask quorum-committed records missing from another.
func (rt *Runtime) onVoteReq(pr *guardian.Process, m *guardian.Message) {
	term := uint64(m.Int(1))
	lastTerm := uint64(m.Int(2))
	cand := m.Str(4)
	positions := make(map[string]uint64)
	for _, pv := range m.Seq(3) {
		f := xrep.ReadSeq(pv, 2)
		name, seq := f.Str(), f.Int()
		if f.Err() != nil {
			return // no vote for a candidate whose positions do not read
		}
		positions[name] = uint64(seq)
	}
	if rt.observe(term, "", "") {
		rt.bounce(pr, m.SrcNode)
		return
	}
	rt.mu.Lock()
	grant := false
	if term == rt.term && rt.role != roleLeader &&
		(rt.votedFor == "" || rt.votedFor == cand) {
		if lastTerm > rt.dataTerm ||
			(lastTerm == rt.dataTerm && rt.candidateCompleteLocked(positions)) {
			grant = true
			rt.votedFor = cand
			rt.lastHB = rt.clock.Now() // defer own candidacy to the grantee
			rt.persistLocked()
		}
	}
	cur := rt.term
	rt.mu.Unlock()
	_ = pr.Send(PortAt(m.SrcNode), "rep_vote", rt.cfg.Group,
		int64(cur), grant, rt.cfg.Self)
}

// onVote tallies; a majority (counting self) wins the term. The term the
// quorum was collected for is captured under the lock and re-checked by
// becomeLeader: between tallying the winning vote here and assuming
// leadership there, a concurrent tick can start a fresh election
// (bumping rt.term to a term with no quorum behind it).
func (rt *Runtime) onVote(_ *guardian.Process, m *guardian.Message) {
	term := uint64(m.Int(1))
	granted := m.Bool(2)
	voter := m.Str(3)
	if rt.observe(term, "", "") {
		return
	}
	win := false
	var wonTerm uint64
	rt.mu.Lock()
	if granted && term == rt.term && rt.role == roleCandidate {
		if rt.votes == nil {
			rt.votes = make(map[string]bool)
		}
		rt.votes[voter] = true
		win = len(rt.votes) >= rt.cfg.quorum()
		wonTerm = rt.term
	}
	rt.mu.Unlock()
	if win {
		rt.becomeLeader(wonTerm, true)
	}
}

// --- accessors -------------------------------------------------------

// leaderInfo reports (leader, term, isSelf).
func (rt *Runtime) leaderInfo() (string, uint64, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.leader, rt.term, rt.role == roleLeader
}

// appGuardian returns the locally served application guardian.
func (rt *Runtime) appGuardian() *guardian.Guardian {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.appG
}

// appPortNames returns the served application guardian's ports.
func (rt *Runtime) appPortNames() []xrep.PortName {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]xrep.PortName(nil), rt.appPorts...)
}

// statsSnapshot copies the counters.
func (rt *Runtime) statsSnapshot() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stats
}

// isDiverged reports the quarantine fence (lifted on heal).
func (rt *Runtime) isDiverged() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.diverged
}
