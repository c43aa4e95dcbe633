package replica

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/fault"
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
	votedFor string
	leader   string
	appLog   string // the application guardian's log name, learned from Adopt or heartbeats
	lastHB   time.Time
	votes    map[string]bool

	// frontier maps each replicated log to its term attribution: spans
	// of (origin term, first seq), ascending by seq. It is the compact
	// persisted form of a per-record term stamp, and what makes the
	// log-matching rules possible without changing the WAL record
	// format.
	frontier map[string][]span

	// Leader-only state. fence is closed on deposition or crash; every
	// blocked replicate() select includes it, and the application
	// guardian is killed BEFORE it closes, so a Sync released by the
	// fence can never acknowledge its client (Process.send fails on a
	// killed guardian).
	fence     chan struct{}
	acks      map[string]map[string]progress // member -> log -> what its acks proved
	published map[string]uint64              // log -> highest seq handed to shipping
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

// progress is the leader's view of one member's copy of one log. match
// is the highest seq its acks proved identical to the leader's log (the
// only position quorum counts); next is where the next rep_append
// starts — lowered by every ack that did not match, so a forked member
// is probed back to the last position the two logs share.
type progress struct {
	match, next uint64
	unmatched   bool // the latest ack did not match: probe even at match >= published
}

// newRuntime builds the member's runtime, replaying persisted term state
// from the wrapped store. Every member restarts an ordinary follower:
// whatever its log holds that the group never committed, the fork rule
// truncates once a leader ships it the conflicting records.
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
	return rt, nil
}

// persistLocked snapshots (term, votedFor, appLog, 0, 0, 0, frontier) to
// the term log. The zeros hold the places of the retired dataTerm,
// diverged and risk fields, so term logs of either shape fold. Called
// with rt.mu held.
func (rt *Runtime) persistLocked() {
	rec := xrep.Seq{xrep.Int(rt.term), xrep.Str(rt.votedFor), xrep.Str(rt.appLog),
		xrep.Int(0), xrep.Int(0), xrep.Int(0), rt.frontierValueLocked()}
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
// persistLocked's inverse: it loads (term, votedFor, appLog, frontier)
// into rt. Older term logs stop after any field from the third on; the
// three retired integer fields are read for their kind and ignored, so a
// record that still says diverged or at risk restarts an ordinary
// follower.
func (rt *Runtime) foldTermState(v xrep.Value) (bool, error) {
	f := xrep.ReadSeq(v, 2)
	rt.term, rt.votedFor = uint64(f.Int()), f.Str()
	rt.appLog, rt.frontier = "", nil
	if f.More() {
		rt.appLog = f.Str()
	}
	for i := 0; i < 3 && f.More(); i++ {
		f.Int()
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
// the frontier).
func termIn(spans []span, seq uint64) uint64 {
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].start <= seq {
			return spans[i].term
		}
	}
	return 0
}

// sameTerm is the follower's log-matching comparison: an unattributed
// position (term 0) makes no claim, so it matches anything.
func sameTerm(a, b uint64) bool { return a == 0 || b == 0 || a == b }

// termAtLocked is termIn over this member's own frontier. Called with
// rt.mu held.
func (rt *Runtime) termAtLocked(log string, seq uint64) uint64 {
	return termIn(rt.frontier[log], seq)
}

// cutSpansLocked drops every span starting at or after from, reporting
// whether the frontier changed — the frontier half of a truncation. A
// span that started earlier keeps covering past from, but only phantom
// positions: nothing reads a term beyond the log's tail. Called with
// rt.mu held.
func (rt *Runtime) cutSpansLocked(log string, from uint64) bool {
	spans := rt.frontier[log]
	n := len(spans)
	for n > 0 && spans[n-1].start >= from {
		n--
	}
	if n == len(spans) {
		return false
	}
	rt.frontier[log] = spans[:n]
	return true
}

// addSpanLocked attributes records from start onward to term, reporting
// whether the frontier changed. A start at or before an existing span's
// start supersedes that span and everything after it — the re-attribution
// path when a new reign overwrites what a phantom span claimed. Called
// with rt.mu held.
func (rt *Runtime) addSpanLocked(log string, term, start uint64) bool {
	if spans := rt.frontier[log]; len(spans) > 0 &&
		spans[len(spans)-1].term == term && spans[len(spans)-1].start <= start {
		return false // already so attributed
	}
	cut := rt.cutSpansLocked(log, start)
	spans := rt.frontier[log]
	if len(spans) > 0 && spans[len(spans)-1].term == term {
		return cut
	}
	if rt.frontier == nil {
		rt.frontier = make(map[string][]span)
	}
	rt.frontier[log] = append(spans, span{term: term, start: start})
	return true
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
// durable. On the leader it attributes the batch to the current term in
// the frontier, so no durable record is ever unattributed — a record
// without a term would dodge every log-matching rule. Costs one
// term-log fsync per reign per log, not per batch.
func (rt *Runtime) preSync(log string, firstSeq uint64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.role == roleLeader && rt.addSpanLocked(log, rt.term, firstSeq) {
		rt.persistLocked()
	}
}

// replicate is the durability boundary: called by repLog.Sync after the
// batch is locally durable. On followers and unattached members it is a
// no-op (their writes are the apply path or pre-bootstrap setup). On the
// leader it publishes the batch to the ship loop and, in quorum mode,
// blocks until a majority holds it — or the fence closes. The batch is
// its n records up to seq top.
func (rt *Runtime) replicate(log string, top uint64, n int) {
	if n == 0 {
		return
	}
	rt.mu.Lock()
	if rt.role != roleLeader || rt.g == nil {
		rt.mu.Unlock()
		return
	}
	mode := rt.cfg.Mode
	node := rt.g.Node()
	fence := rt.fence
	rt.mu.Unlock()

	node.CrashPoint(fault.BeforeShip, log)

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
	rt.stats.ShippedRecords += int64(n)
	rt.mu.Unlock()
	rt.pokeShip()

	select {
	case <-job.ch:
	case <-fence:
		return
	}
	node.CrashPoint(fault.AfterShip, log)
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
	node.CrashPoint(fault.AfterQuorum, log)
}

// noteCheckpoint wakes the ship loop so followers learn about a
// compaction promptly (the checkpoint itself is re-read from the log).
func (rt *Runtime) noteCheckpoint(string, []byte, uint64) { rt.pokeShip() }

// quorumForLocked reports whether a majority of the group (counting this
// leader) durably holds log up to seq. Only positions an ack proved
// identical to the leader's count (rule 3), never a forked member's mere
// length. Called with rt.mu held.
func (rt *Runtime) quorumForLocked(log string, seq uint64) bool {
	count := 1 // the leader's own durable copy
	for _, mem := range rt.cfg.Members {
		if mem != rt.cfg.Self && rt.acks[mem][log].match >= seq {
			count++
		}
	}
	return count >= rt.cfg.quorum()
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
	if rt.role == roleLeader || rt.term != term ||
		(viaElection && rt.role != roleCandidate) {
		rt.mu.Unlock()
		return
	}
	rt.role = roleLeader
	rt.leader = rt.cfg.Self
	rt.votes = nil
	rt.fence = make(chan struct{})
	rt.acks = make(map[string]map[string]progress)
	rt.published = make(map[string]uint64)
	for _, name := range rt.st.shippable() {
		if l, err := rt.st.innerLog(name); err == nil {
			rt.published[name] = l.LastDurableSeq()
		}
	}
	rt.waiters = nil
	rt.registered = false
	rt.persistLocked()
	needTakeover := viaElection && rt.cfg.AppDef != "" && rt.appG == nil
	appLog, g := rt.appLog, rt.g
	rt.mu.Unlock()
	if needTakeover && g != nil {
		// The barrier waits for acks the receive loop handles: not here.
		g.Spawn("takeover", func(*guardian.Process) {
			if rt.commitReign(term) {
				rt.takeover(g.Node(), term, appLog)
			}
		})
	}
	rt.pokeShip()
}

// commitReign gets a record of this reign quorum-held before the
// taken-over application answers anything: Raft's entry at the start of a
// term. Until then the tail this member was elected with may be a deposed
// reign's suffix that no quorum matched, which a later leader's fork rule
// can still truncate — and a reply served from it with no Sync of its own
// (a dedup-cached retry, a read) would acknowledge an effect that is then
// lost. The barrier goes onto every application log through the
// replicated Sync, which in quorum mode returns once a majority matches
// it; Replay offers it to no folder. It reports whether this member still
// leads term.
func (rt *Runtime) commitReign(term uint64) bool {
	rec, _ := wire.MarshalValue(xrep.Rec{Name: guardian.BarrierRec})
	for _, name := range rt.st.shippable() {
		l, err := rt.st.OpenLog(name)
		if err != nil {
			continue
		}
		// Appended and attributed only while this member leads term: once
		// deposed, its logs take the apply path's records alone.
		rt.mu.Lock()
		lead := rt.role == roleLeader && rt.term == term
		if lead && rt.addSpanLocked(name, term, l.Append(rec)) {
			rt.persistLocked() // attributed before it can become durable
		}
		rt.mu.Unlock()
		if lead {
			l.Sync()
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.role == roleLeader && rt.term == term
}

// takeover re-creates the application guardian of term's reign from the
// replicated log.
func (rt *Runtime) takeover(node *guardian.Node, term uint64, appLog string) {
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
	if rt.role != roleLeader || rt.term != term {
		rt.mu.Unlock()
		ng.SelfDestruct() // deposed while it recovered: it must not serve
		return
	}
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
// acknowledgement escapes). Nothing is persisted: the store has already
// crashed.
// A crash triggered by a storage fault arrives from INSIDE one of the
// runtime's own critical sections (the fault wrapper fail-stops the node
// before a term-log AppendSync returns, and that persist holds mu), so
// reset must not block on mu unconditionally: it marks the reset pending
// and lets the next lock acquisition — the spawned finisher once the
// persist's section unwinds, or attach on restart at the latest —
// consume it. Both run before any post-restart decision.
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
	rt.resetLocked()
	fence := rt.fence
	rt.fence = nil
	rt.mu.Unlock()
	if fence != nil {
		close(fence)
	}
}

// shutdown is reset for an orderly close: nothing holds mu, so it waits
// for it.
func (rt *Runtime) shutdown() {
	rt.pendingReset.Store(true)
	rt.mu.Lock()
	rt.finishResetLocked()
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
	electDue := r != roleLeader && now.Sub(rt.lastHB) > timeout
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
	acks := make(map[string]map[string]progress, len(rt.acks))
	for mem, am := range rt.acks {
		cp := make(map[string]progress, len(am))
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
		cp, recs, cpAt, rerr := recoverAt(l)
		if rerr != nil && rerr != durable.ErrNoCheckpoint {
			continue
		}
		for _, mem := range rt.cfg.Members {
			am, known := acks[mem]
			if mem == self || !known {
				continue // no ack heard yet: its position is unknown
			}
			pg := am[name]
			if pg.match >= p && !pg.unmatched {
				continue
			}
			if pg.next < cpAt {
				// The records after the member's position no longer exist:
				// ship the checkpoint instead.
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
			// An empty batch is the probe of a member at or past p: "my log
			// ends here" (rule 2, onAppend).
			batch := make(xrep.Seq, 0, shipBatchMax)
			for _, rec := range recs {
				if rec.Seq <= pg.next || rec.Seq > p {
					continue
				}
				batch = append(batch, xrep.Seq{xrep.Int(rec.Seq),
					xrep.Int(termIn(frontier[name], rec.Seq)), xrep.Bytes(rec.Data)})
				if len(batch) == shipBatchMax {
					break
				}
			}
			_ = pr.Send(PortAt(mem), "rep_append", rt.cfg.Group, int64(term), name,
				int64(pg.next), int64(termIn(frontier[name], pg.next)), batch)
		}
	}

	if needReg {
		_ = pr.SendReplyTo(rt.cfg.NS, nsReply, "register_keyed",
			rt.cfg.Service, svcPort, rt.cfg.Group)
	}
}

// recoverAt is l.Recover plus the checkpoint watermark: every record at
// or below it lives only in the checkpoint.
func recoverAt(l durable.Log) (cp []byte, recs []durable.Record, at uint64, err error) {
	cp, recs, err = l.Recover()
	at = l.LastDurableSeq()
	if len(recs) > 0 {
		at = recs[0].Seq - 1
	}
	return cp, recs, at, err
}

// position is one log's claim in an election: its tail and the origin
// term of the record there.
type position struct{ seq, term uint64 }

// electionPositionsLocked snapshots this member's (log, seq, term at
// seq) on every application log, the per-log completeness measure
// elections compare — never a sum across logs, which would let a
// candidate trade surplus in one log for missing committed records in
// another. Called with rt.mu held.
func (rt *Runtime) electionPositionsLocked() xrep.Seq {
	pos := xrep.Seq{}
	for _, name := range rt.st.shippable() {
		if l, err := rt.st.innerLog(name); err == nil {
			seq := l.LastDurableSeq()
			pos = append(pos, xrep.Seq{xrep.Str(name), xrep.Int(seq), xrep.Int(rt.termAtLocked(name, seq))})
		}
	}
	return pos
}

// candidateCompleteLocked is rule 4: the candidate's (term, seq) must be
// lexicographically at least this voter's on EVERY log the voter holds;
// a log the candidate never mentioned counts as (0, 0). Called with
// rt.mu held.
func (rt *Runtime) candidateCompleteLocked(positions map[string]position) bool {
	for _, name := range rt.st.shippable() {
		l, err := rt.st.innerLog(name)
		if err != nil {
			return false
		}
		seq := l.LastDurableSeq()
		term, c := rt.termAtLocked(name, seq), positions[name]
		if c.term < term || c.term == term && c.seq < seq {
			return false
		}
	}
	return true
}

// startElection stands for leadership of the next term.
func (rt *Runtime) startElection(pr *guardian.Process) {
	rt.mu.Lock()
	if rt.role == roleLeader {
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
	positions := rt.electionPositionsLocked()
	rt.mu.Unlock()

	if rt.cfg.quorum() == 1 {
		rt.becomeLeader(term, true)
		return
	}
	for _, mem := range rt.cfg.Members {
		if mem != rt.cfg.Self {
			_ = pr.Send(PortAt(mem), "rep_vote_req", rt.cfg.Group,
				int64(term), positions, rt.cfg.Self)
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
	// mine keeps an arm to this group's messages.
	mine := func(arm func(*guardian.Process, *guardian.Message)) func(*guardian.Process, *guardian.Message) {
		return func(pr *guardian.Process, m *guardian.Message) {
			if m.Str(0) == group {
				arm(pr, m)
			}
		}
	}
	nop := func(*guardian.Process, *guardian.Message) {}

	guardian.NewReceiver(ctx.Ports[0], nsReply).
		When("rep_append", mine(rt.onAppend)).
		When("rep_checkpoint", mine(rt.onCheckpoint)).
		When("rep_ack", mine(rt.onAck)).
		When("rep_heartbeat", mine(rt.onHeartbeat)).
		When("rep_vote_req", mine(rt.onVoteReq)).
		When("rep_vote", mine(rt.onVote)).
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
// not at all, one Sync per message, then the position the batch proved
// is acked. The leader stamps every record with its origin term and the
// batch with (prevSeq, prevTerm), its own record just before it, and the
// fork rule takes the batch in two steps:
//
//  1. Matching: unless this member holds prevSeq with the same term (an
//     unattributed position makes no claim), nothing is applied, and the
//     ack names the seq just before this member's span that holds
//     prevSeq — the leader's next probe skips the whole conflicting
//     reign.
//  2. Truncation: past prevSeq, the first record whose origin term
//     differs from this member's there is where the logs forked; the
//     member truncates from it, trims its frontier, then applies the
//     batch. An empty batch is the leader saying its log ends at
//     prevSeq: a record past it from another reign conflicts with
//     whatever the leader writes there. A conflict at or below this
//     member's checkpoint cannot be truncated; the member applies nothing
//     and waits for a checkpoint install past its tail.
func (rt *Runtime) onAppend(pr *guardian.Process, m *guardian.Message) {
	term := uint64(m.Int(1))
	if rt.observe(term, m.SrcNode, "") {
		rt.bounce(pr, m.SrcNode)
		return
	}
	name := m.Str(2)
	prevSeq, prevTerm := uint64(m.Int(3)), uint64(m.Int(4))
	batch := make([]shipped, 0, len(m.Seq(5)))
	for _, rv := range m.Seq(5) {
		f := xrep.ReadSeq(rv, 3)
		batch = append(batch, shipped{uint64(f.Int()), uint64(f.Int()), f.Bytes()})
		if f.Err() != nil {
			return // a batch is taken whole or not at all; the leader re-ships
		}
	}
	if ack, ok := rt.apply(name, term, prevSeq, prevTerm, batch); ok {
		rt.sendAck(pr, m.SrcNode, term, name, ack)
	}
}

// apply takes one rep_append batch from the leader of term into log name
// under the fork rule (onAppend), reporting the seq to ack; ok is false
// when the log cannot be opened.
func (rt *Runtime) apply(name string, term, prevSeq, prevTerm uint64, batch []shipped) (ack uint64, ok bool) {
	l, err := rt.st.innerLog(name)
	if err != nil {
		return 0, false
	}
	last := l.LastDurableSeq()
	rt.mu.Lock()
	ack, cut, recs := rt.matchLocked(name, term, prevSeq, prevTerm, last, batch)
	rt.mu.Unlock()
	if cut != 0 {
		if _, _, at, _ := recoverAt(l); cut <= at {
			ack, cut, recs = cut-1, 0, nil
		} else {
			l.Truncate(cut)
		}
	}

	rt.mu.Lock()
	changed := cut != 0 && rt.cutSpansLocked(name, cut)
	if cut != 0 {
		rt.stats.ForksDetected++
	}
	for _, r := range recs {
		// Attribute BEFORE the record becomes durable: a phantom span
		// past the tail is harmless, an unattributed durable record
		// would dodge every future log-matching check.
		if r.origin != 0 && rt.addSpanLocked(name, r.origin, r.seq) {
			changed = true
		}
	}
	if changed {
		rt.persistLocked()
	}
	rt.mu.Unlock()

	if len(recs) > 0 {
		for _, r := range recs {
			l.Append(r.data)
		}
		l.Sync()
		rt.mu.Lock()
		rt.stats.AppliedRecords += int64(len(recs))
		rt.mu.Unlock()
	}
	return min(ack, l.LastDurableSeq()), true
}

// shipped is one record of a rep_append batch.
type shipped struct {
	seq, origin uint64
	data        []byte
}

// matchLocked applies the fork rule (onAppend) to a batch against this
// member's log of tail last, returning the seq to ack, where to truncate
// from (0: nowhere) and the records to apply. Called with rt.mu held.
func (rt *Runtime) matchLocked(name string, term, prevSeq, prevTerm, last uint64,
	batch []shipped) (ack, cut uint64, apply []shipped) {
	if prevSeq > last {
		return last, 0, nil // a gap: the ack tells the leader where to resume
	}
	if mine := rt.termAtLocked(name, prevSeq); !sameTerm(mine, prevTerm) {
		spans := rt.frontier[name]
		i := len(spans) - 1
		for spans[i].start > prevSeq {
			i--
		}
		return spans[i].start - 1, 0, nil
	}
	end := prevSeq
	for _, r := range batch {
		if r.seq != end+1 {
			break // not contiguous: take what precedes
		}
		end = r.seq
		if r.seq <= last && cut == 0 {
			if sameTerm(rt.termAtLocked(name, r.seq), r.origin) {
				continue // a record this member already holds
			}
			cut = r.seq
		}
		apply = append(apply, r)
	}
	if len(batch) == 0 && prevSeq < last && !sameTerm(rt.termAtLocked(name, prevSeq+1), term) {
		cut = prevSeq + 1
	}
	return end, cut, apply
}

// sendAck reports this member's copy of log at seq, with the origin term
// of its record there (rule 3: the leader counts it only on a match).
func (rt *Runtime) sendAck(pr *guardian.Process, to string, term uint64, name string, seq uint64) {
	rt.mu.Lock()
	at := rt.termAtLocked(name, seq)
	rt.mu.Unlock()
	_ = pr.Send(PortAt(to), "rep_ack", rt.cfg.Group, int64(term), name, int64(seq), int64(at))
}

// onCheckpoint takes the leader's checkpoint of log name — its state
// through upTo, where the leader's record has term cpTerm — and acks
// where the member's log now agrees with the leader's.
func (rt *Runtime) onCheckpoint(pr *guardian.Process, m *guardian.Message) {
	term := uint64(m.Int(1))
	if rt.observe(term, m.SrcNode, "") {
		rt.bounce(pr, m.SrcNode)
		return
	}
	name := m.Str(2)
	if ack, ok := rt.install(name, m.Bytes(3), uint64(m.Int(4)), uint64(m.Int(5))); ok {
		rt.sendAck(pr, m.SrcNode, term, name, ack)
	}
}

// install is onCheckpoint's decision, reporting the seq to ack; ok is
// false when the log cannot be opened. A member holding the leader's
// record at upTo shares everything through it, so it only acks upTo and
// the appends resume there. Any other member installs — a lagging one,
// or one whose log forked at or below upTo: the install supersedes its
// log through upTo and truncates whatever it holds past it. A fork under
// the member's own checkpoint (upTo below it) cannot be truncated; the
// member waits for a checkpoint at or past its own.
func (rt *Runtime) install(name string, state []byte, upTo, cpTerm uint64) (ack uint64, ok bool) {
	l, err := rt.st.innerLog(name)
	if err != nil {
		return 0, false
	}
	_, _, at, _ := recoverAt(l)
	last := l.LastDurableSeq()
	rt.mu.Lock()
	mine := rt.termAtLocked(name, upTo)
	rt.mu.Unlock()
	switch {
	case upTo <= last && mine == cpTerm:
		return upTo, true
	case upTo < at:
		return last, true
	}
	if upTo < last {
		l.Truncate(upTo + 1)
	}
	l.Checkpoint(state, upTo)
	l.SkipTo(upTo)
	rt.mu.Lock()
	if upTo <= last {
		rt.stats.ForksDetected++
	}
	// The install replaced every local record of this log: re-seed its
	// term attribution from the leader's stamp.
	rt.cutSpansLocked(name, 0)
	rt.addSpanLocked(name, cpTerm, upTo)
	rt.persistLocked()
	rt.mu.Unlock()
	return upTo, true
}

// onAck is rule 3: it counts a member's position toward quorum only when
// the leader holds that seq with the same origin term — then, by log
// matching, the member holds the leader's whole prefix — and releases
// any Sync whose batch just reached quorum. An unmatched ack (a forked
// record, or a position past the leader's own tail) only lowers where
// the leader probes that member next.
func (rt *Runtime) onAck(_ *guardian.Process, m *guardian.Message) {
	term := uint64(m.Int(1))
	name := m.Str(2)
	seq, at := uint64(m.Int(3)), uint64(m.Int(4))
	mem := m.SrcNode
	var release []*waiter
	rt.mu.Lock()
	if term != rt.term || rt.role != roleLeader {
		if term < rt.term {
			rt.stats.FencedStale++
		}
		rt.mu.Unlock()
		return
	}
	am := rt.acks[mem]
	if am == nil {
		am = make(map[string]progress)
		rt.acks[mem] = am
	}
	pg, seen := am[name]
	if !seen {
		pg.next = rt.published[name]
	}
	l, err := rt.st.innerLog(name)
	if pg.unmatched = err != nil || seq > l.LastDurableSeq() || rt.termAtLocked(name, seq) != at; pg.unmatched {
		pg.next = min(pg.next, seq, rt.published[name])
	} else {
		pg.match, pg.next = max(pg.match, seq), seq
	}
	am[name] = pg
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
	rt.mu.Unlock()
	if needPurge {
		rt.purgeZombieApp()
	}
	// Ack every local application log AND the leader's announced log —
	// a fresh follower has no logs at all, and without this first ack at
	// seq 0 the leader would never learn where to start shipping.
	names := rt.st.shippable()
	if appLog != "" && !reservedLog(appLog) && !slices.Contains(names, appLog) {
		names = append(names, appLog)
	}
	for _, name := range names {
		l, err := rt.st.innerLog(name)
		if err != nil {
			continue
		}
		rt.sendAck(pr, leader, term, name, l.LastDurableSeq())
	}
}

// onVoteReq grants at most one vote per term, and only to a candidate
// whose log is at least as complete as this member's on EVERY log (rule
// 4) — the positions travel per log, because a summed measure would let
// surplus in one log mask quorum-committed records missing from another.
func (rt *Runtime) onVoteReq(pr *guardian.Process, m *guardian.Message) {
	term := uint64(m.Int(1))
	cand := m.Str(3)
	positions := make(map[string]position)
	for _, pv := range m.Seq(2) {
		f := xrep.ReadSeq(pv, 3)
		name, seq, at := f.Str(), f.Int(), f.Int()
		if f.Err() != nil {
			return // no vote for a candidate whose positions do not read
		}
		positions[name] = position{seq: uint64(seq), term: uint64(at)}
	}
	if rt.observe(term, "", "") {
		rt.bounce(pr, m.SrcNode)
		return
	}
	rt.mu.Lock()
	grant := false
	if term == rt.term && rt.role != roleLeader &&
		(rt.votedFor == "" || rt.votedFor == cand) && rt.candidateCompleteLocked(positions) {
		grant = true
		rt.votedFor = cand
		rt.lastHB = rt.clock.Now() // defer own candidacy to the grantee
		rt.persistLocked()
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
