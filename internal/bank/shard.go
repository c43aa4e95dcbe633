package bank

// Shard mode: a branch guardian as one member of a consistent-hash ring
// (package ring), with live range migration. The branch keeps its whole
// vocabulary — at-most-once ops, native idempotent ops, audit — and gains:
//
//   - an ownership filter in front of the amo dedup hook: a request whose
//     key hashes to another member is answered with amo.OutcomeMoved (a
//     routing redirect carrying the owner's port and the ring epoch), and
//     a multi-key request whose keys no longer share an owner with
//     amo.OutcomeSplit (the Router re-issues it as a 2PC transaction);
//   - guardian-to-guardian handoff: the DESTINATION pulls a moving range
//     with a snapshot copy (migrate_snap/migrate_part), a tail catch-up
//     and atomic ownership cut at the source (migrate_cut), and a single
//     durable install at the destination (handoff_install) that carries
//     the account state AND the source's amo dedup snapshot, so
//     exactly-once survives the migration;
//   - escrow-style 2PC participation for cross-shard transfers: tpc's one
//     participant machine on the native port, over an escrow resource.
//
// Authority is presence-based: an account present in the table is served
// here, full stop; an absent account is resolved through the latest
// adopted ring. The source deletes a range's accounts in the same durable
// record that flips its ring (bank/moved_out), and the destination creates
// them in the record that flips its own (bank/install), so at every
// instant each account has exactly one serving owner. The window between
// cut and install — where both sides redirect — costs liveness (bounded by
// amo.MaxRedirects plus retry backoff), never safety.
//
// Every shard state change is a logged record folded through ONE
// deterministic function (shardCore.fold), used identically by the live
// arms, crash recovery, and the independent replay checker
// (ReplayAccountsFrom), so the recovery-equals-replay invariant extends to
// migrations.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/amo"
	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/ring"
	"repro/internal/sendprim"
	"repro/internal/tpc"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// Shard record names (stable-log and argument records).
const (
	shardArgRec = "bank/shard"
	ringRec     = "bank/ring"
	seedRec     = "bank/seed"
	movedOutRec = "bank/moved_out"
	installRec  = "bank/install"
	ackedRec    = "bank/acked"
	tpcRec      = "bank/tpc"
)

// ShardArg builds the creation argument that puts a branch in shard mode
// as the named ring member. Pass it to CreateGuardian alongside the usual
// branch arguments.
func ShardArg(member string) xrep.Rec {
	return xrep.Rec{Name: shardArgRec, Fields: xrep.Seq{xrep.Str(member)}}
}

// shardMember extracts a ShardArg's member name; ok is false for other
// argument values.
func shardMember(v xrep.Value) (string, bool) {
	f := xrep.ReadRec(v, shardArgRec, 1)
	name := f.Str()
	return name, f.Err() == nil
}

// HandoffID names one range migration deterministically, so a driver
// retrying after any crash converges on the same handoff state.
func HandoffID(ringName string, epoch int64, from, to string) string {
	return fmt.Sprintf("%s/%d/%s>%s", ringName, epoch, from, to)
}

// MigrateReplyType receives the replies of the shard-control vocabulary:
// the rebalance driver's calls (ring_update, seed, handoff_pull,
// handoff_status, migrate_ack) and the destination puller's calls
// (migrate_snap, migrate_part, migrate_cut, handoff_stage,
// handoff_install).
var MigrateReplyType = guardian.NewPortType("bank_migrate_reply_port").
	Msg("ring_ok", xrep.KindInt).              // adopted epoch
	Msg("seeded", xrep.KindInt, xrep.KindInt). // created, total accounts
	Msg("pull_ok").
	Msg("pull_denied", xrep.KindString).
	Msg("handoff_state", xrep.KindString). // "installed" | "pulling" | "unknown"
	Msg("staged", xrep.KindInt).           // staged account count so far
	Msg("installed").
	Msg("install_denied", xrep.KindString).
	Msg("snap_meta", xrep.KindInt, xrep.KindInt).                  // generation, account count
	Msg("snap_part", xrep.KindInt, xrep.KindInt, xrep.KindSeq).    // next cursor, done flag, entries
	Msg("cut_done", xrep.KindInt, xrep.KindSeq, guardian.AnyKind). // generation echo, tail ops, dedup snapshot
	Msg("cut_busy").
	Msg("migrate_denied", xrep.KindString).
	Msg("ack_ok")

// ShardHooks are crash-window callbacks for the cross-process handoff
// demo: cmd/node registers hooks that exit the process at a chosen point,
// so a crash matrix can kill a guardian immediately before or after each
// durable handoff step. Hooks run on the guardian's receive process.
type ShardHooks struct {
	BeforeCut, AfterCut         func(hid string)
	BeforeInstall, AfterInstall func(hid string)
	// AfterPrepare runs after an escrow prepare is durable but before the
	// yes vote is sent — the window a coordinator-crash test uses to hold
	// a participant in its prepared state while the decision is made.
	AfterPrepare func(txid string)
}

var shardHooks = struct {
	mu sync.Mutex
	m  map[string]ShardHooks
}{m: make(map[string]ShardHooks)}

// SetShardHooks registers handoff crash-window hooks for every shard
// branch on the named node. Passing the zero value clears them.
func SetShardHooks(node string, h ShardHooks) {
	shardHooks.mu.Lock()
	defer shardHooks.mu.Unlock()
	shardHooks.m[node] = h
}

func hooksFor(node string) ShardHooks {
	shardHooks.mu.Lock()
	defer shardHooks.mu.Unlock()
	return shardHooks.m[node]
}

// journalOp is one mutation captured for tail catch-up.
type journalOp struct {
	kind   string
	acct   string
	amount int64
}

// outboundHandoff is the source side of one range migration.
type outboundHandoff struct {
	hid  string
	dest string
	ring *ring.Ring // the pending ring the cut flips to
	blob []byte

	// Pre-cut copy state. Volatile by design: if the source crashes before
	// the cut, nothing moved, and the puller restarts from a fresh snap.
	gen    int64            // bumped per snap, so a puller detects a restarted copy
	copied map[string]int64 // balances frozen at snap time
	order  []string         // deterministic part order over copied
	tail   []journalOp      // mutations on the moving range since the snap

	// Post-cut state, durable via the bank/moved_out record. final is
	// retained until the driver's migrate_ack so an amnesiac destination
	// can re-pull the already-cut range. The cut re-keys gen: post-cut
	// pulls serve final (tail already folded in) under a FRESH generation,
	// while cutGen remembers the pre-cut generation whose staged pages
	// still owe the tail — migrate_cut ships cutTail only to that one, so
	// the tail can never be applied on top of balances that contain it.
	cut      bool
	cutGen   int64       // pre-cut generation entitled to cutTail (0 after recovery)
	cutTail  []journalOp // the tail merged at cut, retained to re-reply
	final    map[string]int64
	finalOrd []string
	acked    bool
}

// list returns the account order parts are served in.
func (o *outboundHandoff) list() []string {
	if o.cut {
		return o.finalOrd
	}
	return o.order
}

// balances returns the frozen map parts are served from.
func (o *outboundHandoff) balances() map[string]int64 {
	if o.cut {
		return o.final
	}
	return o.copied
}

// shardCore is the deterministic part of shard state: everything rebuilt
// by folding logged records, shared by the live runtime and the pure
// replay checker.
type shardCore struct {
	st        *branchState // the accounts and escrow holds the records fold into
	dedup     *amo.Dedup   // merges install records' snapshots; nil for a raw branch and the replay checker
	member    string
	ring      *ring.Ring
	escrow    *tpc.Participant // 2PC transactions over escrowResource{st}
	out       map[string]*outboundHandoff
	installed map[string]bool
}

func newShardCore(member string, st *branchState, dedup *amo.Dedup) *shardCore {
	return &shardCore{
		st: st, dedup: dedup,
		member:    member,
		escrow:    tpc.NewParticipant(escrowResource{st}),
		out:       make(map[string]*outboundHandoff),
		installed: make(map[string]bool),
	}
}

// owned reports whether this member serves key under the latest adopted
// ring. A branch that has not adopted any ring serves everything (the
// pre-ring bootstrap state).
func (c *shardCore) owned(key string) bool {
	if c.ring == nil {
		return true
	}
	m, ok := c.ring.Owner(key)
	return !ok || m.Name == c.member
}

// adopt switches to r if it is newer than the current ring.
func (c *shardCore) adopt(r *ring.Ring) {
	if r != nil && (c.ring == nil || r.Epoch > c.ring.Epoch) {
		c.ring = r
	}
}

// adoptBlob is adopt for a marshalled ring.
func (c *shardCore) adoptBlob(blob string) error {
	r, err := ring.Unmarshal([]byte(blob))
	c.adopt(r)
	return err
}

// maxSeed caps the accounts one seed creates, the one record whose cost its
// length does not bound: the arm answers a larger seed with nothing done,
// and fold refuses one as malformed.
const maxSeed = 1 << 10

// seedKey names account i of a seeded range.
func seedKey(prefix string, i int) string {
	return fmt.Sprintf("%s%07d", prefix, i)
}

// accountsSeq renders a balance map as a sorted (name, balance) sequence.
func accountsSeq(m map[string]int64) xrep.Seq {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make(xrep.Seq, 0, len(names))
	for _, n := range names {
		out = append(out, xrep.Seq{xrep.Str(n), xrep.Int(m[n])})
	}
	return out
}

// parseAccounts is accountsSeq's inverse.
func parseAccounts(seq xrep.Seq) (map[string]int64, []string, error) {
	m := make(map[string]int64, len(seq))
	order := make([]string, 0, len(seq))
	for _, ev := range seq {
		e := xrep.ReadSeq(ev, 2)
		name, bal := e.Str(), e.Int()
		if err := e.Err(); err != nil {
			return nil, nil, fmt.Errorf("account entry: %w", err)
		}
		m[name] = bal
		order = append(order, name)
	}
	return m, order, nil
}

// tailSeq renders journal ops for the wire and the log.
func tailSeq(ops []journalOp) xrep.Seq {
	out := make(xrep.Seq, 0, len(ops))
	for _, op := range ops {
		out = append(out, xrep.Seq{xrep.Str(op.kind), xrep.Str(op.acct), xrep.Int(op.amount)})
	}
	return out
}

// parseTail is tailSeq's inverse.
func parseTail(seq xrep.Seq) ([]journalOp, error) {
	out := make([]journalOp, 0, len(seq))
	for _, ev := range seq {
		e := xrep.ReadSeq(ev, 3)
		out = append(out, journalOp{kind: e.Str(), acct: e.Str(), amount: e.Int()})
		if err := e.Err(); err != nil {
			return nil, fmt.Errorf("tail op: %w", err)
		}
	}
	return out, nil
}

// applyTailOp folds one journaled mutation into a bare balance map. The
// ops were validated when first executed, so the fold is unconditional.
func applyTailOp(m map[string]int64, op journalOp) {
	switch op.kind {
	case "open":
		if _, ok := m[op.acct]; !ok {
			m[op.acct] = 0
		}
	case "deposit", "transfer_in", "credit":
		m[op.acct] += op.amount
	case "withdraw", "transfer_out", "debit":
		m[op.acct] -= op.amount
	}
}

// checkpointField renders the shard core's durable state for the branch
// checkpoint: the adopted ring, installed handoff ids, retained post-cut
// handoffs, and escrow transactions — everything a recovery would rebuild
// by folding the compacted shard records. Pre-cut copy state is
// deliberately absent: it is volatile by design (a crash loses it and the
// puller re-snaps), so a checkpoint must capture no more than a recovery
// would restore. Maps are emitted in sorted order: same state, same bytes.
func (c *shardCore) checkpointField() xrep.Value {
	blob := ""
	if c.ring != nil {
		blob = string(c.ring.Marshal())
	}
	hids := make([]string, 0, len(c.installed))
	for hid := range c.installed {
		hids = append(hids, hid)
	}
	sort.Strings(hids)
	installed := make(xrep.Seq, 0, len(hids))
	for _, hid := range hids {
		installed = append(installed, xrep.Str(hid))
	}
	outIDs := make([]string, 0, len(c.out))
	for hid, o := range c.out {
		if o.cut {
			outIDs = append(outIDs, hid)
		}
	}
	sort.Strings(outIDs)
	outs := make(xrep.Seq, 0, len(outIDs))
	for _, hid := range outIDs {
		o := c.out[hid]
		acked := int64(0)
		if o.acked {
			acked = 1
		}
		outs = append(outs, xrep.Seq{
			xrep.Str(hid), xrep.Str(o.dest), xrep.Str(string(o.blob)),
			xrep.Int(acked), accountsSeq(o.final),
		})
	}
	txns := xrep.Seq{}
	c.escrow.Each(func(txid, phase string, op xrep.Value) {
		// An abort that had no prepare has no op, and reads as ("", "", 0).
		kind, acct, amount, _ := parseEscrowOp(op)
		txns = append(txns, xrep.Seq{
			xrep.Str(txid), xrep.Str(phase), xrep.Str(kind), xrep.Str(acct), xrep.Int(amount),
		})
	})
	return xrep.Seq{xrep.Str(blob), installed, outs, txns}
}

// restoreCheckpoint is checkpointField's inverse. It rebuilds the shard
// core — and the escrow holds, which are derived from prepared debits —
// and must run BEFORE any post-checkpoint record is folded on top, so
// tail records (an ack, a commit) find the state they refer to.
func (c *shardCore) restoreCheckpoint(v xrep.Value) error {
	f := xrep.ReadSeq(v, 4)
	blob := f.Str()
	installed := xrep.ReadFields(f.Seq(), 0)
	outs, txns := f.Seq(), f.Seq()
	if err := f.Err(); err != nil {
		return fmt.Errorf("shard state: %w", err)
	}
	if len(blob) > 0 {
		if err := c.adoptBlob(blob); err != nil {
			return fmt.Errorf("shard state ring: %w", err)
		}
	}
	for installed.More() {
		c.installed[installed.Str()] = true
	}
	if err := installed.Err(); err != nil {
		return fmt.Errorf("installed handoff ids: %w", err)
	}
	for _, ov := range outs {
		e := xrep.ReadSeq(ov, 5)
		hid, dest, rblob, acked := e.Str(), e.Str(), e.Str(), e.Int() == 1
		accounts := e.Seq()
		if err := e.Err(); err != nil {
			return fmt.Errorf("outbound handoff: %w", err)
		}
		o, err := newCutHandoff(hid, dest, rblob, accounts)
		if err != nil {
			return fmt.Errorf("outbound handoff %s: %w", hid, err)
		}
		if o.acked = acked; o.acked {
			o.final, o.finalOrd = nil, nil
		}
		c.out[hid] = o
	}
	for _, tv := range txns {
		e := xrep.ReadSeq(tv, 5)
		txid, phase, _, _, _ := e.Str(), e.Str(), e.Str(), e.Str(), e.Int()
		if err := e.Err(); err != nil {
			return fmt.Errorf("escrow txn: %w", err)
		}
		if err := c.escrow.Restore(phase, txid, tv.(xrep.Seq)[2:]); err != nil {
			return fmt.Errorf("escrow txn: %w", err)
		}
	}
	return nil
}

// newCutHandoff rebuilds the durable, post-cut half of an outbound handoff
// from what a moved_out record or a checkpoint entry carries.
func newCutHandoff(hid, dest, blob string, accounts xrep.Seq) (*outboundHandoff, error) {
	final, order, err := parseAccounts(accounts)
	if err != nil {
		return nil, err
	}
	r, err := ring.Unmarshal([]byte(blob))
	if err != nil {
		return nil, err
	}
	return &outboundHandoff{
		hid: hid, dest: dest, ring: r, blob: []byte(blob),
		cut: true, final: final, finalOrd: order,
	}, nil
}

// shardRecord marshals one shard log record.
func shardRecord(name string, fields xrep.Seq) []byte {
	b, err := wire.MarshalValue(xrep.Rec{Name: name, Fields: fields})
	if err != nil {
		panic(fmt.Errorf("bank: marshal %s: %v", name, err))
	}
	return b
}

// fold applies one shard record to the core and the branch state. It is
// the single source of truth for shard semantics: the live arms append
// the record and fold it; recovery and the replay checker fold the same
// records in log order — fold is a guardian.Folder. mine is false for a
// value that is not a shard record; a shard record that does not read as
// what the arms write is an error and leaves the state untouched.
func (c *shardCore) fold(v xrep.Value) (mine bool, err error) {
	st, name := c.st, xrep.RecName(v)
	switch name {
	case ringRec:
		f := xrep.ReadRec(v, ringRec, 1)
		blob := f.Str()
		if err = f.Err(); err == nil {
			err = c.adoptBlob(blob)
		}

	case seedRec:
		f := xrep.ReadRec(v, seedRec, 4)
		prefix, n, amount, member := f.Str(), f.Int(), f.Int(), f.Str()
		if err = f.Err(); err != nil {
			break
		}
		if n > maxSeed {
			err = fmt.Errorf("%w: %s creates %d accounts, over %d", xrep.ErrMalformed, seedRec, n, maxSeed)
			break
		}
		if c.member == "" {
			c.member = member
		}
		for i := 0; i < int(n); i++ {
			key := seedKey(prefix, i)
			if !c.owned(key) {
				continue
			}
			if _, exists := st.accounts[key]; !exists {
				st.accounts[key] = amount
			}
		}

	case movedOutRec:
		f := xrep.ReadRec(v, movedOutRec, 4)
		hid, dest, blob, accounts := f.Str(), f.Str(), f.Str(), f.Seq()
		if err = f.Err(); err != nil {
			break
		}
		var o *outboundHandoff
		if o, err = newCutHandoff(hid, dest, blob, accounts); err != nil {
			break
		}
		for _, name := range o.finalOrd {
			delete(st.accounts, name)
		}
		c.adopt(o.ring)
		c.out[hid] = o

	case installRec:
		f := xrep.ReadRec(v, installRec, 4)
		hid, blob, list, dedupSnap := f.Str(), f.Str(), f.Seq(), f.Value()
		if err = f.Err(); err != nil {
			break
		}
		var accounts map[string]int64
		var r *ring.Ring
		if accounts, _, err = parseAccounts(list); err == nil {
			r, err = ring.Unmarshal([]byte(blob))
		}
		// The source's dedup table travels with the range: merged here, a
		// client's retry of an op the source executed is answered from cache.
		if err == nil && c.dedup != nil {
			err = c.dedup.MergeSnapshot(dedupSnap)
		}
		if err != nil {
			break
		}
		for name, bal := range accounts {
			st.accounts[name] = bal
		}
		c.adopt(r)
		c.installed[hid] = true

	case ackedRec:
		f := xrep.ReadRec(v, ackedRec, 1)
		hid := f.Str()
		if err = f.Err(); err != nil {
			break
		}
		if o := c.out[hid]; o != nil {
			o.acked = true
			o.final, o.finalOrd, o.cutTail = nil, nil, nil
		}

	case tpcRec:
		f := xrep.ReadRec(v, tpcRec, 5)
		phase, txid, _, _, _ := f.Str(), f.Str(), f.Str(), f.Str(), f.Int()
		if err = f.Err(); err == nil {
			var op xrep.Value // (kind, account, amount); only a prepare's is read
			if phase == "prepared" {
				op = v.(xrep.Rec).Fields[2:]
			}
			err = c.escrow.Apply(phase, txid, op)
		}

	default:
		return false, nil
	}
	if err != nil {
		err = fmt.Errorf("bank: %s record: %w", name, err)
	}
	return true, err
}

// shardRuntime is the live shard state: the deterministic core plus the
// volatile pull-side scaffolding and the guardian plumbing.
type shardRuntime struct {
	*shardCore
	log  durable.Log
	g    *guardian.Guardian
	self xrep.PortName // this branch's native port

	genCounter int64
	staging    map[string]map[string]int64 // hid → accounts staged so far
	pulling    map[string]bool
}

func newShardRuntime(member string, st *branchState, log durable.Log, dedup *amo.Dedup, g *guardian.Guardian, self xrep.PortName) *shardRuntime {
	return &shardRuntime{
		shardCore: newShardCore(member, st, dedup),
		log:       log, g: g, self: self,
		staging: make(map[string]map[string]int64),
		pulling: make(map[string]bool),
	}
}

// appendAndFold logs one shard record durably and folds it into the live
// state — the live arms' single mutation path, guaranteeing recovery
// replays exactly what ran.
func (sh *shardRuntime) appendAndFold(name string, fields xrep.Seq) {
	sh.log.AppendSync(shardRecord(name, fields))
	if _, err := sh.fold(xrep.Rec{Name: name, Fields: fields}); err != nil {
		// The arm built these fields itself: recovery would refuse the
		// record just made durable.
		panic(err)
	}
}

// journal captures one applied mutation into every active pre-cut
// outbound handoff whose destination owns the account — the tail the cut
// ships for catch-up. Cheap when no handoff is active.
func (sh *shardRuntime) journal(kind, acct string, amount int64) {
	for _, o := range sh.out {
		if o.cut || o.ring == nil {
			continue
		}
		if m, ok := o.ring.Owner(acct); ok && m.Name == o.dest {
			o.tail = append(o.tail, journalOp{kind: kind, acct: acct, amount: amount})
		}
	}
}

// ownershipHook is the amo-layer ring filter, installed BEFORE the dedup
// hook: a request whose keys live elsewhere is redirected (OutcomeMoved)
// or declared split (OutcomeSplit) without touching the dedup table — a
// redirect is derivable routing state, never an effect. Requests this
// hook declines fall through to the dedup hook and execute normally.
func (sh *shardRuntime) ownershipHook() func(pr *guardian.Process, m *guardian.Message) bool {
	return func(pr *guardian.Process, m *guardian.Message) bool {
		req, _ := amo.ParseRequest(m)
		// A request whose arguments do not read as its command's falls
		// through, and the executor refuses it.
		from, to, _, ok := amoArgs(req)
		if sh.ring == nil || !ok {
			return false
		}
		keybuf := [2]string{from, to}
		keys := keybuf[:1]
		if req.Command == "transfer" {
			keys = keybuf[:]
		}
		// Presence is authority: a key present here is served here even if
		// the latest ring disagrees (its range has not been cut yet).
		owners := make([]ring.Member, 0, len(keys))
		for _, k := range keys {
			if _, present := sh.st.accounts[k]; present || sh.owned(k) {
				return false // at least one key is ours: serve locally
			}
			if m, ok := sh.ring.Owner(k); ok {
				owners = append(owners, m)
			}
		}
		if len(owners) != len(keys) {
			return false
		}
		for _, o := range owners[1:] {
			if o.Name != owners[0].Name {
				// Keys straddle shards: terminal, the Router re-issues the
				// op as a 2PC transaction. Not cached, not logged.
				//lint:allow replyleak the shard originates the split signal; the Router consumes amo_split and re-issues the op as 2PC, so it never reaches a client
				amo.SendReply(pr, m, amo.OutcomeSplit, nil)
				return true
			}
		}
		amo.SendMoved(pr, m, owners[0].Amo, sh.ring.Epoch)
		return true
	}
}

// Transfer "one key ours, one key theirs" handling: the hook above serves
// the request locally when ANY key is present or owned, which makes the
// local apply fail with no_account for the foreign key — a correct, safe
// outcome the Router also treats as a split signal. The strict split
// reply is only produced when every key is provably elsewhere.

func (sh *shardRuntime) hooks() ShardHooks { return hooksFor(sh.g.Node().Name()) }

// callOpts are the puller's per-step retry settings, scaled by the world
// tuning so DST runs shrink them with everything else.
func (sh *shardRuntime) callOpts() sendprim.CallOptions {
	hb := sh.g.Node().World().Tuning().HeartbeatInterval
	return sendprim.CallOptions{
		Timeout: 4 * hb,
		Retries: 8,
		Backoff: hb / 4,
	}
}

const partChunk = 64 // accounts per migrate_part reply

// installArms registers the shard-control vocabulary on the branch
// receiver. Every arm also answers in non-shard mode (sh carries the
// receiver closure even then via nil checks at the call sites in bank.go).
func (sh *shardRuntime) installArms(recv *guardian.Receiver) {
	reply := func(pr *guardian.Process, m *guardian.Message, cmd string, args ...any) {
		if !m.ReplyTo.IsZero() {
			_ = pr.Send(m.ReplyTo, cmd, args...)
		}
	}

	recv.
		When("ring_update", func(pr *guardian.Process, m *guardian.Message) {
			blob := m.Str(0)
			r, err := ring.Unmarshal([]byte(blob))
			if err != nil {
				reply(pr, m, "ring_ok", int64(0))
				return
			}
			if sh.ring == nil || r.Epoch > sh.ring.Epoch {
				sh.appendAndFold(ringRec, xrep.Seq{xrep.Str(blob)})
			}
			epoch := int64(0)
			if sh.ring != nil {
				epoch = sh.ring.Epoch
			}
			reply(pr, m, "ring_ok", epoch)
		}).
		When("seed", func(pr *guardian.Process, m *guardian.Message) {
			prefix, n, amount := m.Str(0), m.Int(1), m.Int(2)
			if n > maxSeed {
				reply(pr, m, "seeded", int64(0), int64(len(sh.st.accounts)))
				return
			}
			// If a pre-cut handoff is active, the tail must carry any
			// account this seed creates; find them before the fold.
			var createdKeys []string
			if sh.activePrecut() {
				for i := 0; i < int(n); i++ {
					key := seedKey(prefix, i)
					if _, exists := sh.st.accounts[key]; !exists && sh.owned(key) {
						createdKeys = append(createdKeys, key)
					}
				}
			}
			before := len(sh.st.accounts)
			sh.appendAndFold(seedRec, xrep.Seq{
				xrep.Str(prefix), xrep.Int(n), xrep.Int(amount), xrep.Str(sh.member),
			})
			created := len(sh.st.accounts) - before
			for _, key := range createdKeys {
				sh.journal("open", key, 0)
				sh.journal("deposit", key, amount)
			}
			reply(pr, m, "seeded", int64(created), int64(len(sh.st.accounts)))
		}).
		When("handoff_pull", func(pr *guardian.Process, m *guardian.Message) {
			hid, blob, src := m.Str(0), m.Str(1), m.Port(2)
			if sh.installed[hid] {
				reply(pr, m, "pull_ok")
				return
			}
			if _, err := ring.Unmarshal([]byte(blob)); err != nil {
				reply(pr, m, "pull_denied", "bad ring")
				return
			}
			if sh.pulling[hid] {
				reply(pr, m, "pull_ok")
				return
			}
			sh.pulling[hid] = true
			sh.spawnPuller(hid, blob, src)
			reply(pr, m, "pull_ok")
		}).
		When("handoff_status", func(pr *guardian.Process, m *guardian.Message) {
			hid := m.Str(0)
			state := "unknown"
			switch {
			case sh.installed[hid]:
				state = "installed"
			case sh.pulling[hid]:
				state = "pulling"
			}
			reply(pr, m, "handoff_state", state)
		}).
		When("handoff_fail", func(_ *guardian.Process, m *guardian.Message) {
			// The puller gave up; clear the marker so the driver's next
			// handoff_pull spawns a fresh one.
			delete(sh.pulling, m.Str(0))
		}).
		When("handoff_stage", func(pr *guardian.Process, m *guardian.Message) {
			hid := m.Str(0)
			entries, _, err := parseAccounts(m.Seq(1))
			if err != nil {
				reply(pr, m, "staged", int64(0))
				return
			}
			stage := sh.staging[hid]
			if stage == nil {
				stage = make(map[string]int64)
				sh.staging[hid] = stage
			}
			for name, bal := range entries {
				stage[name] = bal
			}
			reply(pr, m, "staged", int64(len(stage)))
		}).
		When("handoff_install", func(pr *guardian.Process, m *guardian.Message) {
			hid, blob := m.Str(0), m.Str(1)
			if sh.installed[hid] {
				reply(pr, m, "installed")
				return
			}
			tail, err := parseTail(m.Seq(2))
			if err != nil {
				reply(pr, m, "install_denied", "bad tail")
				return
			}
			if _, err := ring.Unmarshal([]byte(blob)); err != nil {
				reply(pr, m, "install_denied", "bad ring")
				return
			}
			dsnap, _ := m.Arg(3)
			final := make(map[string]int64, len(sh.staging[hid]))
			for name, bal := range sh.staging[hid] {
				final[name] = bal
			}
			for _, op := range tail {
				applyTailOp(final, op)
			}
			h := sh.hooks()
			if h.BeforeInstall != nil {
				h.BeforeInstall(hid)
			}
			sh.appendAndFold(installRec, xrep.Seq{
				xrep.Str(hid), xrep.Str(blob), accountsSeq(final), dsnap,
			})
			delete(sh.staging, hid)
			delete(sh.pulling, hid)
			if h.AfterInstall != nil {
				h.AfterInstall(hid)
			}
			reply(pr, m, "installed")
		}).
		When("migrate_snap", func(pr *guardian.Process, m *guardian.Message) {
			hid, blob, dest := m.Str(0), m.Str(1), m.Str(2)
			if o := sh.out[hid]; o != nil {
				if o.acked {
					reply(pr, m, "migrate_denied", "acked")
					return
				}
				if o.cut {
					reply(pr, m, "snap_meta", o.gen, int64(len(o.final)))
					return
				}
			}
			r, err := ring.Unmarshal([]byte(blob))
			if err != nil {
				reply(pr, m, "migrate_denied", "bad ring")
				return
			}
			if _, ok := r.Member(dest); !ok {
				reply(pr, m, "migrate_denied", "dest not a member")
				return
			}
			if sh.ring != nil && (r.Epoch < sh.ring.Epoch || r.Epoch > sh.ring.Epoch+1) {
				reply(pr, m, "migrate_denied", "stale epoch")
				return
			}
			sh.genCounter++
			o := &outboundHandoff{
				hid: hid, dest: dest, ring: r, blob: []byte(blob),
				gen: sh.genCounter, copied: make(map[string]int64),
			}
			for name, bal := range sh.st.accounts {
				if mem, ok := r.Owner(name); ok && mem.Name == dest {
					o.copied[name] = bal
					o.order = append(o.order, name)
				}
			}
			sort.Strings(o.order)
			sh.out[hid] = o
			reply(pr, m, "snap_meta", o.gen, int64(len(o.copied)))
		}).
		When("migrate_part", func(pr *guardian.Process, m *guardian.Message) {
			hid, gen, cursor := m.Str(0), m.Int(1), int(m.Int(2))
			o := sh.out[hid]
			if o == nil || o.acked {
				reply(pr, m, "migrate_denied", "no snap")
				return
			}
			if gen != o.gen {
				reply(pr, m, "migrate_denied", "snap restarted")
				return
			}
			list := o.list()
			if cursor < 0 || cursor > len(list) {
				reply(pr, m, "migrate_denied", "bad cursor")
				return
			}
			end := cursor + partChunk
			if end > len(list) {
				end = len(list)
			}
			chunk := make(map[string]int64, end-cursor)
			bals := o.balances()
			for _, name := range list[cursor:end] {
				chunk[name] = bals[name]
			}
			done := int64(0)
			if end == len(list) {
				done = 1
			}
			reply(pr, m, "snap_part", int64(end), done, accountsSeq(chunk))
		}).
		When("migrate_cut", func(pr *guardian.Process, m *guardian.Message) {
			hid, gen := m.Str(0), m.Int(1)
			o := sh.out[hid]
			if o == nil || o.acked {
				reply(pr, m, "migrate_denied", "no snap")
				return
			}
			dsnap := func() xrep.Value {
				if sh.dedup == nil {
					return xrep.Seq{}
				}
				return sh.dedup.Snapshot()
			}
			if o.cut {
				// The retained tail is owed ONLY to the puller that staged
				// pre-cut pages (cutGen): its balances lack the tail. A
				// post-cut puller staged pages from final — tail already
				// folded in — and must get an empty tail, or every account
				// mutated between snap and cut would be double-counted. Any
				// other generation (a dead puller's duplicate, a pre-recovery
				// puller) is denied so it re-pulls from the durable final.
				switch {
				case gen == o.cutGen && o.cutGen != 0:
					reply(pr, m, "cut_done", gen, tailSeq(o.cutTail), dsnap())
				case gen == o.gen:
					reply(pr, m, "cut_done", gen, xrep.Seq{}, dsnap())
				default:
					reply(pr, m, "migrate_denied", "snap restarted")
				}
				return
			}
			if gen != o.gen {
				// A stale cut request (a dead puller's duplicate arriving
				// after a newer snapshot) must not seal a copy it never
				// staged: the live puller would mix pre- and post-cut pages.
				reply(pr, m, "migrate_denied", "snap restarted")
				return
			}
			// Refuse the cut while 2PC escrow holds pin any moving account:
			// the coordinator settles acks by participant identity, so a
			// hold must resolve where it was prepared. The puller retries;
			// holds are short-lived by construction.
			pinned := false
			sh.escrow.Each(func(_, phase string, op xrep.Value) {
				if phase != "prepared" {
					return
				}
				_, acct, _, _ := parseEscrowOp(op)
				if mem, ok := o.ring.Owner(acct); ok && mem.Name == o.dest {
					pinned = true
				}
			})
			if pinned {
				reply(pr, m, "cut_busy")
				return
			}
			final := make(map[string]int64, len(o.copied))
			for name, bal := range o.copied {
				final[name] = bal
			}
			tail := o.tail
			for _, op := range tail {
				applyTailOp(final, op)
			}
			h := sh.hooks()
			if h.BeforeCut != nil {
				h.BeforeCut(hid)
			}
			sh.appendAndFold(movedOutRec, xrep.Seq{
				xrep.Str(hid), xrep.Str(o.dest), xrep.Str(string(o.blob)), accountsSeq(final),
			})
			// fold replaced sh.out[hid] with the durable post-cut entry;
			// carry over the volatile bits the re-reply paths need. The
			// servable generation is re-keyed so a re-pull of final pages
			// can never match cutGen and receive the tail a second time.
			if no := sh.out[hid]; no != nil {
				sh.genCounter++
				no.gen = sh.genCounter
				no.cutGen = o.gen
				no.cutTail = tail
			}
			if h.AfterCut != nil {
				h.AfterCut(hid)
			}
			reply(pr, m, "cut_done", o.gen, tailSeq(tail), dsnap())
		}).
		When("migrate_ack", func(pr *guardian.Process, m *guardian.Message) {
			hid := m.Str(0)
			if o := sh.out[hid]; o != nil && o.cut && !o.acked {
				sh.appendAndFold(ackedRec, xrep.Seq{xrep.Str(hid)})
			}
			reply(pr, m, "ack_ok")
		})
	sh.escrow.Install(recv, sh.logEscrow)
}

// logEscrow is the escrow participant's log: it makes one step durable as
// a bank/tpc record and folds it. A yes vote's hold is durable before the
// AfterPrepare hook runs, and a commit journals its effect into the tail of
// every pre-cut handoff of the account.
func (sh *shardRuntime) logEscrow(step, txid string, op xrep.Value) {
	fields := xrep.Seq{xrep.Str(step), xrep.Str(txid), xrep.Str(""), xrep.Str(""), xrep.Int(0)}
	if op != nil {
		// Vote read the prepare's op as (kind, account, amount): its values
		// are the record's last three fields as they stand.
		copy(fields[2:], op.(xrep.Seq))
	}
	sh.appendAndFold(tpcRec, fields)
	switch step {
	case "prepared":
		if h := sh.hooks().AfterPrepare; h != nil {
			h(txid)
		}
	case "committed":
		_, held := sh.escrow.Txn(txid)
		kind, acct, amount, _ := parseEscrowOp(held)
		sh.journal(kind, acct, amount) // applyTailOp reads debit and credit
	}
}

// escrowResource is the shard branch's 2PC resource. An operation is
// (kind "debit"|"credit", account, amount); a prepared debit places a hold
// the balance checks subtract, so a committed debit can never overdraw.
type escrowResource struct{ st *branchState }

// Vote implements tpc.Resource. Presence is authority: an absent account is
// either foreign (the coordinator used a stale ring) or nonexistent — vote
// no either way, and let the client re-plan against a fresh ring.
func (e escrowResource) Vote(op xrep.Value) bool {
	kind, acct, amount, ok := parseEscrowOp(op)
	bal, present := e.st.accounts[acct]
	return ok && amount > 0 && present && (kind == "credit" || bal-e.st.holds[acct] >= amount)
}

// Prepare implements tpc.Resource.
func (e escrowResource) Prepare(op xrep.Value) {
	if kind, acct, amount, ok := parseEscrowOp(op); ok && kind == "debit" {
		e.st.hold(acct, amount)
	}
}

// Commit implements tpc.Resource. A debit's hold is released before it is
// applied, so the escrow never double-counts against the balance.
func (e escrowResource) Commit(op xrep.Value) {
	kind, acct, amount, ok := parseEscrowOp(op)
	switch {
	case !ok:
	case kind == "debit":
		e.st.hold(acct, -amount)
		e.st.accounts[acct] -= amount
	default:
		e.st.accounts[acct] += amount
	}
}

// Abort implements tpc.Resource.
func (e escrowResource) Abort(op xrep.Value) {
	if kind, acct, amount, ok := parseEscrowOp(op); ok && kind == "debit" {
		e.st.hold(acct, -amount)
	}
}

// parseEscrowOp decodes a 2PC escrow operation value.
func parseEscrowOp(v xrep.Value) (kind, acct string, amount int64, ok bool) {
	f := xrep.ReadSeq(v, 3)
	kind, acct, amount = f.Str(), f.Str(), f.Int()
	return kind, acct, amount, f.Err() == nil && (kind == "debit" || kind == "credit")
}

// EscrowOp builds the tpc operation value a cross-shard transfer sends a
// branch participant: kind is "debit" or "credit".
func EscrowOp(kind, acct string, amount int64) xrep.Value {
	return xrep.Seq{xrep.Str(kind), xrep.Str(acct), xrep.Int(amount)}
}

// activePrecut reports whether any outbound handoff is mid-copy.
func (sh *shardRuntime) activePrecut() bool {
	for _, o := range sh.out {
		if !o.cut && !o.acked {
			return true
		}
	}
	return false
}

// spawnPuller starts the destination-side pull for one handoff. The
// puller drives the source with retried calls and funnels every state
// change back through the guardian's own receive loop (handoff_stage /
// handoff_install), preserving the single-writer discipline.
func (sh *shardRuntime) spawnPuller(hid, blob string, src xrep.PortName) {
	self := sh.self
	opts := sh.callOpts()
	member := sh.member
	sh.g.Spawn("handoff-pull", func(q *guardian.Process) {
		giveUp := func() {
			_ = q.Send(self, "handoff_fail", hid)
		}
		for round := 0; round < 8; round++ {
			sm, err := sendprim.Call(q, src, MigrateReplyType, opts, "migrate_snap", hid, blob, member)
			if err != nil || sm.Command != "snap_meta" {
				giveUp()
				return
			}
			gen := sm.Int(0)

			cursor := int64(0)
			restarted := false
			for {
				pm, err := sendprim.Call(q, src, MigrateReplyType, opts, "migrate_part", hid, gen, cursor)
				if err != nil {
					giveUp()
					return
				}
				if pm.Command != "snap_part" {
					restarted = true // source restarted the copy: re-snap
					break
				}
				next, done := pm.Int(0), pm.Int(1)
				entries := pm.Args[2]
				if _, err := sendprim.Call(q, self, MigrateReplyType, opts, "handoff_stage", hid, entries); err != nil {
					giveUp()
					return
				}
				cursor = next
				if done == 1 {
					break
				}
			}
			if restarted {
				continue
			}

			var cm *guardian.Message
			busy := 0
			for {
				cm, err = sendprim.Call(q, src, MigrateReplyType, opts, "migrate_cut", hid, gen)
				if err != nil {
					giveUp()
					return
				}
				if cm.Command != "cut_busy" {
					break
				}
				busy++
				if busy > 256 {
					giveUp()
					return
				}
				if !q.Pause(opts.Backoff + time.Millisecond) {
					return
				}
			}
			if cm.Command != "cut_done" {
				// Denied — our generation no longer matches the source's
				// servable snapshot (it restarted the copy, recovered, or
				// cut under another generation): re-pull from the top so the
				// staged pages and the tail come from one generation.
				continue
			}
			if cm.Int(0) != gen {
				// Defensive: a cut_done for a generation we did not request
				// can only be a stale duplicate; restage rather than trust it.
				continue
			}
			tail := cm.Args[1]
			dsnap, _ := cm.Arg(2)
			im, err := sendprim.Call(q, self, MigrateReplyType, opts, "handoff_install", hid, blob, tail, dsnap)
			if err != nil || im.Command != "installed" {
				giveUp()
				return
			}
			return
		}
		giveUp()
	})
}

// ShardEscrows lists the transactions a shard branch holds prepared — the
// owner-side facility the DST drain audit uses to find escrow a settled
// decision left behind.
func ShardEscrows(g *guardian.Guardian) (txids []string, ok bool) {
	st, isBranch := g.State().(*branchState)
	if !isBranch || st.shard == nil {
		return nil, false
	}
	st.shard.escrow.Each(func(txid, phase string, _ xrep.Value) {
		if phase == "prepared" {
			txids = append(txids, txid)
		}
	})
	return txids, true
}

// ShardSnapshot reports a shard branch's member name, adopted ring epoch,
// and account table — the owner-side facility DST invariant checkers use
// to assert single-owner-per-epoch after a drain.
func ShardSnapshot(g *guardian.Guardian) (member string, epoch int64, accounts map[string]int64, ok bool) {
	st, isBranch := g.State().(*branchState)
	if !isBranch || st.shard == nil {
		return "", 0, nil, false
	}
	sh := st.shard
	if sh.ring != nil {
		epoch = sh.ring.Epoch
	}
	out := make(map[string]int64, len(st.accounts))
	for k, v := range st.accounts {
		out[k] = v
	}
	return sh.member, epoch, out, true
}
