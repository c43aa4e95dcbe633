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
//   - guardian-to-guardian handoff in one step: the DESTINATION asks the
//     source to cut a moving range (migrate_cut); the source seals it in
//     one durable record and ships the whole range in its reply, and the
//     destination installs it in one durable record (handoff_install)
//     that carries the account state AND the source's amo dedup snapshot,
//     so exactly-once survives the migration;
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
// deterministic function (shardCore.fold; an escrow step's arm takes the
// Participant.Apply step fold would take), used by the live arms, crash
// recovery, and the independent replay checker (ReplayAccountsFrom), so
// the recovery-equals-replay invariant extends to migrations.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/amo"
	"repro/internal/durable"
	"repro/internal/fault"
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
// (migrate_cut, handoff_install).
var MigrateReplyType = guardian.NewPortType("bank_migrate_reply_port").
	Msg("ring_ok", xrep.KindInt).              // adopted epoch
	Msg("seeded", xrep.KindInt, xrep.KindInt). // created, total accounts
	Msg("pull_ok").
	Msg("pull_denied", xrep.KindString).
	Msg("handoff_state", xrep.KindString). // "installed" | "pulling" | "unknown"
	Msg("installed").
	Msg("install_denied", xrep.KindString).
	Msg("cut_done", xrep.KindSeq, guardian.AnyKind). // the range's accounts, dedup snapshot
	Msg("cut_busy").
	Msg("migrate_denied", xrep.KindString).
	Msg("ack_ok")

// outboundHandoff is the source side of one range migration. It exists
// from the source's durable cut (the bank/moved_out record) on: nothing
// about a handoff is kept before it. accounts is the range as cut, retained
// until the driver's migrate_ack so an amnesiac destination can pull it
// again.
type outboundHandoff struct {
	dest     string
	blob     string   // the ring the cut adopted
	accounts xrep.Seq // (name, balance)…, empty once acked
	acked    bool
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
	out := make(xrep.Seq, 0, len(m))
	for _, n := range sortedKeys(m) {
		out = append(out, xrep.Seq{xrep.Str(n), xrep.Int(m[n])})
	}
	return out
}

// readRange reads a cut range as a moved_out or install record carries it:
// the accounts and the ring the handoff moves them under.
func readRange(blob string, accounts xrep.Seq) (map[string]int64, *ring.Ring, error) {
	m := make(map[string]int64, len(accounts))
	for _, ev := range accounts {
		e := xrep.ReadSeq(ev, 2)
		name, bal := e.Str(), e.Int()
		if err := e.Err(); err != nil {
			return nil, nil, fmt.Errorf("account entry: %w", err)
		}
		m[name] = bal
	}
	r, err := ring.Unmarshal([]byte(blob))
	return m, r, err
}

// sortedKeys returns m's keys in order: how a checkpoint writes a map so
// that the same state always writes the same bytes.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendCheckpoint appends the shard core's durable state, the branch
// checkpoint's fourth field: the adopted ring, installed handoff ids, cut
// handoffs, and escrow transactions — everything a recovery would rebuild
// by folding the compacted shard records. It writes the fields as
// restoreCheckpoint reads them, with no value tree between the tables and
// the bytes; an escrow row is (txid, phase, kind, account, amount), an
// abort that had no prepare reading as ("", "", 0). It runs on the
// branch's receive process, the participant's only writer, so the row
// count it writes first is the number of rows Each hands it.
func (c *shardCore) appendCheckpoint(buf []byte) ([]byte, error) {
	blob := ""
	if c.ring != nil {
		blob = string(c.ring.Marshal())
	}
	buf = wire.AppendSeqHeader(buf, 4)
	buf = wire.AppendStr(buf, blob)
	buf = wire.AppendSeqHeader(buf, len(c.installed))
	for _, hid := range sortedKeys(c.installed) {
		buf = wire.AppendStr(buf, hid)
	}
	buf = wire.AppendSeqHeader(buf, len(c.out))
	var err error
	for _, hid := range sortedKeys(c.out) {
		o := c.out[hid]
		acked := int64(0)
		if o.acked {
			acked = 1
		}
		buf = wire.AppendSeqHeader(buf, 5)
		buf = wire.AppendStr(buf, hid)
		buf = wire.AppendStr(buf, o.dest)
		buf = wire.AppendStr(buf, o.blob)
		buf = wire.AppendInt(buf, acked)
		if buf, err = wire.AppendSeq(buf, o.accounts); err != nil {
			return nil, err
		}
	}
	buf = wire.AppendSeqHeader(buf, c.escrow.Len())
	c.escrow.Each(func(txid, phase string, op xrep.Value) {
		kind, acct, amount, _ := parseEscrowOp(op)
		buf = wire.AppendSeqHeader(buf, 5)
		buf = wire.AppendStr(buf, txid)
		buf = wire.AppendStr(buf, phase)
		buf = wire.AppendStr(buf, kind)
		buf = wire.AppendStr(buf, acct)
		buf = wire.AppendInt(buf, amount)
	})
	return buf, nil
}

// restoreCheckpoint is appendCheckpoint's inverse, given the field as
// decodeCheckpoint reads it. It rebuilds the shard core — and the escrow
// holds, which are derived from prepared debits — and must run BEFORE any post-checkpoint record is folded on top, so
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
		if _, _, err := readRange(rblob, accounts); err != nil {
			return fmt.Errorf("outbound handoff %s: %w", hid, err)
		}
		c.out[hid] = &outboundHandoff{dest: dest, blob: rblob, accounts: accounts, acked: acked}
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
		var moved map[string]int64
		var r *ring.Ring
		if moved, r, err = readRange(blob, accounts); err != nil {
			break
		}
		for name := range moved {
			delete(st.accounts, name)
		}
		c.adopt(r)
		c.out[hid] = &outboundHandoff{dest: dest, blob: blob, accounts: accounts}

	case installRec:
		f := xrep.ReadRec(v, installRec, 4)
		hid, blob, list, dedupSnap := f.Str(), f.Str(), f.Seq(), f.Value()
		if err = f.Err(); err != nil {
			break
		}
		var accounts map[string]int64
		var r *ring.Ring
		accounts, r, err = readRange(blob, list)
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
			o.acked, o.accounts = true, xrep.Seq{}
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
// guardian plumbing and the handoffs this branch is pulling.
type shardRuntime struct {
	*shardCore
	log     durable.Log
	g       *guardian.Guardian
	self    xrep.PortName // this branch's native port
	pulling map[string]bool
	scratch []byte // the escrow records' buffer; only the receive process writes it
}

func newShardRuntime(member string, st *branchState, log durable.Log, dedup *amo.Dedup, g *guardian.Guardian, self xrep.PortName) *shardRuntime {
	return &shardRuntime{
		shardCore: newShardCore(member, st, dedup),
		log:       log, g: g, self: self,
		pulling: make(map[string]bool),
	}
}

// appendAndFold logs one shard record durably and folds it into the live
// state — the live arms' mutation path (logEscrow's aside), guaranteeing
// recovery replays exactly what ran.
func (sh *shardRuntime) appendAndFold(name string, fields xrep.Seq) {
	sh.log.AppendSync(shardRecord(name, fields))
	if _, err := sh.fold(xrep.Rec{Name: name, Fields: fields}); err != nil {
		// The arm built these fields itself: recovery would refuse the
		// record just made durable.
		panic(err)
	}
}

// ownershipHook is the amo-layer ring filter, installed BEFORE the dedup
// hook: a request whose keys live elsewhere is redirected (OutcomeMoved)
// or declared split (OutcomeSplit) without touching the dedup table — a
// redirect is derivable routing state, never an effect. Requests this
// hook declines fall through to the dedup hook and execute normally.
func (sh *shardRuntime) ownershipHook() func(pr *guardian.Process, m *guardian.Message) bool {
	return func(pr *guardian.Process, m *guardian.Message) bool {
		// A request whose arguments do not read as its command's falls
		// through, and the executor refuses it.
		cmd := m.Str(3)
		from, to, _, ok := amoArgs(cmd, m.Seq(4))
		if sh.ring == nil || !ok {
			return false
		}
		keybuf := [2]string{from, to}
		keys := keybuf[:1]
		if cmd == "transfer" {
			keys = keybuf[:]
		}
		// Presence is authority: a key present here is served here even if
		// the latest ring disagrees (its range has not been cut yet).
		owners := make([]ring.Member, 0, 2)
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
			before := len(sh.st.accounts)
			sh.appendAndFold(seedRec, xrep.Seq{
				xrep.Str(prefix), xrep.Int(n), xrep.Int(amount), xrep.Str(sh.member),
			})
			created := len(sh.st.accounts) - before
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
		When("handoff_install", func(pr *guardian.Process, m *guardian.Message) {
			hid, blob, accounts := m.Str(0), m.Str(1), m.Seq(2)
			if sh.installed[hid] {
				reply(pr, m, "installed")
				return
			}
			if _, _, err := readRange(blob, accounts); err != nil {
				reply(pr, m, "install_denied", "bad range")
				return
			}
			dsnap, _ := m.Arg(3)
			node := sh.g.Node()
			node.CrashPoint(fault.BeforeInstall, hid)
			sh.appendAndFold(installRec, xrep.Seq{xrep.Str(hid), xrep.Str(blob), accounts, dsnap})
			delete(sh.pulling, hid)
			node.CrashPoint(fault.AfterInstall, hid)
			reply(pr, m, "installed")
		}).
		When("migrate_cut", func(pr *guardian.Process, m *guardian.Message) {
			hid, blob, dest := m.Str(0), m.Str(1), m.Str(2)
			if o := sh.out[hid]; o != nil {
				// Cut already: the range is retained until the driver's ack,
				// so a destination that lost it pulls the same range again.
				if o.acked {
					reply(pr, m, "migrate_denied", "acked")
					return
				}
				reply(pr, m, "cut_done", o.accounts, sh.dedupSnapshot())
				return
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
			moves := func(acct string) bool {
				mem, ok := r.Owner(acct)
				return ok && mem.Name == dest
			}
			// Refuse the cut while 2PC escrow holds pin any moving account:
			// the coordinator settles acks by participant identity, so a
			// hold must resolve where it was prepared. The puller retries;
			// holds are short-lived by construction.
			pinned := false
			sh.escrow.Each(func(_, phase string, op xrep.Value) {
				if phase == "prepared" {
					_, acct, _, _ := parseEscrowOp(op)
					pinned = pinned || moves(acct)
				}
			})
			if pinned {
				reply(pr, m, "cut_busy")
				return
			}
			moving := make(map[string]int64)
			for name, bal := range sh.st.accounts {
				if moves(name) {
					moving[name] = bal
				}
			}
			accounts := accountsSeq(moving)
			node := sh.g.Node()
			node.CrashPoint(fault.BeforeCut, hid)
			sh.appendAndFold(movedOutRec, xrep.Seq{xrep.Str(hid), xrep.Str(dest), xrep.Str(blob), accounts})
			node.CrashPoint(fault.AfterCut, hid)
			reply(pr, m, "cut_done", accounts, sh.dedupSnapshot())
		}).
		When("migrate_ack", func(pr *guardian.Process, m *guardian.Message) {
			hid := m.Str(0)
			if o := sh.out[hid]; o != nil && !o.acked {
				sh.appendAndFold(ackedRec, xrep.Seq{xrep.Str(hid)})
			}
			reply(pr, m, "ack_ok")
		})
	sh.escrow.Install(recv, sh.logEscrow)
}

// dedupSnapshot is the amo dedup table a cut ships with its range, so a
// client's retry of an op the source executed is answered from cache.
func (sh *shardRuntime) dedupSnapshot() xrep.Value {
	if sh.dedup == nil {
		return xrep.Seq{}
	}
	return sh.dedup.Snapshot()
}

// logEscrow is the escrow participant's log: it makes one step durable as
// a bank/tpc record in the runtime's scratch and applies it, as fold does.
// A yes vote's hold is durable before the node hears fault.AfterPrepare.
func (sh *shardRuntime) logEscrow(step, txid string, op xrep.Value) {
	sh.scratch = appendEscrowRecord(sh.scratch[:0], step, txid, op)
	sh.log.AppendSync(sh.scratch)
	_ = sh.escrow.Apply(step, txid, op) // step is one of the table's steps
	if step == "prepared" {
		sh.g.Node().CrashPoint(fault.AfterPrepare, txid)
	}
}

// appendEscrowRecord appends one escrow step's bank/tpc record to dst:
// step, txid and the op's (kind, account, amount) — ("", "", 0) for a step
// without one. Only a prepare that Vote read as an escrow op carries an op.
func appendEscrowRecord(dst []byte, step, txid string, op xrep.Value) []byte {
	kind, acct, amount := "", "", int64(0)
	if op != nil {
		kind, acct, amount, _ = parseEscrowOp(op)
	}
	dst = wire.AppendRecHeader(dst, tpcRec, 5)
	dst = wire.AppendStr(dst, step)
	dst = wire.AppendStr(dst, txid)
	dst = wire.AppendStr(dst, kind)
	dst = wire.AppendStr(dst, acct)
	return wire.AppendInt(dst, amount)
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
	if v == nil { // the abort that had no prepare: spare the reader's error
		return "", "", 0, false
	}
	f := xrep.ReadSeq(v, 3)
	kind, acct, amount = f.Str(), f.Str(), f.Int()
	return kind, acct, amount, f.Err() == nil && (kind == "debit" || kind == "credit")
}

// spawnPuller starts the destination-side pull for one handoff: it asks
// the source to cut the range and installs what the cut ships, funnelling
// the install back through the guardian's own receive loop to keep the
// single-writer discipline.
func (sh *shardRuntime) spawnPuller(hid, blob string, src xrep.PortName) {
	self, opts, member := sh.self, sh.callOpts(), sh.member
	sh.g.Spawn("handoff-pull", func(q *guardian.Process) {
		for busy := 0; busy <= 256; busy++ {
			cm, err := sendprim.Call(q, src, MigrateReplyType, opts, "migrate_cut", hid, blob, member)
			if err != nil {
				break
			}
			if cm.Command == "cut_done" {
				im, err := sendprim.Call(q, self, MigrateReplyType, opts, "handoff_install", hid, blob, cm.Args[0], cm.Args[1])
				if err == nil && im.Command == "installed" {
					return
				}
				break
			}
			if cm.Command != "cut_busy" {
				break
			}
			if !q.Pause(opts.Backoff + time.Millisecond) {
				return
			}
		}
		// The puller gave up: the marker goes, so the driver's next
		// handoff_pull spawns a fresh one.
		_ = q.Send(self, "handoff_fail", hid)
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
