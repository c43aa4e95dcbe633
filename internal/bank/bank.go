// Package bank implements the second application domain the paper's
// object-oriented view targets ("banking systems", §1.2): branch guardians
// that guard account data, with durable, idempotent operations and a
// cross-branch transfer protocol.
//
// The transfer protocol exercises the paper's second message-exchange
// pattern (§3): "the response comes from a different process than the
// original recipient of the request message". A client asks branch A to
// transfer_out; A debits durably and forwards a transfer_in to branch B,
// passing along the client's reply port; B credits and answers the client
// directly. Operation identifiers make every step idempotent, so retries
// after timeouts are safe — exactly the §3.5 discipline.
package bank

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/amo"
	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/tpc"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// BranchDefName is the library name of the branch guardian definition.
const BranchDefName = "bank_branch"

// Outcome command identifiers.
const (
	OutcomeOK           = "ok"
	OutcomeInsufficient = "insufficient"
	OutcomeNoAccount    = "no_account"
	OutcomeExists       = "account_exists"
)

// BranchPortType describes a branch guardian's port. Every mutating
// message carries a client-chosen operation id (op_id) making it
// idempotent: re-performing a completed operation is a no-op that reports
// the original outcome.
var BranchPortType = tpc.ParticipantMsgs(guardian.NewPortType("bank_branch_port").
	Msg("open", xrep.KindString).
	Replies("open", OutcomeOK, OutcomeExists).
	Msg("deposit", xrep.KindString, xrep.KindInt, xrep.KindString).
	Replies("deposit", OutcomeOK, OutcomeNoAccount).
	Msg("withdraw", xrep.KindString, xrep.KindInt, xrep.KindString).
	Replies("withdraw", OutcomeOK, OutcomeInsufficient, OutcomeNoAccount).
	Msg("balance", xrep.KindString).
	Replies("balance", "balance_is", OutcomeNoAccount).
	Msg("transfer_out", xrep.KindString, xrep.KindInt, xrep.KindString, xrep.KindPortName, xrep.KindString).
	Replies("transfer_out", OutcomeOK, OutcomeInsufficient, OutcomeNoAccount).
	Msg("transfer_in", xrep.KindString, xrep.KindInt, xrep.KindString).
	Replies("transfer_in", OutcomeOK, OutcomeNoAccount).
	Msg("audit").
	Replies("audit", "audit_info").
	// Shard-mode vocabulary (shard.go): ring adoption, bulk seeding, the
	// one-step handoff, and (ParticipantMsgs) 2PC escrow participation.
	Msg("ring_update", xrep.KindString).
	Replies("ring_update", "ring_ok").
	Msg("seed", xrep.KindString, xrep.KindInt, xrep.KindInt).
	Replies("seed", "seeded").
	Msg("handoff_pull", xrep.KindString, xrep.KindString, xrep.KindPortName).
	Replies("handoff_pull", "pull_ok", "pull_denied").
	Msg("handoff_status", xrep.KindString).
	Replies("handoff_status", "handoff_state").
	Msg("handoff_fail", xrep.KindString).
	Msg("handoff_install", xrep.KindString, xrep.KindString, xrep.KindSeq, guardian.AnyKind).
	Replies("handoff_install", "installed", "install_denied").
	Msg("migrate_cut", xrep.KindString, xrep.KindString, xrep.KindString).
	Replies("migrate_cut", "cut_done", "cut_busy", "migrate_denied").
	Msg("migrate_ack", xrep.KindString).
	Replies("migrate_ack", "ack_ok"))

// ClientReplyType receives every branch reply.
var ClientReplyType = guardian.NewPortType("bank_client_port").
	Msg(OutcomeOK).
	Msg(OutcomeExists).
	Msg(OutcomeInsufficient).
	Msg(OutcomeNoAccount).
	Msg("balance_is", xrep.KindInt).
	Msg("audit_info", xrep.KindInt, xrep.KindInt)

// branchState is the guardian's objects: accounts and the set of applied
// operation ids.
type branchState struct {
	accounts map[string]int64
	// applied maps op_id → outcome command, for idempotent replay and
	// duplicate suppression.
	applied map[string]string
	// holds is the aggregate 2PC debit escrow per account (shard mode):
	// balance checks subtract it, so a prepared-but-undecided debit can
	// never be overdrawn by a concurrent withdrawal.
	holds map[string]int64
	// shard is the shard-mode runtime, nil-safe to ignore elsewhere.
	shard *shardRuntime
	// applies counts mutating executions taken through the at-most-once
	// port — the ground truth a double-apply audit compares against the
	// number of logical operations clients issued. Atomic because tests
	// read it while the guardian runs.
	applies atomic.Int64
}

// hold adjusts the debit escrow against one account.
func (st *branchState) hold(acct string, delta int64) {
	if st.holds == nil {
		st.holds = make(map[string]int64)
	}
	st.holds[acct] += delta
	if st.holds[acct] <= 0 {
		delete(st.holds, acct)
	}
}

// BranchDef returns the branch guardian definition.
//
// The branch serves two ports: its native idempotent port (every mutating
// message carries an op_id) and an at-most-once port, where the amo layer
// supplies the duplicate suppression instead and commands carry NO op_id.
// Creation arguments, in any order:
//
//   - the string "raw" disables the at-most-once filter on the second
//     port — the control arm experiment E10 uses to demonstrate double
//     application under duplication;
//   - an integer N > 0 makes the branch checkpoint its state (accounts,
//     applied-op table, dedup snapshot) every N mutating messages,
//     compacting the log — without it the log only ever grows.
func BranchDef() *guardian.GuardianDef {
	return &guardian.GuardianDef{
		TypeName: BranchDefName,
		Provides: []*guardian.PortType{BranchPortType, amo.ReqType},
		Init:     branchMain,
		Recover:  branchMain,
	}
}

// Applies reports how many mutating operations the branch has executed
// through its at-most-once port. Owner-side audit facility.
func Applies(g *guardian.Guardian) (int64, error) {
	st, ok := g.State().(*branchState)
	if !ok {
		return 0, fmt.Errorf("bank: guardian %d is not a branch", g.ID())
	}
	return st.applies.Load(), nil
}

// appendOpRecord appends one durable operation's record to dst: the
// sequence (kind, account, amount, op id).
func appendOpRecord(dst []byte, kind, acct string, amount int64, opID string) []byte {
	dst = wire.AppendSeqHeader(dst, 4)
	dst = wire.AppendStr(dst, kind)
	dst = wire.AppendStr(dst, acct)
	dst = wire.AppendInt(dst, amount)
	return wire.AppendStr(dst, opID)
}

// decodeOpRecord is appendOpRecord's inverse, over the unmarshalled record.
func decodeOpRecord(v xrep.Value) (kind, acct string, amount int64, opID string, err error) {
	f := xrep.ReadSeq(v, 4)
	kind, acct, amount, opID = f.Str(), f.Str(), f.Int(), f.Str()
	return kind, acct, amount, opID, f.Err()
}

// foldOp is the op-record folder. A branch's log holds records of its
// shard core and its dedup filter, op records are its only sequences: a
// sequence is an op record, and one that does not read as (kind, account,
// amount, op id) is malformed.
func (st *branchState) foldOp(v xrep.Value) (bool, error) {
	if v.Kind() != xrep.KindSeq {
		return false, nil
	}
	kind, acct, amount, opID, err := decodeOpRecord(v)
	if err != nil {
		return true, fmt.Errorf("bank: op record: %w", err)
	}
	st.apply(kind, acct, amount, opID)
	return true, nil
}

// checkpointRec names the record a branch's checkpoint state marshals to.
const checkpointRec = "bank/checkpoint"

// checkpointBufs are the buffers a branch writes its checkpoints in, kept
// from one checkpoint to the next: a Log is done with the state by the time
// Checkpoint returns.
type checkpointBufs struct {
	buf   []byte
	names []string
}

// encode marshals the branch's whole durable state — accounts, the
// applied-op table, the dedup filter's snapshot, and the shard core
// (adopted ring, handoffs, escrow) — so the log records it folds in can
// be compacted away. Maps are emitted in sorted order: the same state
// always checkpoints to the same bytes. The tables that grow with the
// branch — accounts, applied ops and the shard core's escrow transactions
// — go from the maps to bytes, into one buffer sized for all three; only
// the dedup snapshot stays a value its owner renders. The bytes are b's
// until the next encode.
func (b *checkpointBufs) encode(st *branchState, dedup *amo.Dedup, core *shardCore) []byte {
	if n := max(len(st.accounts), len(st.applied)); cap(b.names) < n {
		b.names = make([]string, 0, n)
	}
	names := b.names[:0]
	size := 64 + escrowRowSize*core.escrow.Len()
	for a := range st.accounts {
		names = append(names, a)
		size += len(a) + 16
	}
	for id, outcome := range st.applied {
		size += len(id) + len(outcome) + 8
	}
	sort.Strings(names)
	if cap(b.buf) < size {
		b.buf = make([]byte, 0, size)
	}
	buf := wire.AppendRecHeader(b.buf[:0], checkpointRec, 4)
	buf = wire.AppendSeqHeader(buf, len(names))
	for _, a := range names {
		buf = wire.AppendSeqHeader(buf, 2)
		buf = wire.AppendStr(buf, a)
		buf = wire.AppendInt(buf, st.accounts[a])
	}
	names = names[:0]
	for id := range st.applied {
		names = append(names, id)
	}
	sort.Strings(names)
	buf = wire.AppendSeqHeader(buf, len(names))
	for _, id := range names {
		buf = wire.AppendSeqHeader(buf, 2)
		buf = wire.AppendStr(buf, id)
		buf = wire.AppendStr(buf, st.applied[id])
	}
	var dsnap xrep.Value = xrep.Seq{}
	if dedup != nil {
		dsnap = dedup.Snapshot()
	}
	buf, err := wire.AppendValue(buf, dsnap)
	if err == nil {
		buf, err = core.appendCheckpoint(buf)
	}
	if err != nil {
		panic(fmt.Errorf("bank: marshal checkpoint: %v", err))
	}
	b.buf, b.names = buf, names
	return buf
}

// escrowRowSize is what checkpointBufs.encode budgets for one escrow row: a
// router's txid ("<client>/tx<n>", about 20 bytes), the phase, the kind,
// an account name and an amount, with their tags and lengths.
const escrowRowSize = 64

// decodeCheckpoint is checkpointBufs.encode's inverse: it loads accounts and
// applied ops into st and returns the dedup snapshot for the amo layer
// and the shard-state field for shardCore.restoreCheckpoint (nil for a
// checkpoint written before the format carried shard state).
func decodeCheckpoint(data []byte, st *branchState) (dedupSnap, shardState xrep.Value, err error) {
	v, err := wire.UnmarshalValue(data)
	if err != nil {
		return nil, nil, err
	}
	// The shard core is a fourth field a checkpoint written before the
	// format carried shard state lacks.
	f := xrep.ReadRec(v, checkpointRec, 3)
	accounts, applied := f.Seq(), f.Seq()
	dedupSnap = f.Value()
	if f.More() {
		shardState = f.Value()
	}
	if err := f.Err(); err != nil {
		return nil, nil, err
	}
	for _, av := range accounts {
		e := xrep.ReadSeq(av, 2)
		name, bal := e.Str(), e.Int()
		if err := e.Err(); err != nil {
			return nil, nil, fmt.Errorf("account entry: %w", err)
		}
		st.accounts[name] = bal
	}
	for _, ov := range applied {
		e := xrep.ReadSeq(ov, 2)
		id, outcome := e.Str(), e.Str()
		if err := e.Err(); err != nil {
			return nil, nil, fmt.Errorf("applied-op entry: %w", err)
		}
		st.applied[id] = outcome
	}
	return dedupSnap, shardState, nil
}

// restoreBranch loads a checkpoint into core and its branch state, and into
// the dedup filter when there is one. Shard state restores with the
// accounts, BEFORE any record is folded on top, so tail records (acks,
// commits) find the handoffs and txns they refer to.
func restoreBranch(cp []byte, core *shardCore) error {
	dedupSnap, shardState, err := decodeCheckpoint(cp, core.st)
	if err == nil && shardState != nil {
		err = core.restoreCheckpoint(shardState)
	}
	if err == nil && core.dedup != nil {
		err = core.dedup.Restore(dedupSnap)
	}
	return err
}

// ReplayAccountsFrom rebuilds a branch's account table from its log alone:
// the checkpoint, if any, seeds the accounts and shard state, and the
// records after it are folded on top through the same deterministic folds
// recovery uses, skipping the dedup filter's. It is the independent
// reference a recovery checker compares a running branch against: if the
// live state and this pure replay disagree, recovery would lose or invent
// an effect.
func ReplayAccountsFrom(log durable.Log) (map[string]int64, error) {
	st := &branchState{accounts: make(map[string]int64), applied: make(map[string]string)}
	core := newShardCore("", st, nil)
	err := guardian.Replay(log, func(cp []byte) error { return restoreBranch(cp, core) }, core.fold, st.foldOp)
	return st.accounts, err
}

// apply performs one operation against the state; deterministic, so
// recovery replays the log through it. It returns the outcome command.
func (st *branchState) apply(kind, acct string, amount int64, opID string) string {
	if opID != "" {
		if prev, dup := st.applied[opID]; dup {
			return prev
		}
	}
	outcome := func() string {
		switch kind {
		case "open":
			if _, dup := st.accounts[acct]; dup {
				return OutcomeExists
			}
			// The key lives as long as the branch; the message (or log
			// record) it arrived in should not.
			st.accounts[strings.Clone(acct)] = 0
			return OutcomeOK
		case "deposit", "transfer_in":
			if _, ok := st.accounts[acct]; !ok {
				return OutcomeNoAccount
			}
			st.accounts[acct] += amount
			return OutcomeOK
		case "withdraw", "transfer_out":
			bal, ok := st.accounts[acct]
			if !ok {
				return OutcomeNoAccount
			}
			// Escrowed debits (shard-mode 2PC holds) are unavailable; the
			// map is nil outside shard mode and reads as zero.
			if bal-st.holds[acct] < amount {
				return OutcomeInsufficient
			}
			st.accounts[acct] = bal - amount
			return OutcomeOK
		default:
			return OutcomeNoAccount
		}
	}()
	if opID != "" {
		st.applied[strings.Clone(opID)] = outcome
	}
	return outcome
}

// amoArgs reads an at-most-once command's arguments left to right:
// (account) for open and balance, (account, amount) for deposit and
// withdraw, (from, to, amount) for transfer. ok is false for any other
// command and for arguments missing or of the wrong kind: such a request
// is refused, never run on zero values. Surplus trailing arguments (a
// caller's op id) are tolerated.
func amoArgs(command string, args xrep.Seq) (acct, to string, amount int64, ok bool) {
	f := xrep.ReadFields(args, 0)
	switch command {
	case "open", "balance":
		acct = f.Str()
	case "deposit", "withdraw":
		acct, amount = f.Str(), f.Int()
	case "transfer":
		acct, to, amount = f.Str(), f.Str(), f.Int()
	default:
		return "", "", 0, false
	}
	f.Rest()
	return acct, to, amount, f.Err() == nil
}

func branchMain(ctx *guardian.Ctx) {
	st := &branchState{
		accounts: make(map[string]int64),
		applied:  make(map[string]string),
	}
	ctx.G.SetState(st)
	log := ctx.G.Log()

	raw := false
	cpEvery := 0
	member := ""
	for _, a := range ctx.Args {
		switch v := a.(type) {
		case xrep.Str:
			if string(v) == "raw" {
				raw = true
			}
		case xrep.Int:
			cpEvery = int(v)
		case xrep.Rec:
			if name, ok := shardMember(v); ok {
				member = name
			}
		}
	}

	var dedup *amo.Dedup
	if !raw {
		// The dedup table shares the guardian's own log: its log-then-reply
		// sync is what commits the volatile op records appendOp leaves
		// behind, making op and dedup record durable atomically (one forced
		// write).
		dedup = amo.NewDedup(amo.DedupOptions{Log: log})
	}

	// Every branch carries the shard runtime; with no ShardArg the member
	// is "" and the ownership filter stays uninstalled, so the shard
	// vocabulary still answers (a plain branch accepts seed and escrow)
	// while routing behavior is unchanged.
	sh := newShardRuntime(member, st, log, dedup, ctx.G, ctx.Ports[0].Name())
	st.shard = sh

	if ctx.Recovering {
		// One pass in log order: the checkpoint, then each record offered to
		// the shard core, the op apply and the dedup filter.
		folders := []guardian.Folder{sh.fold, st.foldOp}
		if dedup != nil {
			folders = append(folders, dedup.Fold)
		}
		ctx.G.Replay(func(cp []byte) error { return restoreBranch(cp, sh.shardCore) }, folders...)
	}

	// opRecord encodes into the branch's record scratch. Only this process
	// writes it, and the log copies each record as it is appended, so the
	// scratch is free for the next record the moment Append returns.
	var scratch []byte
	opRecord := func(kind, acct string, amount int64, opID string) []byte {
		scratch = appendOpRecord(scratch[:0], kind, acct, amount, opID)
		return scratch
	}

	// maybeCheckpoint folds the branch's whole state into a checkpoint
	// every cpEvery mutating messages. It MUST run at handler entry, when
	// the volatile tail is provably empty (every handler path ends in a
	// sync): a checkpoint taken mid-handler would capture effects whose
	// dedup records are not durable yet, and a crash would then let a
	// client retry re-execute an effect the checkpoint already holds.
	opsSinceCP := 0
	var cpBufs checkpointBufs
	maybeCheckpoint := func() {
		if cpEvery <= 0 {
			return
		}
		opsSinceCP++
		if opsSinceCP < cpEvery {
			return
		}
		opsSinceCP = 0
		// The checkpoint captures shard state too (ring, handoffs, escrow),
		// so compaction keeps running in shard mode.
		log.Checkpoint(cpBufs.encode(st, dedup, sh.shardCore), log.LastDurableSeq())
	}

	// mutate logs then applies (log-then-ack) and reports the outcome.
	mutate := func(pr *guardian.Process, m *guardian.Message, kind, acct string, amount int64, opID string, replyTo xrep.PortName) string {
		maybeCheckpoint()
		// Duplicate of an applied op: answer from memory without relogging.
		if opID != "" {
			if prev, dup := st.applied[opID]; dup {
				if !replyTo.IsZero() {
					_ = pr.Send(replyTo, prev)
				}
				return prev
			}
		}
		log.AppendSync(opRecord(kind, acct, amount, opID))
		outcome := st.apply(kind, acct, amount, opID)
		if !replyTo.IsZero() {
			_ = pr.Send(replyTo, outcome)
		}
		return outcome
	}

	// appendOp makes one amo-port op record durable. With the dedup filter
	// on (the normal mode), the record is only appended here — volatile —
	// and committed by the filter's own log-then-reply AppendSync on the
	// SAME shared log, so the op and its dedup record become durable in one
	// forced write: there is no crash window in which the op is durable but
	// the dedup table has forgotten it, which would let a post-recovery
	// retry re-execute the op. The raw control arm has no filter, so it
	// must sync here.
	appendOp := func(data []byte) {
		if raw {
			log.AppendSync(data)
		} else {
			log.Append(data)
		}
	}

	// amoExec executes one command arriving on the at-most-once port.
	// These carry NO op_id: duplicate suppression is the amo layer's job
	// (or, in raw mode, deliberately nobody's). Effects are logged to the
	// same op log with an empty op_id, so recovery replays them as-is.
	amoExec := func(pr *guardian.Process, req amo.Request) (string, xrep.Seq, bool) {
		acct, to, amount, ok := amoArgs(req.Command, req.Args)
		if !ok {
			return OutcomeNoAccount, nil, false
		}
		switch req.Command {
		case "open", "deposit", "withdraw":
			maybeCheckpoint()
			appendOp(opRecord(req.Command, acct, amount, ""))
			outcome := st.apply(req.Command, acct, amount, "")
			if outcome == OutcomeOK {
				st.applies.Add(1)
			}
			return outcome, nil, false
		case "transfer":
			// Intra-branch move: both legs or neither, so the sufficiency
			// check precedes any logging.
			maybeCheckpoint()
			// An account absent here but owned by another shard makes this
			// a cross-shard pair: answer split (the Router re-plans through
			// 2PC) rather than a false no_account.
			bal, ok := st.accounts[acct]
			if !ok {
				if sh.member != "" && !sh.owned(acct) {
					return amo.OutcomeSplit, nil, false
				}
				return OutcomeNoAccount, nil, false
			}
			if _, ok := st.accounts[to]; !ok {
				if sh.member != "" && !sh.owned(to) {
					return amo.OutcomeSplit, nil, false
				}
				return OutcomeNoAccount, nil, false
			}
			if bal-st.holds[acct] < amount {
				return OutcomeInsufficient, nil, false
			}
			log.Append(opRecord("withdraw", acct, amount, ""))
			appendOp(opRecord("deposit", to, amount, ""))
			st.apply("withdraw", acct, amount, "")
			st.apply("deposit", to, amount, "")
			st.applies.Add(1)
			return OutcomeOK, nil, false
		case "balance":
			if bal, ok := st.accounts[acct]; ok {
				return "balance_is", xrep.Seq{xrep.Int(bal)}, true
			}
			return OutcomeNoAccount, nil, true
		}
		return OutcomeNoAccount, nil, false
	}

	// No failure arm: amo's retry re-sends a bounced transfer_in.
	recv := guardian.NewReceiver(ctx.Ports[0], ctx.Ports[1])
	if member != "" {
		// Ring ownership filter, installed BEFORE the dedup hook so a
		// misrouted request is redirected without touching the dedup
		// table; requests it declines fall through and execute normally.
		recv.Intercept(sh.ownershipHook(), amo.ReqCommand)
	}
	if raw {
		// Control arm: execute every delivery, duplicates included — the
		// bare remote-transaction-send behavior of §3.5.
		recv.Intercept(func(pr *guardian.Process, m *guardian.Message) bool {
			req, _ := amo.ParseRequest(m)
			outcome, out, _ := amoExec(pr, req)
			amo.SendReply(pr, m, outcome, out)
			return true
		}, amo.ReqCommand)
	} else {
		recv.Intercept(dedup.Hook(amoExec), amo.ReqCommand)
	}

	recv.
		When("open", func(pr *guardian.Process, m *guardian.Message) {
			mutate(pr, m, "open", m.Str(0), 0, "", m.ReplyTo)
		}).
		When("deposit", func(pr *guardian.Process, m *guardian.Message) {
			mutate(pr, m, "deposit", m.Str(0), m.Int(1), m.Str(2), m.ReplyTo)
		}).
		When("withdraw", func(pr *guardian.Process, m *guardian.Message) {
			mutate(pr, m, "withdraw", m.Str(0), m.Int(1), m.Str(2), m.ReplyTo)
		}).
		When("balance", func(pr *guardian.Process, m *guardian.Message) {
			if m.ReplyTo.IsZero() {
				return
			}
			bal, ok := st.accounts[m.Str(0)]
			if !ok {
				_ = pr.Send(m.ReplyTo, OutcomeNoAccount)
				return
			}
			_ = pr.Send(m.ReplyTo, "balance_is", bal)
		}).
		When("transfer_out", func(pr *guardian.Process, m *guardian.Message) {
			acct, amount, opID := m.Str(0), m.Int(1), m.Str(2)
			destPort, destAcct := m.Port(3), m.Str(4)
			// Debit durably. On failure the client is answered directly;
			// on success the credit request is forwarded carrying the
			// client's reply port, so the response to the client comes
			// from the destination branch — the different-guardian
			// response pattern.
			outcome := mutate(pr, m, "transfer_out", acct, amount, opID+"/out", xrep.PortName{})
			if outcome != OutcomeOK {
				if !m.ReplyTo.IsZero() {
					_ = pr.Send(m.ReplyTo, outcome)
				}
				return
			}
			_ = pr.SendReplyTo(destPort, m.ReplyTo, "transfer_in", destAcct, amount, opID+"/in")
		}).
		When("transfer_in", func(pr *guardian.Process, m *guardian.Message) {
			mutate(pr, m, "transfer_in", m.Str(0), m.Int(1), m.Str(2), m.ReplyTo)
		}).
		When("audit", func(pr *guardian.Process, m *guardian.Message) {
			if m.ReplyTo.IsZero() {
				return
			}
			// Escrowed holds are still part of this branch's money; the
			// audit total includes them (they are not yet applied).
			var total int64
			for _, b := range st.accounts {
				total += b
			}
			_ = pr.Send(m.ReplyTo, "audit_info", int64(len(st.accounts)), total)
		})
	sh.installArms(recv)
	recv.Loop(ctx.Proc, nil)
}

// Snapshot reads a branch's account table. Owner-side test facility.
func Snapshot(g *guardian.Guardian) (map[string]int64, error) {
	st, ok := g.State().(*branchState)
	if !ok {
		return nil, fmt.Errorf("bank: guardian %d is not a branch", g.ID())
	}
	out := make(map[string]int64, len(st.accounts))
	for k, v := range st.accounts {
		out[k] = v
	}
	return out, nil
}
