package tpc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/guardian"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// CoordinatorDefName is the library name of the coordinator definition.
const CoordinatorDefName = "tpc_coordinator"

// Coordinator tuning. Creation arguments of the coordinator guardian:
//
//	vote_timeout_ms Int — how long to wait for each vote round
//	retries         Int — decision-phase retry attempts per participant
type coordConfig struct {
	voteTimeout time.Duration
	retries     int
}

// decision is the coordinator's durable record for one transaction.
type decision struct {
	txid    string
	commit  bool
	ops     []txOp
	settled bool // every participant acknowledged the decision
}

type txOp struct {
	participant xrep.PortName
	op          xrep.Value
}

// coordState is rebuilt from the coordinator's log at recovery. The mutex
// guards the decisions map and the settled flags: each transaction runs in
// its own process (a deliberate echo of Figure 1c), so they share the
// coordinator's objects the way any guardian's processes do.
type coordState struct {
	cfg coordConfig

	mu        sync.Mutex
	decisions map[string]*decision
}

func (st *coordState) lookup(txid string) (*decision, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	d, ok := st.decisions[txid]
	return d, ok
}

func (st *coordState) record(d *decision) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.decisions[d.txid] = d
}

func (st *coordState) markSettled(d *decision) {
	st.mu.Lock()
	defer st.mu.Unlock()
	d.settled = true
}

// appendDecisionRecord appends one coordinator log record to dst: the
// sequence (kind, txid, commit, ops), ops a sequence of (participant, op)
// pairs.
func appendDecisionRecord(dst []byte, kind string, d *decision) []byte {
	dst = wire.AppendSeqHeader(dst, 4)
	dst = wire.AppendStr(dst, kind)
	dst = wire.AppendStr(dst, d.txid)
	dst = wire.AppendBool(dst, d.commit)
	dst = wire.AppendSeqHeader(dst, len(d.ops))
	for _, o := range d.ops {
		dst = wire.AppendSeqHeader(dst, 2)
		dst = wire.AppendPortName(dst, o.participant)
		var err error
		if dst, err = wire.AppendValue(dst, o.op); err != nil {
			panic(err)
		}
	}
	return dst
}

// parseOps reads a sequence of (participant, op) pairs: a begin message's
// and a decision record's.
func parseOps(seq xrep.Seq) ([]txOp, error) {
	ops := make([]txOp, 0, len(seq))
	for _, e := range seq {
		f := xrep.ReadSeq(e, 2)
		ops = append(ops, txOp{participant: f.Port(), op: f.Value()})
		if err := f.Err(); err != nil {
			return nil, fmt.Errorf("tpc: op: %w", err)
		}
	}
	return ops, nil
}

// readDecision is appendDecisionRecord's inverse, over the unmarshalled
// record.
func readDecision(v xrep.Value) (kind string, d *decision, err error) {
	f := xrep.ReadSeq(v, 4)
	kind = f.Str()
	d = &decision{txid: f.Str(), commit: f.Bool()}
	d.ops, err = parseOps(f.Seq())
	return kind, d, errors.Join(f.Err(), err)
}

// foldDecision is the coordinator's folder (guardian.Folder). The
// coordinator's log has one writer, so every record is a decision record
// or malformed.
func (st *coordState) foldDecision(v xrep.Value) (bool, error) {
	kind, d, err := readDecision(v)
	switch {
	case err != nil:
		return true, fmt.Errorf("tpc: decision record: %w", err)
	case kind == "decided":
		st.decisions[d.txid] = d
	case kind == "settled":
		if prev, ok := st.decisions[d.txid]; ok {
			prev.settled = true
		}
	default:
		return true, fmt.Errorf("tpc: decision record of unknown kind %q", kind)
	}
	return true, nil
}

// CoordinatorDef returns the coordinator guardian definition. The
// coordinator logs every decision before announcing it (the classic 2PC
// commit point) and a settlement marker once all participants have
// acknowledged; recovery re-drives the decision phase of unsettled
// transactions, which is safe because commit/abort are idempotent at the
// participants.
func CoordinatorDef() *guardian.GuardianDef {
	main := func(ctx *guardian.Ctx) {
		st := &coordState{
			cfg:       coordConfig{voteTimeout: time.Second, retries: 3},
			decisions: make(map[string]*decision),
		}
		// Optional creation arguments: (vote timeout in ms, decision retries).
		f := xrep.ReadFields(ctx.Args, 2)
		if ms, r := f.Int(), f.Int(); f.Err() == nil {
			if ms > 0 {
				st.cfg.voteTimeout = time.Duration(ms) * time.Millisecond
			}
			if r >= 0 {
				st.cfg.retries = int(r)
			}
		}
		ctx.G.SetState(st)
		log := ctx.G.Log()
		if ctx.Recovering {
			// Rebuild under the state lock: owner-side audits
			// (CoordinatorUnsettled) may read the map as soon as the
			// guardian exists, which is before the replay finishes. A log
			// that cannot be read is fail-stop: a coordinator that came up
			// empty would answer a re-ask for a commit it logged with
			// presumed abort.
			st.mu.Lock()
			ctx.G.Replay(nil, st.foldDecision)
			var unsettled []*decision
			for _, d := range st.decisions {
				if !d.settled {
					unsettled = append(unsettled, d)
				}
			}
			st.mu.Unlock()
			// Finish the decision phase of every unsettled transaction.
			for _, d := range unsettled {
				d := d
				ctx.G.Spawn("resettle", func(pr *guardian.Process) {
					settle(pr, log, st, d)
				})
			}
		}

		guardian.NewReceiver(ctx.Ports[0]).
			When("begin", func(pr *guardian.Process, m *guardian.Message) {
				txid := m.Str(0)
				client := m.ReplyTo
				// Duplicate begin for a decided transaction: re-announce
				// the recorded outcome (client retry after lost reply).
				if d, dup := st.lookup(txid); dup {
					replyOutcome(pr, client, d)
					return
				}
				d := &decision{txid: txid}
				var err error
				if d.ops, err = parseOps(m.Seq(1)); err != nil {
					// Refused whole: running the entries that do read would
					// commit part of a transaction.
					replyOutcome(pr, client, d)
					return
				}
				// Each transaction gets its own process so slow votes do
				// not serialize unrelated transactions (the Figure 1b/1c
				// lesson applied to the coordinator itself).
				g := ctx.G
				g.Spawn("tx", func(q *guardian.Process) {
					runTx(q, log, st, d, client)
				})
			}).
			WhenFailure(func(_ *guardian.Process, _ string, _ *guardian.Message) {
				// §3.4 failure arm: a discarded message named the begin
				// port as its replyto. Per-transaction processes talk to
				// participants on their own ports and handle their own
				// failures; nothing to settle here.
			}).
			Loop(ctx.Proc, nil)
	}
	return &guardian.GuardianDef{
		TypeName: CoordinatorDefName,
		Provides: []*guardian.PortType{CoordinatorPortType},
		Init:     main,
		Recover:  main,
	}
}

// runTx drives one transaction: vote phase, durable decision, decision
// phase, client reply.
func runTx(pr *guardian.Process, log logAppender, st *coordState, d *decision, client xrep.PortName) {
	g := pr.Guardian()
	votes, err := g.NewPort(CoordReplyType, len(d.ops)*2+4)
	if err != nil {
		return
	}
	defer g.RemovePort(votes)

	// Phase 1: solicit votes. Prepares are idempotent at the participants
	// (a prepared participant re-votes yes), so the coordinator re-sends
	// to participants it has not heard from across several sub-windows of
	// the vote timeout — masking lost prepare/vote messages without
	// changing the protocol’s semantics.
	clock := g.Node().World().Clock()
	// Count distinct yes voters so a duplicated network delivery cannot
	// fake a quorum.
	voted := make(map[principalKey]bool)
	commit := true
	const voteRounds = 3
	roundLen := st.cfg.voteTimeout / voteRounds
vote:
	for round := 0; round < voteRounds && len(voted) < len(d.ops); round++ {
		for _, o := range d.ops {
			if !voted[principalKey{o.participant.Node, o.participant.Guardian}] {
				_ = pr.SendReplyTo(o.participant, votes.Name(), "prepare", d.txid, o.op)
			}
		}
		deadline := clock.Now().Add(roundLen)
		for len(voted) < len(d.ops) {
			remain := deadline.Sub(clock.Now())
			if remain <= 0 {
				break // next round re-solicits the missing votes
			}
			m, status := pr.Receive(remain, votes)
			if status == guardian.RecvKilled {
				return
			}
			if status != guardian.RecvOK {
				break
			}
			switch m.Command {
			case "vote_yes":
				if m.Str(0) == d.txid {
					voted[principalKey{m.SrcNode, m.SrcGuardian}] = true
				}
			case "vote_no", guardian.FailureCommand:
				commit = false
				break vote
			}
		}
	}
	if len(voted) < len(d.ops) {
		commit = false // missing votes count as no (presumed abort)
	}
	d.commit = commit

	// The commit point: log the decision durably before telling anyone.
	log.AppendSync(appendDecisionRecord(nil, "decided", d))
	st.record(d)

	settle(pr, log, st, d)
	replyOutcome(pr, client, d)
}

// principalKey identifies a participant by message provenance.
type principalKey struct {
	node     string
	guardian uint64
}

// settle announces the decision until every participant acknowledges (or
// retries run out; recovery will resume it).
func settle(pr *guardian.Process, log logAppender, st *coordState, d *decision) {
	g := pr.Guardian()
	acks, err := g.NewPort(CoordReplyType, len(d.ops)*2+4)
	if err != nil {
		return
	}
	defer g.RemovePort(acks)
	cmd, ack := "commit", "ack_commit"
	if !d.commit {
		cmd, ack = "abort", "ack_abort"
	}
	pending := make(map[xrep.PortName]bool, len(d.ops))
	for _, o := range d.ops {
		pending[o.participant] = true
	}
	for attempt := 0; attempt <= st.cfg.retries && len(pending) > 0; attempt++ {
		for _, o := range d.ops {
			if pending[o.participant] {
				_ = pr.SendReplyTo(o.participant, acks.Name(), cmd, d.txid)
			}
		}
		deadline := g.Node().World().Clock().Now().Add(st.cfg.voteTimeout)
		for len(pending) > 0 {
			remain := deadline.Sub(g.Node().World().Clock().Now())
			if remain <= 0 {
				break
			}
			m, status := pr.Receive(remain, acks)
			if status != guardian.RecvOK {
				break
			}
			if m.Command == ack && m.Str(0) == d.txid {
				// Provenance carries node and guardian; match the pending
				// participant port by those coordinates.
				for p := range pending {
					if p.Node == m.SrcNode && p.Guardian == m.SrcGuardian {
						delete(pending, p)
					}
				}
			}
		}
	}
	if len(pending) == 0 {
		st.markSettled(d)
		log.AppendSync(appendDecisionRecord(nil, "settled", d))
	}
}

func replyOutcome(pr *guardian.Process, client xrep.PortName, d *decision) {
	if client.IsZero() {
		return
	}
	if d.commit {
		_ = pr.Send(client, OutcomeCommitted, d.txid)
	} else {
		_ = pr.Send(client, OutcomeAborted, d.txid)
	}
}

// logAppender is the slice of stable.Log the coordinator needs; an
// interface keeps settle testable.
type logAppender interface {
	AppendSync(data []byte) uint64
}

// CoordinatorUnsettled lists the transactions whose decision is durable
// but not yet acknowledged by every participant (owner-side audit
// facility: a drain checker polls this to empty after recovery).
func CoordinatorUnsettled(g *guardian.Guardian) ([]string, bool) {
	st, ok := g.State().(*coordState)
	if !ok {
		return nil, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []string
	for txid, d := range st.decisions {
		if !d.settled {
			out = append(out, txid)
		}
	}
	return out, true
}

// CoordinatorDecision inspects the coordinator's durable outcome for a
// transaction (owner-side test facility).
func CoordinatorDecision(g *guardian.Guardian, txid string) (outcome string, settled, known bool) {
	st, ok := g.State().(*coordState)
	if !ok {
		return "", false, false
	}
	d, ok := st.lookup(txid)
	if !ok {
		return "", false, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if d.commit {
		return OutcomeCommitted, d.settled, true
	}
	return OutcomeAborted, d.settled, true
}
