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
	ops     []txOp   // nil once settled
	args    xrep.Seq // what the coordinator sends (parseOps); nil once settled
	settled bool     // every participant acknowledged the decision
}

type txOp struct {
	participant xrep.PortName
	op          xrep.Value
}

// repeats reports whether two of d's ops name one participant, which
// replies once for both.
func (d *decision) repeats() bool {
	for i, o := range d.ops {
		for _, p := range d.ops[:i] {
			if p.participant.Node == o.participant.Node && p.participant.Guardian == o.participant.Guardian {
				return true
			}
		}
	}
	return false
}

// mark counts a vote or an ack in seen, one flag per op: only one from a
// participant of d's, and once for each. It reports whether it counted.
func (d *decision) mark(seen []bool, node string, guardian uint64) bool {
	for i, o := range d.ops {
		if !seen[i] && o.participant.Node == node && o.participant.Guardian == guardian {
			seen[i] = true
			return true
		}
	}
	return false
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

// markSettled marks d settled and lets go of its ops and sends, and with
// them the begin's slot slab: a duplicate begin needs only the outcome.
func (st *coordState) markSettled(d *decision) {
	st.mu.Lock()
	defer st.mu.Unlock()
	d.settled, d.ops, d.args = true, nil, nil
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

// parseOps reads d's sequence of (participant, op) pairs — a begin
// message's or a decision record's — and lays out what the coordinator
// sends around txid, d's id boxed once: d.args is (txid, op₀, txid, op₁, …,
// txid), prepare i sends d.args[2i:2i+2] and a decision or outcome d.args[:1].
func (d *decision) parseOps(txid xrep.Value, seq xrep.Seq) error {
	d.ops = make([]txOp, 0, len(seq))
	d.args = make(xrep.Seq, 0, 2*len(seq)+1)
	for _, e := range seq {
		f := xrep.ReadSeq(e, 2)
		o := txOp{participant: f.Port(), op: f.Value()}
		if err := f.Err(); err != nil {
			return fmt.Errorf("tpc: op: %w", err)
		}
		d.ops = append(d.ops, o)
		d.args = append(d.args, txid, o.op)
	}
	d.args = append(d.args, txid)
	return nil
}

// readDecision is appendDecisionRecord's inverse, over the unmarshalled
// record.
func readDecision(v xrep.Value) (kind string, d *decision, err error) {
	f := xrep.ReadSeq(v, 4)
	kind = f.Str()
	d = &decision{txid: f.Str(), commit: f.Bool()}
	err = d.parseOps(xrep.Str(d.txid), f.Seq())
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
			prev.settled, prev.ops, prev.args = true, nil, nil // as markSettled
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
					runTx(pr, log, st, d, xrep.PortName{}, true)
				})
			}
		}

		// No failure arm: each transaction's process handles its own failures.
		guardian.NewReceiver(ctx.Ports[0]).
			When("begin", func(pr *guardian.Process, m *guardian.Message) {
				txid := m.Str(0)
				client := m.ReplyTo
				// Duplicate begin for a decided transaction: re-announce
				// the recorded outcome (client retry after lost reply).
				if d, dup := st.lookup(txid); dup {
					replyOutcome(pr, client, d.commit, m.Args[:1])
					return
				}
				d := &decision{txid: txid}
				if err := d.parseOps(m.Args[0], m.Seq(1)); err != nil || d.repeats() {
					// Refused whole, and logged nowhere: running the entries
					// that do read would commit part of a transaction, and
					// a participant named twice answers once for both.
					replyOutcome(pr, client, false, m.Args[:1])
					return
				}
				// Each transaction gets its own process so slow votes do
				// not serialize unrelated transactions (the Figure 1b/1c
				// lesson applied to the coordinator itself).
				g := ctx.G
				g.Spawn("tx", func(q *guardian.Process) {
					runTx(q, log, st, d, client, false)
				})
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
// phase, client reply; votes and acks on one port, both records in one
// buffer. A decision recovery found unsettled runs the decision phase alone.
func runTx(pr *guardian.Process, log logAppender, st *coordState, d *decision, client xrep.PortName, decided bool) {
	g := pr.Guardian()
	replies, err := g.NewPort(CoordReplyType, len(d.ops)*2+4)
	if err != nil {
		return
	}
	defer g.RemovePort(replies)
	// A two-op decision record is about a hundred bytes.
	rec := make([]byte, 0, 256)
	outcome := d.args[:1] // settle drops d.args
	if !decided {
		// Prepares are idempotent at the participants (a prepared
		// participant re-votes yes), so the vote phase re-sends to those it
		// has not heard from across several sub-windows of the vote timeout,
		// masking lost prepares and votes. Missing votes count as no
		// (presumed abort).
		const voteRounds = 3
		var ok bool
		prepare := func(i int) xrep.Seq { return d.args[2*i : 2*i+2] }
		if d.commit, ok = ask(pr, replies, d, voteRounds, st.cfg.voteTimeout/voteRounds, "prepare", prepare, "vote_yes", "vote_no"); !ok {
			return
		}
		// The commit point: log the decision durably before telling anyone.
		rec = appendDecisionRecord(rec, "decided", d)
		log.AppendSync(rec)
		st.record(d)
	}
	settle(pr, replies, log, st, d, rec)
	replyOutcome(pr, client, d.commit, outcome)
}

// settle announces the decision on replies until every participant acks
// (or retries run out; recovery resumes it), then logs it settled in rec.
func settle(pr *guardian.Process, replies *guardian.Port, log logAppender, st *coordState, d *decision, rec []byte) {
	cmd, ack := "commit", "ack_commit"
	if !d.commit {
		cmd, ack = "abort", "ack_abort"
	}
	told := func(int) xrep.Seq { return d.args[:1] }
	if all, _ := ask(pr, replies, d, st.cfg.retries+1, st.cfg.voteTimeout, cmd, told, ack, ""); all {
		log.AppendSync(appendDecisionRecord(rec[:0], "settled", d))
		st.markSettled(d)
	}
}

// ask runs one phase of the protocol on replies. Each of up to rounds
// rounds sends cmd, with args(i) for op i, to every participant that has
// not answered, and waits up to wait for replies named want: a reply
// counts only from one of d's participants, and once for each, so a
// duplicated delivery or a stranger cannot fake a quorum. all reports that
// every participant answered. A reply named halt, or a failure message
// when halt is set, ends the phase with all false; ok is false if the
// process was killed.
func ask(pr *guardian.Process, replies *guardian.Port, d *decision, rounds int, wait time.Duration,
	cmd string, args func(i int) xrep.Seq, want, halt string) (all, ok bool) {
	clock := pr.Guardian().Node().World().Clock()
	var flags [8]bool // up to eight ops, the tally stays on the stack
	seen := append(flags[:0], make([]bool, len(d.ops))...)
	left := len(d.ops)
	for round := 0; round < rounds && left > 0; round++ {
		for i, o := range d.ops {
			if !seen[i] {
				_ = pr.SendSeq(o.participant, replies.Name(), cmd, args(i))
			}
		}
		for deadline := clock.Now().Add(wait); left > 0; {
			remain := deadline.Sub(clock.Now()) // read once: a negative timeout waits forever
			if remain <= 0 {
				break // the next round asks again
			}
			m, status := pr.Receive(remain, replies)
			switch {
			case status == guardian.RecvKilled:
				return false, false
			case status != guardian.RecvOK:
			case halt != "" && (m.Command == halt || m.IsFailure()):
				return false, true
			case m.Command == want && m.Str(0) == d.txid && d.mark(seen, m.SrcNode, m.SrcGuardian):
				left--
			}
		}
	}
	return left == 0, true
}

// replyOutcome answers client, args holding the txid.
func replyOutcome(pr *guardian.Process, client xrep.PortName, commit bool, args xrep.Seq) {
	outcome := OutcomeAborted
	if commit {
		outcome = OutcomeCommitted
	}
	if !client.IsZero() {
		_ = pr.SendSeq(client, xrep.PortName{}, outcome, args)
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
	st.mu.Lock()
	defer st.mu.Unlock()
	switch d, ok := st.decisions[txid]; {
	case !ok:
		return "", false, false
	case d.commit:
		return OutcomeCommitted, d.settled, true
	default:
		return OutcomeAborted, d.settled, true
	}
}
