// Package tpc implements two-phase commit on top of the no-wait send —
// the "recoverable atomic transactions" class of protocols the paper cites
// as the test of its communication primitive (§3: "it is best to be
// conservative and select a primitive that can implement currently known
// protocols"). Nothing here uses any mechanism beyond what the guardian
// runtime provides: typed messages to ports, replyto, timeouts, per-
// guardian logs, and recovery processes.
//
// A coordinator guardian drives transactions over participant guardians.
// Every protocol step is idempotent and logged before it is acknowledged,
// so any node may crash at any point: prepared participants re-learn the
// decision from the coordinator's retries, and a recovered coordinator
// finishes the commit phase of transactions whose decision had been logged.
package tpc

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/guardian"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// Transaction outcomes.
const (
	OutcomeCommitted = "committed"
	OutcomeAborted   = "aborted"
)

// ParticipantMsgs declares the messages Participant.Install answers on pt,
// for a host whose port also serves other messages.
func ParticipantMsgs(pt *guardian.PortType) *guardian.PortType {
	return pt.
		Msg("prepare", xrep.KindString, guardian.AnyKind).
		Replies("prepare", "vote_yes", "vote_no").
		Msg("commit", xrep.KindString).
		Replies("commit", "ack_commit").
		Msg("abort", xrep.KindString).
		Replies("abort", "ack_abort")
}

// ParticipantPortType describes a participant guardian's port.
var ParticipantPortType = ParticipantMsgs(guardian.NewPortType("tpc_participant_port"))

// CoordReplyType receives participant votes and acks (coordinator side).
var CoordReplyType = guardian.NewPortType("tpc_coord_reply_port").
	Msg("vote_yes", xrep.KindString).
	Msg("vote_no", xrep.KindString).
	Msg("ack_commit", xrep.KindString).
	Msg("ack_abort", xrep.KindString)

// CoordinatorPortType is the client-facing coordinator port. A begin
// carries a transaction id and a sequence of (participant port, operation)
// pairs.
var CoordinatorPortType = guardian.NewPortType("tpc_coordinator_port").
	Msg("begin", xrep.KindString, xrep.KindSeq).
	Replies("begin", OutcomeCommitted, OutcomeAborted)

// ClientReplyType receives transaction outcomes.
var ClientReplyType = guardian.NewPortType("tpc_client_port").
	Msg(OutcomeCommitted, xrep.KindString).
	Msg(OutcomeAborted, xrep.KindString)

// Resource is the application state a participant guards. Vote is the
// check and has no effect; Prepare, Commit and Abort are the effects, and
// Participant.Apply is their only caller, once per transaction each, for a
// step the host has made durable. Recovery replays the same steps, so the
// effects must be deterministic. The Participant's table keys each
// transaction's operation, so a Resource sees operations only.
type Resource interface {
	// Vote reports whether op can be held now. A yes is a promise: once
	// held, the operation must stay committable until Commit or Abort.
	Vote(op xrep.Value) bool
	// Prepare holds op.
	Prepare(op xrep.Value)
	// Commit applies a held op.
	Commit(op xrep.Value)
	// Abort releases a held op.
	Abort(op xrep.Value)
}

// rule is one cell of the participant's table: the step a message makes
// durable before it is answered ("" for none) and the answer ("" ignores
// the message). A voted step is taken only if Resource.Vote agrees; a no is
// answered vote_no and logged nowhere.
type rule struct {
	step, reply string
	voted       bool
}

// rules is the participant's whole machine, the table DESIGN §5 quotes:
// rules[phase][message], phase "" for a transaction with no record. A
// refusal is not logged, since a re-prepare may re-evaluate before any
// decision; an abort of an unknown transaction is, so a prepare it overtook
// votes no. A committed transaction ignores abort, and one without our yes
// vote ignores commit: 2PC sends neither.
var rules = map[string]map[string]rule{
	"": {
		"prepare": {step: "prepared", reply: "vote_yes", voted: true},
		"abort":   {step: "aborted", reply: "ack_abort"},
	},
	"prepared": {
		"prepare": {reply: "vote_yes"},
		"commit":  {step: "committed", reply: "ack_commit"},
		"abort":   {step: "aborted", reply: "ack_abort"},
	},
	"committed": {"prepare": {reply: "vote_yes"}, "commit": {reply: "ack_commit"}},
	"aborted":   {"prepare": {reply: "vote_no"}, "abort": {reply: "ack_abort"}},
}

// txn is one transaction's row: its phase and the operation it prepared.
type txn struct {
	phase string
	op    xrep.Value
}

// Participant is the one 2PC participant machine: the per-transaction phase
// table over a Resource, and the arms a host installs on its receiver. A
// host makes each step durable in its own record format and folds it
// through Apply, live and in recovery alike. The host's receive process is
// the only writer; the mutex, held only while the table is read or written,
// is for owner-side inspectors.
type Participant struct {
	res Resource

	mu   sync.Mutex
	txns map[string]txn
}

// NewParticipant returns a participant with no transactions over res.
func NewParticipant(res Resource) *Participant {
	return &Participant{res: res, txns: make(map[string]txn)}
}

func (p *Participant) row(txid string) txn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.txns[txid]
}

func (p *Participant) set(txid string, t txn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.txns[txid] = t
}

// Apply takes one durable step for txid — kind "prepared" (op is the
// operation), "committed" or "aborted" — with its Resource effect. It is
// the participant's only transition; a step the table does not take from
// txid's phase, which no log holds, changes nothing, and an unknown kind is
// an error.
func (p *Participant) Apply(kind, txid string, op xrep.Value) error {
	if kind == "" || rules[kind] == nil {
		return fmt.Errorf("tpc: participant step of unknown kind %q", kind)
	}
	t := p.row(txid)
	taken := false
	for _, r := range rules[t.phase] {
		taken = taken || r.step == kind
	}
	switch {
	case !taken:
		return nil
	case kind == "prepared":
		t.op = op
		p.res.Prepare(op)
	case kind == "committed":
		p.res.Commit(t.op)
	case t.phase == "prepared":
		p.res.Abort(t.op)
	}
	t.phase = kind
	p.set(txid, t)
	return nil
}

// Restore sets txid's row as a checkpoint recorded it. A prepared
// transaction takes its prepare step again, as no checkpoint holds a hold;
// a decided one takes no effect, its effect being checkpointed already.
func (p *Participant) Restore(phase, txid string, op xrep.Value) error {
	if phase == "prepared" || phase == "" || rules[phase] == nil {
		return p.Apply(phase, txid, op) // which refuses a phase that is none
	}
	p.set(txid, txn{phase, op})
	return nil
}

// Txn reports txid's phase — "prepared", "committed", "aborted" or
// "unknown" — and its operation, as Each does.
func (p *Participant) Txn(txid string) (phase string, op xrep.Value) {
	t := p.row(txid)
	if t.phase == "" {
		return "unknown", nil
	}
	return t.phase, t.op
}

// Len reports how many transactions the table holds: the rows Each visits.
func (p *Participant) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.txns)
}

// Each calls f for every transaction, in txid order, with its phase and
// operation (nil for an abort that had no prepare, unless restored).
func (p *Participant) Each(f func(txid, phase string, op xrep.Value)) {
	p.mu.Lock()
	ids := make([]string, 0, len(p.txns))
	for id := range p.txns {
		ids = append(ids, id)
	}
	p.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		phase, op := p.Txn(id)
		f(id, phase, op)
	}
}

// decide reads the table for one message about txid, asking the Resource
// where the cell is voted. It has no effect.
func (p *Participant) decide(cmd, txid string, op xrep.Value) rule {
	r := rules[p.row(txid).phase][cmd]
	if r.voted && !p.res.Vote(op) {
		return rule{reply: "vote_no"}
	}
	return r
}

// Install adds the prepare, commit and abort arms to recv. log makes one
// step durable in the host's record format and then passes it to Apply;
// the arm answers only after log returns, so a yes vote or an ack is a
// durable promise.
func (p *Participant) Install(recv *guardian.Receiver, log func(kind, txid string, op xrep.Value)) *guardian.Receiver {
	for _, cmd := range []string{"prepare", "commit", "abort"} {
		recv.When(cmd, func(pr *guardian.Process, m *guardian.Message) {
			txid := m.Str(0)
			var op xrep.Value // only a prepare carries one
			if cmd == "prepare" {
				op, _ = m.Arg(1)
			}
			r := p.decide(cmd, txid, op)
			if r.step != "" {
				log(r.step, txid, op)
			}
			if r.reply != "" && !m.ReplyTo.IsZero() {
				// The txid as received: the port type checked it is a Str.
				_ = pr.SendSeq(m.ReplyTo, xrep.PortName{}, r.reply, m.Args[:1])
			}
		})
	}
	return recv
}

// appendParticipantRecord appends one participant log record to dst: the
// sequence (kind, txid, op), a nil op written as null.
func appendParticipantRecord(dst []byte, kind, txid string, op xrep.Value) []byte {
	dst = wire.AppendSeqHeader(dst, 3)
	dst = wire.AppendStr(dst, kind)
	dst = wire.AppendStr(dst, txid)
	dst, err := wire.AppendValue(dst, op)
	if err != nil {
		panic(err)
	}
	return dst
}

// foldRecord is the participant guardian's folder (guardian.Folder), and
// appendParticipantRecord's inverse. The participant's log has one writer,
// so every record is (kind, txid, op) or malformed. A "refused" record —
// written for a no vote before refusals went unlogged — reads as
// "aborted", which answers every message the same way.
func (p *Participant) foldRecord(v xrep.Value) (bool, error) {
	f := xrep.ReadSeq(v, 3)
	kind, txid, op := f.Str(), f.Str(), f.Value()
	if err := f.Err(); err != nil {
		return true, fmt.Errorf("tpc: participant record: %w", err)
	}
	if kind == "refused" {
		kind = "aborted"
	}
	return true, p.Apply(kind, txid, op)
}

// NewParticipantDef builds a participant guardian definition: a Participant
// over the resource factory builds, logging each step as a participant
// record. On recovery the fresh resource is rebuilt by replaying the log
// through Apply.
func NewParticipantDef(typeName string, factory func() Resource) *guardian.GuardianDef {
	main := func(ctx *guardian.Ctx) {
		p := NewParticipant(factory())
		ctx.G.SetState(p)
		log := ctx.G.Log()
		if ctx.Recovering {
			ctx.G.Replay(nil, p.foldRecord)
		}
		// Only this process writes the record scratch, and the log copies
		// each record as it is appended.
		var scratch []byte
		// No failure arm: votes and acks are idempotent; the coordinator re-asks.
		p.Install(guardian.NewReceiver(ctx.Ports[0]), func(kind, txid string, op xrep.Value) {
			scratch = appendParticipantRecord(scratch[:0], kind, txid, op)
			log.AppendSync(scratch)
			_ = p.Apply(kind, txid, op) // kind is one of the table's steps
		}).
			Loop(ctx.Proc, nil)
	}
	return &guardian.GuardianDef{
		TypeName: typeName,
		Provides: []*guardian.PortType{ParticipantPortType},
		Init:     main,
		Recover:  main,
	}
}

// ParticipantPhase inspects a participant's durable phase for a
// transaction (owner-side test facility).
func ParticipantPhase(g *guardian.Guardian, txid string) (string, bool) {
	p, ok := g.State().(*Participant)
	if !ok {
		return "", false
	}
	phase, _ := p.Txn(txid)
	return phase, true
}

// ParticipantResource returns the participant's guarded resource
// (owner-side test facility).
func ParticipantResource(g *guardian.Guardian) (Resource, bool) {
	p, ok := g.State().(*Participant)
	if !ok {
		return nil, false
	}
	return p.res, true
}
