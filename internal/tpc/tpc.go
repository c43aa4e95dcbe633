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

// ParticipantPortType describes a participant guardian's port.
var ParticipantPortType = guardian.NewPortType("tpc_participant_port").
	Msg("prepare", xrep.KindString, guardian.AnyKind).
	Replies("prepare", "vote_yes", "vote_no").
	Msg("commit", xrep.KindString).
	Replies("commit", "ack_commit").
	Msg("abort", xrep.KindString).
	Replies("abort", "ack_abort")

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

// Resource is the application state a participant guards. Implementations
// must be deterministic: recovery replays the logged operation sequence
// through the same methods.
type Resource interface {
	// Prepare validates and durably holds the operation for txid. It
	// reports whether the participant can commit. A held operation must
	// remain committable until Commit or Abort.
	Prepare(txid string, op xrep.Value) bool
	// Commit applies the held operation.
	Commit(txid string)
	// Abort releases the held operation.
	Abort(txid string)
}

// txPhase is a participant's durable per-transaction state.
type txPhase uint8

const (
	phasePrepared txPhase = iota + 1
	phaseCommitted
	phaseAborted
	phaseRefused
)

// participantState is the guardian's volatile view, rebuilt from the log.
// The mutex exists for owner-side inspectors (ParticipantPhase); the
// guardian's single receive process is the only writer.
type participantState struct {
	res Resource

	mu sync.Mutex
	// phases maps txid → phase; ops remembers prepared operations for
	// replay-independent idempotency.
	phases map[string]txPhase
	ops    map[string]xrep.Value
}

func (st *participantState) phase(txid string) txPhase {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.phases[txid]
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

// apply performs one logged step against the state; used both live and in
// recovery replay, so it must be deterministic.
func (st *participantState) apply(kind, txid string, op xrep.Value) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch kind {
	case "prepared":
		st.phases[txid] = phasePrepared
		st.ops[txid] = op
	case "refused":
		st.phases[txid] = phaseRefused
	case "committed":
		st.phases[txid] = phaseCommitted
	case "aborted":
		st.phases[txid] = phaseAborted
	}
}

// foldRecord is the participant's folder (guardian.Folder), and
// appendParticipantRecord's inverse: it drives the fresh resource through
// the transitions the log recorded. The participant's log has one writer,
// so every record is (kind, txid, op) or malformed.
func (st *participantState) foldRecord(v xrep.Value) (bool, error) {
	f := xrep.ReadSeq(v, 3)
	kind, txid, op := f.Str(), f.Str(), f.Value()
	if err := f.Err(); err != nil {
		return true, fmt.Errorf("tpc: participant record: %w", err)
	}
	switch kind {
	case "prepared":
		st.res.Prepare(txid, op)
	case "committed":
		st.res.Commit(txid)
	case "aborted":
		st.res.Abort(txid)
	case "refused":
	default:
		return true, fmt.Errorf("tpc: participant record of unknown kind %q", kind)
	}
	st.apply(kind, txid, op)
	return true, nil
}

// NewParticipantDef builds a participant guardian definition. factory
// constructs the guarded resource; on recovery the fresh resource is
// rebuilt by replaying the participant's own log through the same
// Prepare/Commit/Abort sequence.
func NewParticipantDef(typeName string, factory func() Resource) *guardian.GuardianDef {
	main := func(ctx *guardian.Ctx) {
		st := &participantState{
			res:    factory(),
			phases: make(map[string]txPhase),
			ops:    make(map[string]xrep.Value),
		}
		ctx.G.SetState(st)
		log := ctx.G.Log()
		if ctx.Recovering {
			ctx.G.Replay(nil, st.foldRecord)
		}

		// Only this process writes the record scratch, and the log copies
		// each record as it is appended.
		var scratch []byte
		participantRecord := func(kind, txid string, op xrep.Value) []byte {
			scratch = appendParticipantRecord(scratch[:0], kind, txid, op)
			return scratch
		}
		reply := func(pr *guardian.Process, m *guardian.Message, cmd, txid string) {
			if !m.ReplyTo.IsZero() {
				_ = pr.Send(m.ReplyTo, cmd, txid)
			}
		}
		guardian.NewReceiver(ctx.Ports[0]).
			When("prepare", func(pr *guardian.Process, m *guardian.Message) {
				txid := m.Str(0)
				op, _ := m.Arg(1)
				switch st.phase(txid) {
				case phasePrepared, phaseCommitted:
					// Duplicate prepare (lost vote): re-vote yes. A
					// committed transaction also re-votes yes; the
					// coordinator's decision was commit.
					reply(pr, m, "vote_yes", txid)
					return
				case phaseRefused, phaseAborted:
					reply(pr, m, "vote_no", txid)
					return
				}
				if !st.res.Prepare(txid, op) {
					log.AppendSync(participantRecord("refused", txid, nil))
					st.apply("refused", txid, nil)
					reply(pr, m, "vote_no", txid)
					return
				}
				// Log the hold before voting: a yes vote is a durable
				// promise.
				log.AppendSync(participantRecord("prepared", txid, op))
				st.apply("prepared", txid, op)
				reply(pr, m, "vote_yes", txid)
			}).
			When("commit", func(pr *guardian.Process, m *guardian.Message) {
				txid := m.Str(0)
				switch st.phase(txid) {
				case phaseCommitted:
					reply(pr, m, "ack_commit", txid) // duplicate
					return
				case phasePrepared:
					log.AppendSync(participantRecord("committed", txid, nil))
					st.res.Commit(txid)
					st.apply("committed", txid, nil)
					reply(pr, m, "ack_commit", txid)
					return
				}
				// Commit for an unknown transaction: the prepare was lost
				// yet the coordinator decided commit — impossible under
				// 2PC (a commit decision needs our yes vote). Ignore.
			}).
			When("abort", func(pr *guardian.Process, m *guardian.Message) {
				txid := m.Str(0)
				switch st.phase(txid) {
				case phaseAborted, phaseRefused:
					reply(pr, m, "ack_abort", txid)
					return
				case phasePrepared:
					log.AppendSync(participantRecord("aborted", txid, nil))
					st.res.Abort(txid)
					st.apply("aborted", txid, nil)
					reply(pr, m, "ack_abort", txid)
					return
				default:
					// Abort for a transaction we never prepared: safe to
					// acknowledge (presumed abort).
					reply(pr, m, "ack_abort", txid)
				}
			}).
			WhenFailure(func(_ *guardian.Process, _ string, _ *guardian.Message) {
				// §3.4 failure arm: a discarded message named this port as
				// its replyto. Votes and acks are idempotent re-replies;
				// the coordinator re-asks until settled, so drop it.
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
	st, ok := g.State().(*participantState)
	if !ok {
		return "", false
	}
	switch st.phase(txid) {
	case phasePrepared:
		return "prepared", true
	case phaseCommitted:
		return "committed", true
	case phaseAborted:
		return "aborted", true
	case phaseRefused:
		return "refused", true
	default:
		return "unknown", true
	}
}

// ParticipantResource returns the participant's guarded resource
// (owner-side test facility).
func ParticipantResource(g *guardian.Guardian) (Resource, bool) {
	st, ok := g.State().(*participantState)
	if !ok {
		return nil, false
	}
	return st.res, true
}
