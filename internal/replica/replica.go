// Package replica is the primary/backup replication layer: it makes a
// guardian's "permanence of effect" (§2.2) survive permanent loss of the
// node it lives at, which the paper's single-node guardian model cannot.
//
// The design follows the paper's own primitives all the way down. Every
// member node of a replica group runs a replicator guardian — created
// first, so its port has the a-priori global name PortAt(node) — and the
// group's storage is wrapped in a Store. On the primary, a guardian's
// Sync hands the newly durable records to the replicator, which streams
// them to the followers over ordinary no-wait sends; followers append
// them to a same-named log on their own store, force them, and ack. In
// quorum mode the primary's Sync does not return until a majority of the
// group holds the batch, so an acknowledged effect survives the primary's
// permanent death; async mode returns immediately and is the measured
// control arm (experiment E14).
//
// Delivery constraints are the SCD-broadcast framing: followers apply
// confirmed records in primary order or not at all — a gap stalls the
// apply and the ack tells the primary where to resume; a record bearing a
// stale term is rejected outright (term fencing), and a follower whose
// log forked from the leader's truncates the conflicting suffix.
//
// Failover: followers watch the leader's heartbeats; on silence they hold
// a term-numbered election (votes persist, one per term, granted only to
// candidates whose log is at least as complete). The winner re-creates
// the application guardian from the shipped log via Node.Takeover and
// re-binds the service's well-known name at the name service with the
// group's shared key, so clients that re-resolve keep working. Because
// the at-most-once dedup records travel in the same log as the operation
// records (committed by the same Sync), a failed-over client retry is
// never double-applied.
package replica

import (
	"time"

	"repro/internal/guardian"
	"repro/internal/xrep"
)

// DefName is the library name of the replicator guardian definition.
const DefName = "replicator"

// ReplicatorGuardianID is the well-known guardian id of a member node's
// replicator: the primordial guardian is id 1, and the replicator must be
// the first guardian bootstrapped on every member node, making it id 2.
// This is the a-priori address convention that lets members reach each
// other before any name service exists.
const ReplicatorGuardianID = 2

// replicatorPortID is the replicator's provided port id (ports number
// from 1 in Provides order).
const replicatorPortID = 1

// PortAt returns the global name of a member node's replicator port.
func PortAt(node string) xrep.PortName {
	return xrep.PortName{Node: node, Guardian: ReplicatorGuardianID, Port: replicatorPortID}
}

// Mode selects how much of the group must hold a batch before the
// primary's Sync returns.
type Mode int

// Replication modes.
const (
	// ModeQuorum: Sync returns once a majority of the group (counting
	// the primary) holds the batch durably. Acknowledged effects survive
	// permanent loss of the primary.
	ModeQuorum Mode = iota
	// ModeAsync: Sync returns after local durability; shipping is
	// best-effort background work. The control arm — cheap, but an
	// acknowledged effect can die with the primary.
	ModeAsync
)

// String returns the mode name.
func (m Mode) String() string {
	if m == ModeAsync {
		return "async"
	}
	return "quorum"
}

// Hooks expose the replication windows to crash-matrix tests: each is
// called on the primary during a replicated Sync. A hook that kills the
// process models dying in exactly that window.
type Hooks struct {
	// BeforeShip runs after local durability, before any record of the
	// batch has been handed to the network.
	BeforeShip func(log string)
	// AfterShip runs after the batch has been transmitted to the
	// followers (no ack seen yet — the follower-fsync race is live).
	AfterShip func(log string)
	// AfterQuorum runs after a quorum of the group holds the batch
	// (quorum mode only).
	AfterQuorum func(log string)
}

// Config describes one member's view of a replica group.
type Config struct {
	// Group names the replica group; it doubles as the shared management
	// key under which the service name is registered. That makes it a
	// BEARER SECRET: any principal that knows (or guesses) it can rebind
	// the service name from any node. On a trusted cluster a readable
	// name is fine; anywhere else mint the group name from an
	// unguessable token the way capability Tokens are minted.
	Group string
	// Self is this member's node name.
	Self string
	// Members lists every member node. Members[0] is the initial
	// primary; later primaries are elected.
	Members []string
	// Mode is the ack discipline. The zero value is ModeQuorum.
	Mode Mode
	// Heartbeat overrides the world Tuning's HeartbeatInterval for this
	// group's heartbeats, shipping cadence and election timeouts.
	Heartbeat time.Duration
	// Threshold overrides the world Tuning's FailureThreshold.
	Threshold int
	// AppDef names the application guardian definition the group
	// replicates; the election winner re-creates it from the shipped log
	// via Node.Takeover. Empty means no automatic takeover.
	AppDef string
	// AppArgs are the creation arguments passed on takeover.
	AppArgs []any
	// Service, when non-empty, is the well-known name the current leader
	// (re-)binds at the name service NS, using Group as the shared key.
	Service string
	// NS is the name-service port Service is bound at.
	NS xrep.PortName
	// ServicePort indexes the application guardian's provided ports:
	// which one Service is bound to.
	ServicePort int
	// Hooks are the crash-window test hooks.
	Hooks Hooks
}

// quorum is the majority size of the group.
func (c Config) quorum() int { return len(c.Members)/2 + 1 }

// IsMember reports whether node belongs to the group.
func (c Config) IsMember(node string) bool {
	for _, m := range c.Members {
		if m == node {
			return true
		}
	}
	return false
}

// PortType is the replicator's control port: the replication stream,
// acks, heartbeats, the election protocol, and a who-is-leader query.
var PortType = guardian.NewPortType("replica_port").
	// rep_append(group, term, log, prevSeq, prevTerm, records): a batch
	// of records, each a (seq, originTerm, data) triple, in primary order,
	// following the sender's record prevSeq of origin term prevTerm. A
	// follower applies it only where its own log matches at prevSeq, and
	// truncates from its first record whose term differs (DESIGN §12). An
	// empty batch says the sender's log ends at prevSeq.
	Msg("rep_append", xrep.KindString, xrep.KindInt, xrep.KindString, xrep.KindInt, xrep.KindInt, xrep.KindSeq).
	// rep_checkpoint(group, term, log, state, upTo, cpTerm): checkpoint
	// catch-up for a follower too far behind the primary's compacted
	// log; cpTerm is the origin term at upTo, re-seeding the follower's
	// term attribution.
	Msg("rep_checkpoint", xrep.KindString, xrep.KindInt, xrep.KindString, xrep.KindBytes, xrep.KindInt, xrep.KindInt).
	// rep_ack(group, term, log, seq, seqTerm): a follower's position and
	// the origin term of its record there; the leader counts it toward
	// quorum only if its own record at seq has the same term.
	Msg("rep_ack", xrep.KindString, xrep.KindInt, xrep.KindString, xrep.KindInt, xrep.KindInt).
	// rep_heartbeat(group, term, leader, appLog): leader liveness; also
	// how a stale leader learns it was deposed.
	Msg("rep_heartbeat", xrep.KindString, xrep.KindInt, xrep.KindString, xrep.KindString).
	// rep_vote_req(group, term, positions, candidate) where positions is
	// a sequence of (log, seq, term at seq) — completeness is compared
	// per log, never as a sum across logs.
	Msg("rep_vote_req", xrep.KindString, xrep.KindInt, xrep.KindSeq, xrep.KindString).
	// rep_vote(group, term, granted, voter).
	Msg("rep_vote", xrep.KindString, xrep.KindInt, xrep.KindBool, xrep.KindString).
	Msg("rep_whois").
	Replies("rep_whois", "rep_leader")

// WhoisReplyType receives rep_whois replies: (leader, term, ready) where
// ready means the answering member is the leader and its application
// guardian is serving.
var WhoisReplyType = guardian.NewPortType("replica_whois_port").
	Msg("rep_leader", xrep.KindString, xrep.KindInt, xrep.KindBool)

// Def returns the replicator guardian definition. It must be the FIRST
// guardian bootstrapped on each member node (see ReplicatorGuardianID).
// It is inert on nodes whose store is not a replica.Store.
func Def() *guardian.GuardianDef {
	return &guardian.GuardianDef{
		TypeName:     DefName,
		Provides:     []*guardian.PortType{PortType},
		PortCapacity: 256,
		Init:         replicatorMain,
		Recover:      replicatorMain,
	}
}

// Stats counts one member's replication events.
type Stats struct {
	// ShippedBatches / ShippedRecords count what the member replicated
	// while leader.
	ShippedBatches int64
	ShippedRecords int64
	// AppliedRecords counts records applied while follower.
	AppliedRecords int64
	// CheckpointsShipped counts checkpoint catch-ups sent while leader.
	CheckpointsShipped int64
	// FencedStale counts messages rejected for carrying a stale term —
	// the term fence doing its job against a partitioned old primary.
	FencedStale int64
	// ForksDetected counts truncations: forked suffixes this member cut
	// from its own log as follower.
	ForksDetected int64
	// Elections counts candidacies started; Takeovers counts elections
	// won that re-created the application guardian.
	Elections int64
	Takeovers int64
}
