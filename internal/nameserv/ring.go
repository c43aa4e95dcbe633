package nameserv

// Ring membership. The name service hosts the versioned consistent-hash
// rings package ring defines, the same way it hosts name bindings: a ring
// is an opaque, epoch-stamped blob the service stores durably and serves
// to anyone, with a two-step update protocol —
//
//	ring_propose(name, epoch, blob)   stage epoch = committed+1
//	ring_commit(name, epoch)          flip the staged epoch live
//
// The gap between propose and commit is where live rebalancing happens:
// a rebalance driver stages the next ring, migrates every affected range
// guardian-to-guardian (bank shard handoff), and only then commits, so a
// client can never resolve an epoch whose ranges have not been moved.
// The blob is opaque here on purpose: the name service versions placement,
// it does not interpret it, which keeps this package free of a dependency
// on package ring (whose Router depends on this package).
//
// Proposals are idempotent (re-proposing the staged epoch restages it) so
// a rebalance driver that crashed mid-migration can retry from the top.
// Epoch arithmetic is the only arbitration: a proposal for any epoch other
// than committed+1 is refused with the current state. Concurrent drivers
// racing distinct changes at the same epoch are not arbitrated beyond
// last-write-wins on the staged blob; deployments run one rebalancer, as
// cmd/node's ring commands and the DST harness both do.

import (
	"fmt"
	"time"

	"repro/internal/wire"
	"repro/internal/xrep"
)

// Ring reply commands.
const (
	RingStateReply = "ring_state"
	RingStaged     = "ring_staged"
	RingCommitted  = "ring_committed"
	RingStale      = "ring_stale"
)

// ringEntry is one ring's durable state.
type ringEntry struct {
	committedEpoch int64
	committed      string // opaque marshaled ring
	pendingEpoch   int64
	pending        string
}

// ringLogRec names the stable-log record for ring state changes.
const ringLogRec = "ns/ring"

// ringRecord encodes one ring stage/commit for the log.
func ringRecord(kind, name string, epoch int64, blob string) []byte {
	b, err := wire.MarshalValue(xrep.Rec{Name: ringLogRec, Fields: xrep.Seq{
		xrep.Str(kind), xrep.Str(name), xrep.Int(epoch), xrep.Str(blob),
	}})
	if err != nil {
		panic(err)
	}
	return b
}

// foldRing is the ring-table folder (guardian.Folder), and ringRecord's
// inverse.
func (st *state) foldRing(v xrep.Value) (bool, error) {
	if xrep.RecName(v) != ringLogRec {
		return false, nil
	}
	f := xrep.ReadRec(v, ringLogRec, 4)
	kind, name, epoch, blob := f.Str(), f.Str(), f.Int(), f.Str()
	if err := f.Err(); err != nil {
		return true, fmt.Errorf("nameserv: %w", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.rings[name]
	if e == nil {
		e = &ringEntry{}
		st.rings[name] = e
	}
	switch kind {
	case "stage":
		e.pendingEpoch, e.pending = epoch, blob
	case "commit":
		e.committedEpoch, e.committed = epoch, blob
		if e.pendingEpoch == epoch {
			e.pendingEpoch, e.pending = 0, ""
		}
	default:
		return true, fmt.Errorf("nameserv: %s record of unknown kind %q", ringLogRec, kind)
	}
	return true, nil
}

// RingState is a client's view of one ring's versions.
type RingState struct {
	CommittedEpoch int64
	Committed      []byte
	PendingEpoch   int64
	Pending        []byte
}

// RingGet fetches a ring's current state. A ring nobody has proposed yet
// comes back with all fields zero — bootstrapping is proposing epoch 1.
func (c *Client) RingGet(name string, timeout time.Duration) (RingState, error) {
	m, err := c.call(timeout, "ring_get", name)
	if err != nil {
		return RingState{}, err
	}
	if m.Command != RingStateReply {
		return RingState{}, &Error{Outcome: m.Command}
	}
	return RingState{
		CommittedEpoch: m.Int(0), Committed: []byte(m.Str(1)),
		PendingEpoch: m.Int(2), Pending: []byte(m.Str(3)),
	}, nil
}

// RingPropose stages blob as the ring's next epoch, which must be the
// committed epoch + 1. On an epoch mismatch it returns ErrRingStale along
// with the service's committed state so the caller can rebase.
func (c *Client) RingPropose(name string, epoch int64, blob []byte, timeout time.Duration) (RingState, error) {
	m, err := c.call(timeout, "ring_propose", name, epoch, string(blob))
	if err != nil {
		return RingState{}, err
	}
	switch m.Command {
	case RingStaged:
		return RingState{PendingEpoch: m.Int(0), Pending: blob}, nil
	case RingStale:
		return RingState{CommittedEpoch: m.Int(0), Committed: []byte(m.Str(1))}, ErrRingStale
	}
	return RingState{}, &Error{Outcome: m.Command}
}

// RingCommit flips the staged epoch live. Committing the already-committed
// epoch is an idempotent success, so a driver retrying after a lost reply
// converges.
func (c *Client) RingCommit(name string, epoch int64, timeout time.Duration) error {
	m, err := c.call(timeout, "ring_commit", name, epoch)
	if err != nil {
		return err
	}
	switch m.Command {
	case RingCommitted:
		return nil
	case RingStale:
		return ErrRingStale
	}
	return &Error{Outcome: m.Command}
}

// ErrRingStale reports a ring operation against the wrong epoch.
var ErrRingStale = &Error{Outcome: "ring epoch stale"}
