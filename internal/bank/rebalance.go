package bank

// The rebalance driver: the one party that moves a ring from epoch E to
// epoch E+1. The sequence is crash-recoverable at every step because each
// step is idempotent and the driver derives everything from durable state
// (the nameserver's staged ring, the shards' handoff records):
//
//	1. stage the next ring at the nameserver (ring_propose, epoch E+1);
//	2. for every move in ring.Plan(old, next): tell the destination to
//	   pull (handoff_pull), poll handoff_status until installed, then
//	   ack the source (migrate_ack) so it can drop the retained range;
//	3. commit the epoch (ring_commit) — only now can a client resolve
//	   E+1, so every range it names has already moved;
//	4. broadcast ring_update so sources that lost no range also adopt
//	   E+1 and start redirecting stale traffic.
//
// A driver that crashes mid-way re-runs Rebalance with the same target:
// re-proposing the staged epoch restages it, pulls of installed handoffs
// answer immediately, acks are idempotent, and re-committing the live
// epoch is a no-op.

import (
	"fmt"
	"time"

	"repro/internal/guardian"
	"repro/internal/nameserv"
	"repro/internal/ring"
	"repro/internal/sendprim"
)

// RebalanceOptions tunes the driver.
type RebalanceOptions struct {
	// NS is the nameserver hosting the ring. Required.
	NS *nameserv.Client
	// Timeout bounds each nameserver interaction. Zero means 500ms.
	Timeout time.Duration
	// Call tunes each shard interaction. Zero values mean a 4×heartbeat
	// timeout with 8 retries.
	Call sendprim.CallOptions
	// PollInterval spaces handoff_status polls. Zero means one heartbeat.
	PollInterval time.Duration
	// PollBudget bounds the status polls per move. Zero means 400.
	PollBudget int
}

func (o RebalanceOptions) withDefaults(pr *guardian.Process) RebalanceOptions {
	hb := pr.Guardian().Node().World().Tuning().HeartbeatInterval
	if o.Timeout <= 0 {
		o.Timeout = 500 * time.Millisecond
	}
	if o.Call.Timeout <= 0 {
		o.Call.Timeout = 4 * hb
	}
	if o.Call.Retries == 0 {
		o.Call.Retries = 8
	}
	if o.Call.Backoff <= 0 {
		o.Call.Backoff = hb / 4
	}
	if o.PollInterval <= 0 {
		o.PollInterval = hb
	}
	if o.PollBudget <= 0 {
		o.PollBudget = 400
	}
	return o
}

// nsAttempts is the retry budget per nameserver interaction: the
// nameserv client is single-attempt (one send, one receive), so the
// driver owns resilience against a lost request or reply.
const nsAttempts = 5

// nsTry retries one nameserver interaction. Every ring operation is
// idempotent at the service, so re-sending after a timeout converges; a
// late reply consumed by the wrong attempt surfaces as an outcome error
// and the next attempt realigns. ErrRingStale is semantic (wrong epoch),
// not transient, and passes straight through.
func nsTry(pr *guardian.Process, opts RebalanceOptions, f func() error) error {
	var err error
	for i := 0; i < nsAttempts; i++ {
		if err = f(); err == nil || err == nameserv.ErrRingStale {
			return err
		}
		if !pr.Pause(opts.PollInterval) {
			return guardian.ErrKilled
		}
	}
	return err
}

// Bootstrap commits epoch 1 of a ring and tells every member about it.
// Safe to re-run: a ring already at or past epoch 1 is left alone.
func Bootstrap(pr *guardian.Process, r *ring.Ring, opts RebalanceOptions) error {
	opts = opts.withDefaults(pr)
	if r.Epoch != 1 {
		return fmt.Errorf("bank: bootstrap wants an epoch-1 ring, got %d", r.Epoch)
	}
	err := nsTry(pr, opts, func() error {
		_, e := opts.NS.RingPropose(r.Name, 1, r.Marshal(), opts.Timeout)
		return e
	})
	if err != nil {
		if err == nameserv.ErrRingStale {
			return nil // already bootstrapped (and possibly rebalanced since)
		}
		return err
	}
	if err := nsTry(pr, opts, func() error {
		return opts.NS.RingCommit(r.Name, 1, opts.Timeout)
	}); err != nil {
		return err
	}
	return broadcastRing(pr, r, opts)
}

// Rebalance drives the flip from the committed ring to next, migrating
// every affected range. next must be exactly one epoch ahead.
func Rebalance(pr *guardian.Process, next *ring.Ring, opts RebalanceOptions) error {
	opts = opts.withDefaults(pr)
	var rs nameserv.RingState
	err := nsTry(pr, opts, func() error {
		var e error
		rs, e = opts.NS.RingGet(next.Name, opts.Timeout)
		return e
	})
	if err != nil {
		return err
	}
	if rs.CommittedEpoch >= next.Epoch {
		return nil // a previous run finished the flip
	}
	if rs.CommittedEpoch != next.Epoch-1 {
		return fmt.Errorf("bank: rebalance to epoch %d but committed is %d", next.Epoch, rs.CommittedEpoch)
	}
	old, err := ring.Unmarshal(rs.Committed)
	if err != nil {
		return fmt.Errorf("bank: committed ring: %w", err)
	}
	if err := nsTry(pr, opts, func() error {
		_, e := opts.NS.RingPropose(next.Name, next.Epoch, next.Marshal(), opts.Timeout)
		return e
	}); err != nil {
		return err
	}

	blob := string(next.Marshal())
	for _, mv := range ring.Plan(old, next) {
		src, okS := next.Member(mv.From)
		if !okS {
			src, okS = old.Member(mv.From) // a leaver is only on the old ring
		}
		dst, okD := next.Member(mv.To)
		if !okS || !okD {
			return fmt.Errorf("bank: move %s>%s names unknown members", mv.From, mv.To)
		}
		hid := HandoffID(next.Name, next.Epoch, mv.From, mv.To)
		if err := driveMove(pr, hid, blob, src, dst, opts); err != nil {
			return fmt.Errorf("bank: handoff %s: %w", hid, err)
		}
	}

	if err := nsTry(pr, opts, func() error {
		return opts.NS.RingCommit(next.Name, next.Epoch, opts.Timeout)
	}); err != nil {
		return err
	}
	return broadcastRing(pr, next, opts)
}

// Join flips the committed ring to one with m added; Leave to one with
// the named member removed. Both re-fetch the live ring so drivers can be
// re-run after any crash.
func Join(pr *guardian.Process, ringName string, m ring.Member, opts RebalanceOptions) (*ring.Ring, error) {
	old, err := committedRing(pr, ringName, opts)
	if err != nil {
		return nil, err
	}
	next, err := old.WithJoin(m)
	if err != nil {
		return nil, err
	}
	return next, Rebalance(pr, next, opts)
}

// Leave removes a member from the ring, migrating its ranges out first.
func Leave(pr *guardian.Process, ringName, member string, opts RebalanceOptions) (*ring.Ring, error) {
	old, err := committedRing(pr, ringName, opts)
	if err != nil {
		return nil, err
	}
	next, err := old.WithLeave(member)
	if err != nil {
		return nil, err
	}
	return next, Rebalance(pr, next, opts)
}

// committedRing fetches and parses the live ring.
func committedRing(pr *guardian.Process, ringName string, opts RebalanceOptions) (*ring.Ring, error) {
	opts = opts.withDefaults(pr)
	var rs nameserv.RingState
	err := nsTry(pr, opts, func() error {
		var e error
		rs, e = opts.NS.RingGet(ringName, opts.Timeout)
		return e
	})
	if err != nil {
		return nil, err
	}
	if rs.CommittedEpoch == 0 {
		return nil, fmt.Errorf("bank: ring %q not bootstrapped", ringName)
	}
	return ring.Unmarshal(rs.Committed)
}

// driveMove runs one source→destination handoff to completion: pull,
// poll, ack.
func driveMove(pr *guardian.Process, hid, blob string, src, dst ring.Member, opts RebalanceOptions) error {
	for poll := 0; poll < opts.PollBudget; poll++ {
		sm, err := sendprim.Call(pr, dst.Native, MigrateReplyType, opts.Call, "handoff_status", hid)
		if err != nil {
			return err
		}
		switch sm.Str(0) {
		case "installed":
			am, err := sendprim.Call(pr, src.Native, MigrateReplyType, opts.Call, "migrate_ack", hid)
			if err != nil {
				return err
			}
			if am.Command != "ack_ok" {
				return fmt.Errorf("unexpected ack reply %s", am.Command)
			}
			return nil
		case "pulling":
			// In flight; wait a beat.
		default:
			// Unknown: (re)issue the pull. Also covers a destination that
			// crashed mid-pull and recovered amnesiac.
			pm, err := sendprim.Call(pr, dst.Native, MigrateReplyType, opts.Call, "handoff_pull", hid, blob, src.Native)
			if err != nil {
				return err
			}
			if pm.Command == "pull_denied" {
				return fmt.Errorf("pull denied: %s", pm.Str(0))
			}
		}
		if !pr.Pause(opts.PollInterval) {
			return guardian.ErrKilled
		}
	}
	return fmt.Errorf("handoff %s did not install within the poll budget", hid)
}

// broadcastRing pushes the ring to every member. Best effort with
// retries; a member that misses it still converges on first contact with
// a migration or a redirect, so an error here is reported but the flip is
// already durable.
func broadcastRing(pr *guardian.Process, r *ring.Ring, opts RebalanceOptions) error {
	blob := string(r.Marshal())
	var firstErr error
	for _, m := range r.Members {
		if _, err := sendprim.Call(pr, m.Native, MigrateReplyType, opts.Call, "ring_update", blob); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("bank: ring_update %s: %w", m.Name, err)
		}
	}
	return firstErr
}
