package bank

// Router is the client side of the sharded bank: it resolves accounts to
// shard guardians through the nameserver-hosted ring, issues single-shard
// operations over one at-most-once session, and falls back to a 2PC
// transaction (package tpc vocabulary, the branches' escrow arms) when a
// transfer's accounts live on different shards.
//
// Routing state is soft everywhere: the Router caches the committed ring
// and refreshes it when a call retries (the Caller's Resolve hook) or a
// shard answers with a moved redirect (followed inside the Caller itself,
// with the SAME request id, so exactly-once survives the re-route). A
// stale cache costs an extra hop, never a wrong effect.

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/amo"
	"repro/internal/guardian"
	"repro/internal/nameserv"
	"repro/internal/ring"
	"repro/internal/sendprim"
	"repro/internal/tpc"
	"repro/internal/xrep"
)

// RouterOptions tunes a Router.
type RouterOptions struct {
	// NS resolves the ring. Required.
	NS *nameserv.Client
	// RingName is the ring served by the nameserver. Required.
	RingName string
	// Timeout bounds each nameserver interaction. Zero means 500ms.
	Timeout time.Duration
	// Call tunes the underlying at-most-once session. The Resolve hook is
	// owned by the Router and must be left nil.
	Call amo.CallerOptions
	// Coordinator, when non-zero, is the tpc coordinator port cross-shard
	// transfers run through. A zero port makes Transfer report
	// tpc.OutcomeAborted for split pairs.
	Coordinator xrep.PortName
}

// Router routes bank operations across a consistent-hash ring of shard
// branches.
type Router struct {
	pr     *guardian.Process
	opts   RouterOptions
	caller *amo.Caller

	mu   sync.Mutex
	ring *ring.Ring
	key  string // account the in-flight call resolves against
	txn  int64
}

// NewRouter builds a Router with one at-most-once session.
func NewRouter(pr *guardian.Process, opts RouterOptions) (*Router, error) {
	if opts.NS == nil || opts.RingName == "" {
		return nil, fmt.Errorf("bank: router needs a nameserver client and a ring name")
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 500 * time.Millisecond
	}
	if opts.Call.Timeout <= 0 {
		// The split pause and the 2PC window below scale off it.
		opts.Call.Timeout = sendprim.DefaultTimeout
	}
	r := &Router{pr: pr, opts: opts}
	callOpts := opts.Call
	callOpts.Resolve = func() (xrep.PortName, bool) {
		// A retry means the cached placement did not answer: refetch the
		// committed ring and re-resolve the key the call is about.
		r.refresh()
		r.mu.Lock()
		rg, key := r.ring, r.key
		r.mu.Unlock()
		if rg == nil {
			return xrep.PortName{}, false
		}
		m, ok := rg.Owner(key)
		if !ok {
			return xrep.PortName{}, false
		}
		return m.Amo, true
	}
	caller, err := amo.NewCaller(pr, callOpts)
	if err != nil {
		return nil, err
	}
	r.caller = caller
	return r, nil
}

// Close retires the Router's session.
func (r *Router) Close() { r.caller.Close() }

// refresh refetches the committed ring; a failed fetch keeps the cache.
func (r *Router) refresh() {
	rs, err := r.opts.NS.RingGet(r.opts.RingName, r.opts.Timeout)
	if err != nil || rs.CommittedEpoch == 0 {
		return
	}
	rg, err := ring.Unmarshal(rs.Committed)
	if err != nil {
		return
	}
	r.mu.Lock()
	if r.ring == nil || rg.Epoch > r.ring.Epoch {
		r.ring = rg
	}
	r.mu.Unlock()
}

// owner resolves one account against the cached ring, fetching it first
// if the cache is cold.
func (r *Router) owner(key string) (ring.Member, error) {
	r.mu.Lock()
	rg := r.ring
	r.mu.Unlock()
	if rg == nil {
		r.refresh()
		r.mu.Lock()
		rg = r.ring
		r.mu.Unlock()
	}
	if rg == nil {
		return ring.Member{}, fmt.Errorf("bank: ring %q not committed yet", r.opts.RingName)
	}
	m, ok := rg.Owner(key)
	if !ok {
		return ring.Member{}, fmt.Errorf("bank: ring %q is empty", r.opts.RingName)
	}
	return m, nil
}

// Call issues one single-account operation (open, deposit, withdraw,
// balance) against the account's shard.
func (r *Router) Call(account, command string, args ...any) (*amo.Reply, error) {
	m, err := r.owner(account)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.key = account
	r.mu.Unlock()
	return r.caller.Call(m.Amo, command, args...)
}

// Transfer moves amount between two accounts: a single amo op when both
// live on one shard, a 2PC escrow transaction when they do not. The
// returned outcome is a bank outcome (OutcomeOK, OutcomeInsufficient,
// OutcomeNoAccount) or tpc.OutcomeAborted — for a failed cross-shard
// transaction, or for a transfer that kept landing in a migration's
// cut→commit window after every re-plan (retryable: the flip commits).
func (r *Router) Transfer(from, to string, amount int64) (string, error) {
	const attempts = 3
	var lastOutcome string
	for i := 0; i < attempts; i++ {
		mf, err := r.owner(from)
		if err != nil {
			return "", err
		}
		mt, err := r.owner(to)
		if err != nil {
			return "", err
		}
		if mf.Name == mt.Name {
			rep, err := r.Call(from, "transfer", from, to, amount)
			if err != nil {
				return "", err
			}
			if rep.Command != amo.OutcomeSplit {
				return rep.Command, nil
			}
			// The shard's ring is ahead of ours (a range was cut but the
			// epoch is not committed yet): wait a beat for the flip — two
			// call timeouts, long enough for a typical one — then refresh
			// and re-plan. The raw split constant is routing
			// vocabulary, never a Transfer outcome — if every attempt lands
			// in the window, report the abort callers know how to retry.
			lastOutcome = tpc.OutcomeAborted
			if !r.pr.Pause(2 * r.opts.Call.Timeout) {
				return "", guardian.ErrKilled
			}
			r.refresh()
			continue
		}
		outcome, err := r.transferTPC(mf, mt, from, to, amount)
		if err != nil {
			return "", err
		}
		if outcome == tpc.OutcomeCommitted {
			return OutcomeOK, nil
		}
		// An abort may mean a stale plan (a participant no longer owns its
		// account); refresh and retry with fresh placement.
		lastOutcome = tpc.OutcomeAborted
		r.refresh()
	}
	return lastOutcome, nil
}

// transferTPC runs the cross-shard leg pair through the coordinator.
func (r *Router) transferTPC(mf, mt ring.Member, from, to string, amount int64) (string, error) {
	if r.opts.Coordinator.IsZero() {
		return tpc.OutcomeAborted, fmt.Errorf("bank: cross-shard transfer %s→%s needs a coordinator", from, to)
	}
	r.mu.Lock()
	r.txn++
	txid := string(strconv.AppendInt(append([]byte(r.caller.Client()), "/tx"...), r.txn, 10))
	r.mu.Unlock()
	// One slab holds the ops: two legs (participant, (kind, account, amount)).
	s := make(xrep.Seq, 12)
	amt := xrep.Value(xrep.Int(amount))
	copy(s, xrep.Seq{
		s[2:4:4], s[4:6:6], // ops
		mf.Native, s[6:9:9], // the debit leg
		mt.Native, s[9:12], // the credit leg
		xrep.Str("debit"), xrep.Str(from), amt,
		xrep.Str("credit"), xrep.Str(to), amt,
	})
	ops := s[0:2:2]
	timeout := r.opts.Call.Timeout
	m, err := sendprim.Call(r.pr, r.opts.Coordinator, tpc.ClientReplyType, sendprim.CallOptions{
		// The coordinator dedups begin by txid, so retrying is safe; its
		// vote phase can take several timeouts, hence the wide window.
		Timeout: 20 * timeout,
		Retries: 3,
		Backoff: timeout / 2,
	}, "begin", xrep.Str(txid), ops)
	if err != nil {
		return "", err
	}
	return m.Command, nil
}
