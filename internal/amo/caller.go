package amo

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/guardian"
	"repro/internal/sendprim"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// BackoffPolicy shapes the delay between retry attempts: the core's capped
// exponential growth with equal jitter on top, the
// standard antidote to retry storms — synchronized clients hammering a
// node that is slow precisely because it is overloaded.
type BackoffPolicy struct {
	// Base is the nominal delay before the first re-send. Zero disables
	// backoff (immediate re-send, the bare §3.5 behavior).
	Base time.Duration
	// Jitter is the fraction of each delay drawn uniformly at random
	// (equal jitter: delay = d·(1-Jitter) + rand(d·Jitter)). Zero means
	// no jitter; 0.5 is the usual choice.
	Jitter float64
}

// CallerOptions tunes a Caller.
type CallerOptions struct {
	// Timeout bounds each attempt. Zero means sendprim.DefaultTimeout.
	Timeout time.Duration
	// Retries is the number of re-sends after the first attempt.
	Retries int
	// Backoff spaces the attempts. The zero value disables backoff.
	Backoff BackoffPolicy
	// Health, when non-nil, is the circuit breaker: calls to a node it
	// reports down fail fast with ErrCircuitOpen.
	Health *Health
	// Metrics receives the caller's counters. Nil means Default.
	Metrics *Metrics
	// Seed makes the jitter reproducible. Zero derives a seed from the
	// client id, so distinct callers jitter differently but a rerun of
	// the same world jitters identically.
	Seed int64
	// Resolve, when non-nil, re-resolves the destination: it is consulted
	// when the circuit breaker trips for the cached address and before
	// every retry, so a session that was talking to a failed-over primary
	// follows the re-bound nameserver entry instead of caching the first
	// lookup forever. Returning ok=false keeps the previous destination.
	Resolve func() (to xrep.PortName, ok bool)
}

// Caller is the client half of the at-most-once layer: one logical
// session, issuing strictly sequential calls, each stamped with the
// session's (client, seq) request id.
//
// The sequential discipline is what makes the ack watermark sound: when
// call seq = n returns (successfully or not), every earlier seq is either
// answered or permanently abandoned, so the server may forget everything
// at or below the highest answered seq.
type Caller struct {
	pr     *guardian.Process
	reply  *guardian.Port
	client string
	opts   CallerOptions

	mu     sync.Mutex
	inCall bool
	seq    int64
	acked  int64
	rng    *rand.Rand // drawn only by the in-flight call, which inCall makes unique
}

// replyCapacity sizes a Caller's reply port.
const replyCapacity = 16

// NewCaller builds an at-most-once session for the given process. The
// client id is derived from the process's guardian and a fresh reply port,
// so every Caller is a distinct dedup session even on a shared guardian.
func NewCaller(pr *guardian.Process, opts CallerOptions) (*Caller, error) {
	reply, err := pr.Guardian().NewPort(ReplyType, replyCapacity)
	if err != nil {
		return nil, err
	}
	name := reply.Name()
	client := fmt.Sprintf("%s/%d/%d", name.Node, name.Guardian, name.Port)
	seed := opts.Seed
	if seed == 0 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(client))
		seed = int64(h.Sum64())
	}
	opts.Metrics = orDefault(opts.Metrics)
	return &Caller{
		pr:     pr,
		reply:  reply,
		client: client,
		opts:   opts,
		rng:    rand.New(rand.NewSource(seed)),
	}, nil
}

// Client returns the caller's session id.
func (c *Caller) Client() string { return c.client }

// Close removes the caller's reply port; the session id is retired.
func (c *Caller) Close() { c.pr.Guardian().RemovePort(c.reply) }

// Reply is a successful call's outcome: the reply message with its
// envelope peeled, Command the application outcome and Args its arguments.
// Its values are the caller's own copy, read with Message's accessors.
type Reply = guardian.Message

// CallError reports an at-most-once call that got no reply: the request id
// and the core's account of it (per-attempt timing and, when a system
// failure message ended the call, its text). It unwraps to ErrFailed or
// ErrTimeout accordingly.
type CallError struct {
	Client string
	Seq    int64
	*sendprim.CallError
}

// Error implements error.
func (e *CallError) Error() string {
	return fmt.Sprintf("%v: request %s#%d: %v", e.Unwrap(), e.Client, e.Seq, e.CallError)
}

// Unwrap lets errors.Is match ErrFailed or ErrTimeout.
func (e *CallError) Unwrap() error {
	if e.Failure != "" {
		return ErrFailed
	}
	return ErrTimeout
}

// Call performs one at-most-once request: the application command and
// arguments are wrapped in an envelope stamped with the session's next
// request id and handed to the retrying core (sendprim.Exchange), which
// re-sends it — with backoff — until a reply echoing that id arrives or the
// retry budget is exhausted. What this layer adds to the core is the
// envelope, the seq-echo filter that discards duplicated and stale replies,
// the moved redirect, the circuit breaker and the jitter.
//
// Call is strictly sequential per Caller; a concurrent second call
// returns ErrBusy rather than silently corrupting the session.
func (c *Caller) Call(to xrep.PortName, command string, args ...any) (*Reply, error) {
	c.mu.Lock()
	if c.inCall {
		c.mu.Unlock()
		return nil, ErrBusy
	}
	c.inCall = true
	c.seq++
	seq, ack := c.seq, c.acked
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.inCall = false
		c.mu.Unlock()
	}()

	// The envelope [client, seq, ack, command, [args…]] is written once, held
	// to the world's Limits field by field, and every attempt and redirect
	// re-sends its bytes. A small one fits the scratch on the stack.
	var scratch [128]byte
	l := c.pr.Guardian().Node().World().Limits()
	if err := errors.Join(l.Check(xrep.KindSeq, 5, 0), l.Check(xrep.KindString, len(c.client), 1),
		l.CheckInt(seq), l.CheckInt(ack), l.Check(xrep.KindString, len(command), 1)); err != nil {
		return nil, err
	}
	req := wire.AppendStr(wire.AppendSeqHeader(scratch[:0], 5), c.client)
	req, err := wire.AppendArgs(wire.AppendStr(wire.AppendInt(wire.AppendInt(req, seq), ack), command), l, 1, args)
	if err != nil {
		return nil, err
	}

	met := c.opts.Metrics
	met.Calls.Inc()
	c.drainStale()

	redirects := 0
	x := sendprim.Exchange{
		CallOptions: sendprim.CallOptions{
			Timeout: c.opts.Timeout, Retries: c.opts.Retries,
			Backoff: c.opts.Backoff.Base, Resolve: c.opts.Resolve,
		},
		Before: c.beforeSend,
		Jitter: c.jitter,
		// This layer's rulings: the seq-echo filter and the moved redirect.
		Judge: func(rm *guardian.Message) (sendprim.Verdict, xrep.PortName) {
			if rm.Command != ReplyCommand || rm.Int(0) != seq {
				return sendprim.Ignore, xrep.PortName{} // stale or duplicated reply
			}
			if rm.Str(1) != OutcomeMoved {
				return sendprim.Accept, xrep.PortName{}
			}
			// The key's range migrated: the reply names the new owner.
			// Re-send the SAME request id there — never a fresh one, or an op
			// the old owner executed before the flip (its dedup entry
			// travelled with the range) would apply twice. A redirect is
			// progress, not a failure: it spends no retry, and the port it
			// names — fresher than anything the resolver can know — wins for
			// exactly one send.
			if fresh, ok := movedTarget(rm.Args[2]); ok && redirects < MaxRedirects {
				redirects++
				met.Redirects.Inc()
				return sendprim.Redirect, fresh
			}
			// Redirect budget exhausted (or a malformed target): a moved
			// reply is routing state, never an answer — fall into the normal
			// retry with backoff, which re-resolves against the (by then
			// settled) ring instead of leaking an amo_* routing outcome to
			// the application.
			return sendprim.Abandon, xrep.PortName{}
		},
	}
	rm, err := x.Run(c.pr, c.reply, to, ReqCommand, req)
	if err != nil {
		var ce *sendprim.CallError
		if errors.As(err, &ce) {
			err = &CallError{Client: c.client, Seq: seq, CallError: ce}
		}
		return nil, err
	}
	c.mu.Lock()
	if seq > c.acked {
		c.acked = seq
	}
	c.mu.Unlock()
	rm.Command, rm.Args = rm.Str(1), rm.Seq(2)
	return rm, nil
}

// beforeSend is the core's pre-send hook: the circuit breaker, and the
// retry counter for sends that spend one.
func (c *Caller) beforeSend(to xrep.PortName, retry bool) (xrep.PortName, error) {
	if c.opts.Health != nil && c.opts.Health.Down(to.Node) {
		// Circuit open for the cached address: re-resolve once — the
		// binding may have moved to a live node — and only fail fast if it
		// still points into the open circuit.
		fresh, ok := to, false
		if c.opts.Resolve != nil {
			fresh, ok = c.opts.Resolve()
		}
		if !ok || fresh.Node == to.Node {
			c.opts.Metrics.CircuitOpen.Inc()
			return to, fmt.Errorf("%w: %s", ErrCircuitOpen, to.Node)
		}
		to = fresh
	}
	if retry {
		c.opts.Metrics.Retries.Inc()
	}
	return to, nil
}

// jitter applies equal jitter on top of the core's backoff — one draw per
// slept backoff, none when Jitter is zero — and counts what is slept.
func (c *Caller) jitter(d time.Duration) time.Duration {
	if j := min(c.opts.Backoff.Jitter, 1); j > 0 {
		d = time.Duration(float64(d)*(1-j) + c.rng.Float64()*float64(d)*j)
	}
	c.opts.Metrics.RetryBackoffTotal.Add(int64(d))
	return d
}

// movedTarget extracts the new owner's port from an OutcomeMoved reply's
// arguments (owner port, ring epoch).
func movedTarget(v xrep.Value) (xrep.PortName, bool) {
	f := xrep.ReadSeq(v, 2)
	p, _ := f.Port(), f.Int()
	return p, f.Err() == nil && !p.IsZero()
}

// drainStale clears leftover replies from earlier calls (duplicates of
// already-accepted replies, late replies to abandoned attempts) so the
// bounded reply port never fills with garbage.
func (c *Caller) drainStale() {
	for {
		if _, st := c.pr.Receive(0, c.reply); st != guardian.RecvOK {
			return
		}
	}
}
