package amo

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/guardian"
	"repro/internal/xrep"
)

// BackoffPolicy shapes the delay between retry attempts: capped
// exponential growth with equal jitter, the standard antidote to retry
// storms — synchronized clients hammering a node that is slow precisely
// because it is overloaded.
type BackoffPolicy struct {
	// Base is the nominal delay before the first re-send. Zero disables
	// backoff (immediate re-send, the bare §3.5 behavior).
	Base time.Duration
	// Cap bounds the grown delay. Zero means 32×Base.
	Cap time.Duration
	// Jitter is the fraction of each delay drawn uniformly at random
	// (equal jitter: delay = d·(1-Jitter) + rand(d·Jitter)). Zero means
	// no jitter; 0.5 is the usual choice.
	Jitter float64
}

// delay returns the (possibly jittered) backoff after failed attempt
// number attempt (0-based).
func (b BackoffPolicy) delay(attempt int, rng *rand.Rand) time.Duration {
	if b.Base <= 0 {
		return 0
	}
	cap := b.Cap
	if cap <= 0 {
		cap = 32 * b.Base
	}
	d := float64(b.Base)
	for i := 0; i < attempt && d < float64(cap); i++ {
		d *= 2
	}
	if d > float64(cap) {
		d = float64(cap)
	}
	if b.Jitter > 0 {
		j := b.Jitter
		if j > 1 {
			j = 1
		}
		d = d*(1-j) + rng.Float64()*d*j
	}
	return time.Duration(d)
}

// CallerOptions tunes a Caller.
type CallerOptions struct {
	// Timeout bounds each attempt. Zero means 100ms.
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
	// clientArg is client boxed once, as every envelope's first argument.
	clientArg xrep.Value
	opts      CallerOptions

	mu     sync.Mutex
	inCall bool
	seq    int64
	acked  int64
	rng    *rand.Rand
}

// replyCapacity sizes a Caller's reply port.
const replyCapacity = 16

// NewCaller builds an at-most-once session for the given process. The
// client id is derived from the process's guardian and a fresh reply port,
// so every Caller is a distinct dedup session even on a shared guardian.
func NewCaller(pr *guardian.Process, opts CallerOptions) (*Caller, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = 100 * time.Millisecond
	}
	if opts.Backoff.Cap <= 0 {
		// World-wide tuning, not a package constant: DST shrinks it.
		opts.Backoff.Cap = pr.Guardian().Node().World().Tuning().BackoffCap
	}
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
	return &Caller{
		pr:        pr,
		reply:     reply,
		client:    client,
		clientArg: xrep.Str(client),
		opts:      opts,
		rng:       rand.New(rand.NewSource(seed)),
	}, nil
}

// Client returns the caller's session id.
func (c *Caller) Client() string { return c.client }

// Close removes the caller's reply port; the session id is retired.
func (c *Caller) Close() { c.pr.Guardian().RemovePort(c.reply) }

// Reply is a successful call's outcome: the application command and its
// decoded arguments.
type Reply struct {
	Command string
	Args    xrep.Seq
}

// Str returns reply argument i as a string; it panics on a mismatch,
// mirroring guardian.Message.
func (r *Reply) Str(i int) string {
	s, ok := r.Args[i].(xrep.Str)
	if !ok {
		panic(fmt.Sprintf("amo: reply %s arg %d is not a string", r.Command, i))
	}
	return string(s)
}

// Int returns reply argument i as an integer; it panics on a mismatch.
func (r *Reply) Int(i int) int64 {
	n, ok := r.Args[i].(xrep.Int)
	if !ok {
		panic(fmt.Sprintf("amo: reply %s arg %d is not an int", r.Command, i))
	}
	return int64(n)
}

// CallError reports an exhausted at-most-once call with per-attempt
// timing. It unwraps to ErrTimeout.
type CallError struct {
	Client   string
	Seq      int64
	Attempts int
	// Waited is, for each attempt, the clock time from its send to the
	// moment it was given up: the timeout, or less when a failure message
	// ended it early.
	Waited  []time.Duration
	Backoff time.Duration // total backoff slept
}

// Error implements error.
func (e *CallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v: request %s#%d, %d attempts, backoff %v (waited",
		ErrTimeout, e.Client, e.Seq, e.Attempts, e.Backoff.Round(time.Millisecond))
	for _, w := range e.Waited {
		fmt.Fprintf(&b, " %v", w.Round(time.Millisecond))
	}
	b.WriteString(")")
	return b.String()
}

// Unwrap lets errors.Is(err, ErrTimeout) succeed.
func (e *CallError) Unwrap() error { return ErrTimeout }

// Call performs one at-most-once request: the application command and
// arguments are wrapped in an envelope stamped with the session's next
// request id and re-sent — with backoff — until a reply echoing that id
// arrives or the retry budget is exhausted. Duplicated and stale replies
// are discarded by the seq echo.
//
// Call is strictly sequential per Caller; a concurrent second call
// returns ErrBusy rather than silently corrupting the session.
func (c *Caller) Call(to xrep.PortName, command string, args ...any) (*Reply, error) {
	encoded, err := xrep.EncodeAll(args...)
	if err != nil {
		return nil, err
	}

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

	m := orDefault(c.opts.Metrics)
	m.Calls.Inc()
	c.drainStale()

	clock := c.pr.Guardian().Node().World().Clock()
	attempts := c.opts.Retries + 1
	// The envelope is built once, already in external-rep form, and every
	// attempt and redirect re-sends it.
	envelope := xrep.Seq{c.clientArg, xrep.Int(seq), xrep.Int(ack), xrep.Str(command), encoded}
	var waited []time.Duration // one entry per failed attempt
	var backoffTotal time.Duration
	redirects := 0
	followingMove := false
attempt:
	for i := 0; i < attempts; i++ {
		if i > 0 && c.opts.Resolve != nil && !followingMove {
			// A retry means the cached address did not answer; ask for a
			// fresh binding before burning another attempt on it.
			if fresh, ok := c.opts.Resolve(); ok {
				to = fresh
			}
		}
		// A moved redirect names a port fresher than anything the resolver
		// can know (the old owner told us mid-flip); it wins for exactly
		// one send, then normal re-resolution resumes.
		followingMove = false
		if c.opts.Health != nil && c.opts.Health.Down(to.Node) {
			// Circuit open for the cached address: re-resolve once — the
			// binding may have moved to a live node — and only fail fast
			// if it still points into the open circuit.
			moved := false
			if c.opts.Resolve != nil {
				if fresh, ok := c.opts.Resolve(); ok && fresh.Node != to.Node {
					to, moved = fresh, true
				}
			}
			if !moved {
				m.CircuitOpen.Inc()
				return nil, fmt.Errorf("%w: %s", ErrCircuitOpen, to.Node)
			}
		}
		if i > 0 {
			m.Retries.Inc()
		}
		if err := c.pr.SendSeq(to, c.reply.Name(), ReqCommand, envelope); err != nil {
			return nil, err
		}
		sent := clock.Now()
		deadline := sent.Add(c.opts.Timeout)
		for {
			remain := deadline.Sub(clock.Now())
			if remain <= 0 {
				break
			}
			rm, st := c.pr.Receive(remain, c.reply)
			switch st {
			case guardian.RecvOK:
				if rm.IsFailure() {
					if c.opts.Resolve != nil && i < attempts-1 {
						// The cached address reported a dead guardian or
						// port; treat it like a timeout so the next
						// attempt re-resolves the moved binding.
						break
					}
					return nil, fmt.Errorf("%w: %s", ErrFailed, rm.FailureText())
				}
				if rm.Command != ReplyCommand || rm.Int(0) != seq {
					continue // stale or duplicated reply: discard, keep waiting
				}
				if rm.Str(1) == OutcomeMoved {
					if redirects < MaxRedirects {
						// The key's range migrated: the reply names the new
						// owner. Re-send the SAME request id there — never a
						// fresh one, or an op the old owner executed before
						// the flip (its dedup entry travelled with the range)
						// would apply twice. The resend does not consume a
						// retry: a redirect is progress, not a failure.
						if fresh, ok := movedTarget(rm.Args[2]); ok {
							redirects++
							m.Redirects.Inc()
							to = fresh
							followingMove = true
							i--
							continue attempt
						}
					}
					// Redirect budget exhausted (or a malformed target): a
					// moved reply is routing state, never an answer — discard
					// it and fall into the normal retry with backoff, which
					// re-resolves against the (by then settled) ring instead
					// of leaking an amo_* routing outcome to the application.
					break
				}
				c.mu.Lock()
				if seq > c.acked {
					c.acked = seq
				}
				c.mu.Unlock()
				return &Reply{Command: rm.Str(1), Args: rm.Args[2].(xrep.Seq)}, nil
			case guardian.RecvKilled:
				return nil, guardian.ErrKilled
			case guardian.RecvTimeout:
				// deadline passed; fall out to retry
			}
			break
		}
		waited = append(waited, clock.Now().Sub(sent))
		if i < attempts-1 {
			c.mu.Lock()
			d := c.opts.Backoff.delay(i, c.rng)
			c.mu.Unlock()
			if d > 0 {
				m.RetryBackoffTotal.Add(int64(d))
				backoffTotal += d
				if !c.pr.Pause(d) {
					return nil, guardian.ErrKilled
				}
			}
		}
	}
	return nil, &CallError{Client: c.client, Seq: seq, Attempts: attempts,
		Waited: waited, Backoff: backoffTotal}
}

// movedTarget extracts the new owner's port from an OutcomeMoved reply's
// arguments (owner port, ring epoch).
func movedTarget(v xrep.Value) (xrep.PortName, bool) {
	args, ok := v.(xrep.Seq)
	if !ok || len(args) < 1 {
		return xrep.PortName{}, false
	}
	p, ok := args[0].(xrep.PortName)
	if !ok || p.IsZero() {
		return xrep.PortName{}, false
	}
	return p, true
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
