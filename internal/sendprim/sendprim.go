// Package sendprim implements the two communication primitives the paper
// compares against the no-wait send (§3) — the synchronization send of
// Hoare and the remote transaction send of Brinch Hansen — built on top of
// the no-wait send, demonstrating the paper's claim that the no-wait send
// "can be used to implement the others, but not vice versa (if extra
// message passing is to be avoided)".
//
// Both constructions necessarily cost extra messages and extra sender
// blocking; experiment E4 counts exactly how many, per exchange pattern.
package sendprim

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/guardian"
	"repro/internal/xrep"
)

// Package errors.
var (
	// ErrSyncTimeout: the synchronization send's receipt acknowledgement
	// never arrived. The sender knows nothing about the message's fate.
	ErrSyncTimeout = errors.New("sendprim: synchronization send timed out awaiting receipt")
	// ErrCallTimeout: every attempt of a remote transaction send timed
	// out. The request may have been performed any number of times.
	ErrCallTimeout = errors.New("sendprim: remote transaction send exhausted retries")
	// ErrCallFailed: the system reported a failure (dead port/guardian)
	// for the request.
	ErrCallFailed = errors.New("sendprim: remote transaction send failed")
)

// AckType is the port type on which synchronization-send receipt
// acknowledgements arrive.
var AckType = guardian.NewPortType("syncsend_ack_port").
	Msg("received")

// ackRecName tags the hidden acknowledgement port. The tag is a reserved
// record name rather than a bare port value, so a message whose final real
// argument happens to be a port is never mistaken for a sync send.
const ackRecName = "sendprim/ack"

// AckArg wraps an acknowledgement port in its unambiguous tag. Port types
// receiving sync sends declare the hidden trailing slot as KindRec.
func AckArg(p xrep.PortName) xrep.Rec {
	return xrep.Rec{Name: ackRecName, Fields: xrep.Seq{p}}
}

// ackPort extracts the acknowledgement port from a message's trailing
// argument, reporting ok=false when the message is not a sync send.
func ackPort(m *guardian.Message) (xrep.PortName, bool) {
	if len(m.Args) == 0 {
		return xrep.PortName{}, false
	}
	rec, ok := m.Args[len(m.Args)-1].(xrep.Rec)
	if !ok || rec.Name != ackRecName || len(rec.Fields) != 1 {
		return xrep.PortName{}, false
	}
	p, ok := rec.Fields[0].(xrep.PortName)
	return p, ok
}

// SyncSend is the synchronization send: it transmits the message and
// blocks until the receiving process has removed it (or timeout elapses).
// "The sending process waits until the message has been received by the
// target process."
//
// The construction appends a hidden, tagged acknowledgement port as a
// trailing argument; the receiving process must call Acknowledge when it
// removes the message. One exchange therefore costs two messages where the
// no-wait send costs one.
func SyncSend(pr *guardian.Process, to xrep.PortName, timeout time.Duration, command string, args ...any) error {
	ack, err := pr.Guardian().NewPort(AckType, 1)
	if err != nil {
		return err
	}
	defer pr.Guardian().RemovePort(ack)
	args = append(args, AckArg(ack.Name()))
	if err := pr.Send(to, command, args...); err != nil {
		return err
	}
	m, st := pr.Receive(timeout, ack)
	switch st {
	case guardian.RecvOK:
		if m.IsFailure() {
			// The runtime routed a delivery failure to our ack port (the
			// ack port was not the replyto, so this only happens when the
			// receiver forwarded one); treat as not received.
			return fmt.Errorf("%w: %s", ErrSyncTimeout, m.FailureText())
		}
		return nil
	case guardian.RecvKilled:
		return guardian.ErrKilled
	default:
		return ErrSyncTimeout
	}
}

// Acknowledge completes the receiving half of a synchronization send: the
// receiver calls it immediately upon removing the message. The trailing
// argument carries the hidden, tagged acknowledgement port.
func Acknowledge(pr *guardian.Process, m *guardian.Message) error {
	p, ok := ackPort(m)
	if !ok {
		return errors.New("sendprim: message carries no tagged acknowledgement port")
	}
	return pr.Send(p, "received")
}

// StripAck returns the message's application arguments with the hidden
// acknowledgement port removed. Only the tagged record is stripped: a
// message whose final real argument is a plain port keeps it.
func StripAck(m *guardian.Message) xrep.Seq {
	if _, ok := ackPort(m); ok {
		return m.Args[:len(m.Args)-1]
	}
	return m.Args
}

// CallOptions tunes a remote transaction send.
type CallOptions struct {
	// Timeout bounds each attempt.
	Timeout time.Duration
	// Retries is the number of re-sends after the first attempt. Retrying
	// is only safe when the request is idempotent — the paper's reserve
	// and cancel are designed to be exactly that (§3.5) — or when the
	// receiver runs an at-most-once filter (package amo).
	Retries int
	// Backoff is the delay inserted before the first re-send; each further
	// re-send doubles it, capped at BackoffCap. Zero keeps the historical
	// behavior: immediate blind re-send.
	Backoff time.Duration
	// BackoffCap bounds the grown backoff. Zero means the world Tuning's
	// BackoffCap, or 32×Backoff when that too is zero.
	BackoffCap time.Duration
	// Resolve, when non-nil, is consulted before every retry (not the
	// first attempt): it re-resolves the destination so a call that is
	// retrying against a dead primary picks up a re-bound nameserver
	// entry instead of hammering the cached address forever. Returning
	// ok=false keeps the previous destination.
	Resolve func() (to xrep.PortName, ok bool)
}

// backoffFor returns the delay to insert after failed attempt number
// attempt (0-based).
func (o CallOptions) backoffFor(attempt int) time.Duration {
	if o.Backoff <= 0 {
		return 0
	}
	cap := o.BackoffCap
	if cap <= 0 {
		cap = 32 * o.Backoff
	}
	d := o.Backoff
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}

// CallTiming records one attempt of a remote transaction send.
type CallTiming struct {
	// Start is the attempt's offset from the call's beginning.
	Start time.Duration
	// Wait is how long the attempt waited for a reply.
	Wait time.Duration
	// Backoff is the delay slept after the attempt failed.
	Backoff time.Duration
}

// CallError reports an exhausted remote transaction send with per-attempt
// timing. It unwraps to ErrCallTimeout, so errors.Is keeps working.
type CallError struct {
	Attempts []CallTiming
}

// Error implements error.
func (e *CallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v after %d attempts (", ErrCallTimeout, len(e.Attempts))
	for i, a := range e.Attempts {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "@%v waited %v", a.Start.Round(time.Millisecond), a.Wait.Round(time.Millisecond))
		if a.Backoff > 0 {
			fmt.Fprintf(&b, " backoff %v", a.Backoff.Round(time.Millisecond))
		}
	}
	b.WriteString(")")
	return b.String()
}

// Unwrap lets errors.Is(err, ErrCallTimeout) succeed.
func (e *CallError) Unwrap() error { return ErrCallTimeout }

// replyCapacity sizes the ephemeral reply port of one Call.
const replyCapacity = 4

// Call is the remote transaction send: "the sending process waits for a
// response from the receiving process that the command has been carried
// out." It sends the request with an ephemeral reply port, waits for the
// response, and optionally retries on timeout — with exponential backoff
// between attempts when Backoff is set — masking message loss (but not
// node failure: on exhaustion the caller knows nothing, exactly the
// uncertainty §3.5 describes, and the returned CallError carries the
// per-attempt timing so the caller can see how the budget was spent).
func Call(pr *guardian.Process, to xrep.PortName, replyType *guardian.PortType, opts CallOptions, command string, args ...any) (*guardian.Message, error) {
	reply, err := pr.Guardian().NewPort(replyType, replyCapacity)
	if err != nil {
		return nil, err
	}
	defer pr.Guardian().RemovePort(reply)

	clock := pr.Guardian().Node().World().Clock()
	if opts.BackoffCap <= 0 {
		opts.BackoffCap = pr.Guardian().Node().World().Tuning().BackoffCap
	}
	begin := clock.Now()
	attempts := opts.Retries + 1
	timings := make([]CallTiming, 0, attempts)
	for i := 0; i < attempts; i++ {
		if i > 0 && opts.Resolve != nil {
			if fresh, ok := opts.Resolve(); ok {
				to = fresh
			}
		}
		attemptStart := clock.Now()
		if err := pr.SendReplyTo(to, reply.Name(), command, args...); err != nil {
			return nil, err
		}
		m, st := pr.Receive(opts.Timeout, reply)
		switch st {
		case guardian.RecvOK:
			if m.IsFailure() {
				// With a resolver, a failure report (dead guardian or
				// port at the cached address) is grounds to re-resolve
				// and retry, not to give up: the binding may have moved.
				if opts.Resolve != nil && i < attempts-1 {
					t := CallTiming{
						Start:   attemptStart.Sub(begin),
						Wait:    clock.Now().Sub(attemptStart),
						Backoff: opts.backoffFor(i),
					}
					if t.Backoff > 0 && !pr.Pause(t.Backoff) {
						return nil, guardian.ErrKilled
					}
					timings = append(timings, t)
					continue
				}
				return nil, fmt.Errorf("%w: %s", ErrCallFailed, m.FailureText())
			}
			return m, nil
		case guardian.RecvKilled:
			return nil, guardian.ErrKilled
		case guardian.RecvTimeout:
			t := CallTiming{
				Start: attemptStart.Sub(begin),
				Wait:  clock.Now().Sub(attemptStart),
			}
			if i < attempts-1 {
				t.Backoff = opts.backoffFor(i)
				if t.Backoff > 0 && !pr.Pause(t.Backoff) {
					return nil, guardian.ErrKilled
				}
			}
			timings = append(timings, t)
		}
	}
	return nil, &CallError{Attempts: timings}
}
