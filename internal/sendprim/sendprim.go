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
	"time"

	"repro/internal/guardian"
	"repro/internal/wire"
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
	f := xrep.ReadRec(m.Args[len(m.Args)-1], ackRecName, 1)
	p := f.Port()
	return p, f.Err() == nil
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
	// Timeout bounds each attempt. Zero means DefaultTimeout.
	Timeout time.Duration
	// Retries is the number of re-sends after the first attempt. Retrying
	// is only safe when the request is idempotent — the paper's reserve
	// and cancel are designed to be exactly that (§3.5) — or when the
	// receiver runs an at-most-once filter (package amo).
	Retries int
	// Backoff is the delay inserted before the first re-send; each further
	// re-send doubles it, capped at the world Tuning's BackoffCap, or
	// 32×Backoff when that is zero. Zero means immediate blind re-send.
	Backoff time.Duration
	// Resolve, when non-nil, is consulted before every retry (not the
	// first attempt): it re-resolves the destination so a call that is
	// retrying against a dead primary picks up a re-bound nameserver
	// entry instead of hammering the cached address forever. Returning
	// ok=false keeps the previous destination.
	Resolve func() (to xrep.PortName, ok bool)
}

// DefaultTimeout bounds an attempt whose CallOptions leave Timeout zero.
const DefaultTimeout = 100 * time.Millisecond

// backoff returns the delay after failed attempt number attempt (0-based):
// base doubled per attempt and capped at cap, or 32×base when cap is zero.
func backoff(base, cap time.Duration, attempt int) time.Duration {
	if cap <= 0 {
		cap = 32 * base
	}
	d := base
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	return min(d, cap)
}

// CallTiming records one failed attempt of a remote transaction send.
type CallTiming struct {
	// Start is the offset of the attempt's last send (a followed redirect
	// restarts its clock) from the call's beginning.
	Start time.Duration
	// Wait is the clock time from that send to the moment the attempt was
	// given up: the timeout, or less when a message ended it early.
	Wait time.Duration
	// Backoff is the delay slept after the attempt failed.
	Backoff time.Duration
}

// CallError reports a remote transaction send that got no reply, with the
// per-attempt timing so the caller can see how the budget was spent. It
// unwraps to ErrCallFailed when a system failure message ended the call
// (Failure is its text) and to ErrCallTimeout when every attempt ran out.
type CallError struct {
	Failure  string
	Attempts []CallTiming
}

// Error implements error.
func (e *CallError) Error() string {
	if e.Failure != "" {
		return fmt.Sprintf("%v: %s", ErrCallFailed, e.Failure)
	}
	return fmt.Sprintf("%v after %d attempts %+v", ErrCallTimeout, len(e.Attempts), e.Attempts)
}

// Unwrap lets errors.Is match ErrCallFailed or ErrCallTimeout.
func (e *CallError) Unwrap() error {
	if e.Failure != "" {
		return ErrCallFailed
	}
	return ErrCallTimeout
}

// Verdict is a front end's ruling on one message that arrived at the reply
// port while an attempt waits.
type Verdict int

const (
	// Ignore: not for this call (stale, duplicated, another request's);
	// keep waiting against the same deadline.
	Ignore Verdict = iota
	// Accept: the message is the reply; the call returns it.
	Accept
	// Abandon: give this attempt up as if it had timed out.
	Abandon
	// Redirect: re-send the same request to the port returned with the
	// verdict, with a fresh deadline and without spending a retry.
	Redirect
)

// Exchange is the remote transaction send, written once: the attempt loop,
// the deadline-bounded wait, the backoff and the re-resolution rule every
// front end shares. A front end supplies the reply port, the encoded
// request and — where it has any — its own rulings on what arrives.
type Exchange struct {
	CallOptions
	// Judge rules on each message except system failure messages, which are
	// the core's: with a resolver and a retry left one abandons the attempt,
	// so the next re-resolves the moved binding; otherwise it fails the call.
	// Nil accepts everything.
	Judge func(m *guardian.Message) (Verdict, xrep.PortName)
	// Before, when non-nil, runs before every send and may substitute the
	// destination or refuse the send. retry reports that the send spends a
	// retry: it is neither the first nor a followed Redirect.
	Before func(to xrep.PortName, retry bool) (xrep.PortName, error)
	// Jitter, when non-nil, reshapes each non-zero backoff before it is
	// recorded and slept.
	Jitter func(d time.Duration) time.Duration
}

// Run sends the request — args already encoded, as guardian's SendEncoded
// takes them, so every attempt and redirect re-sends the same bytes — and
// waits for its reply. Each pass of the loop is one send: attempt i's
// first, or a followed Redirect's.
func (x *Exchange) Run(pr *guardian.Process, reply *guardian.Port, to xrep.PortName, command string, args []byte) (*guardian.Message, error) {
	world := pr.Guardian().Node().World()
	clock := world.Clock()
	timeout := x.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	begin := clock.Now()
	var failed []CallTiming // allocated by the first attempt that fails
	for i, retry := 0, false; ; {
		last := i >= x.Retries
		if x.Before != nil {
			var err error
			if to, err = x.Before(to, retry); err != nil {
				return nil, err
			}
		}
		if err := pr.SendEncoded(to, reply.Name(), command, args); err != nil {
			return nil, err
		}
		sent := clock.Now()
		var m *guardian.Message
		verdict, next := Ignore, xrep.PortName{}
		// The wait is bounded by the deadline, not per receive, so an
		// ignored message never extends the attempt.
		for deadline := sent.Add(timeout); verdict == Ignore; {
			remain := deadline.Sub(clock.Now())
			if remain <= 0 {
				break
			}
			var st guardian.RecvStatus
			m, st = pr.Receive(remain, reply)
			switch {
			case st == guardian.RecvKilled:
				return nil, guardian.ErrKilled
			case st == guardian.RecvTimeout:
				verdict = Abandon
			case m.IsFailure() && (x.Resolve == nil || last):
				return nil, &CallError{Failure: m.FailureText(), Attempts: failed}
			case m.IsFailure():
				verdict = Abandon
			case x.Judge == nil:
				verdict = Accept
			default:
				verdict, next = x.Judge(m)
			}
		}
		switch verdict {
		case Accept:
			return m, nil
		case Redirect:
			to, retry = next, false
			continue
		}
		t := CallTiming{Start: sent.Sub(begin), Wait: clock.Now().Sub(sent)}
		if !last {
			t.Backoff = backoff(x.Backoff, world.Tuning().BackoffCap, i)
			if t.Backoff > 0 && x.Jitter != nil {
				t.Backoff = x.Jitter(t.Backoff)
			}
		}
		failed = append(failed, t)
		if last {
			return nil, &CallError{Attempts: failed}
		}
		if t.Backoff > 0 && !pr.Pause(t.Backoff) {
			return nil, guardian.ErrKilled
		}
		i, retry = i+1, true
		if x.Resolve != nil {
			if fresh, ok := x.Resolve(); ok {
				to = fresh
			}
		}
	}
}

// replyCapacity sizes the ephemeral reply port of one Call.
const replyCapacity = 4

// Call is the remote transaction send: "the sending process waits for a
// response from the receiving process that the command has been carried
// out." It is the core on an ephemeral reply port, accepting the first
// message that is not a failure: retries mask message loss but not node
// failure — on exhaustion the caller knows nothing, exactly the
// uncertainty §3.5 describes.
func Call(pr *guardian.Process, to xrep.PortName, replyType *guardian.PortType, opts CallOptions, command string, args ...any) (*guardian.Message, error) {
	var scratch [128]byte // a few small arguments fit; more grow onto the heap
	req, err := wire.AppendArgs(scratch[:0], pr.Guardian().Node().World().Limits(), 0, args)
	if err != nil {
		return nil, err
	}
	reply, err := pr.Guardian().NewPort(replyType, replyCapacity)
	if err != nil {
		return nil, err
	}
	defer pr.Guardian().RemovePort(reply)
	x := Exchange{CallOptions: opts}
	return x.Run(pr, reply, to, command, req)
}
