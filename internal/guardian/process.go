package guardian

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/internal/xrep"
)

// Process is the execution of a sequential program within a guardian.
// Processes are anonymous providers of activity: messages are never
// addressed to them, only to their guardian's ports. One goroutine drives
// a process: a second one that blocks on it in Receive or Pause panics.
type Process struct {
	g    *Guardian
	name string
	// idle is the waiter, timer included, the process's last blocking
	// Receive or Pause finished with, kept for its next one; nil before
	// the first. Both take it with a swap that leaves busy in its place.
	idle atomic.Pointer[waiter]
}

// busy stands in a Process's idle slot while a blocking Receive or Pause
// holds its waiter.
var busy = new(waiter)

// waiter takes the process's idle waiter, making the first one. A process
// is one sequential activity (§2.1), so finding busy panics.
func (pr *Process) waiter() *waiter {
	switch w := pr.idle.Swap(busy); w {
	case nil:
		return &waiter{ch: make(chan *Message, 1)}
	case busy:
		panic(fmt.Sprintf("guardian: process %s of guardian %s/%d blocks in two goroutines at once", pr.name, pr.g.DefName(), pr.g.id))
	default:
		return w
	}
}

// Guardian returns the process's guardian.
func (pr *Process) Guardian() *Guardian { return pr.g }

// Name returns the process's debug name.
func (pr *Process) Name() string { return pr.name }

// Killed returns the guardian's kill channel.
func (pr *Process) Killed() <-chan struct{} { return pr.g.killCh }

// Infinite is the Receive timeout meaning "wait forever".
const Infinite time.Duration = -1

// RecvStatus reports how a Receive ended.
type RecvStatus int

// Receive outcomes.
const (
	// RecvOK: a message was removed from one of the ports.
	RecvOK RecvStatus = iota
	// RecvTimeout: the timeout arm was selected.
	RecvTimeout
	// RecvKilled: the guardian died while waiting.
	RecvKilled
)

// String returns the status name.
func (s RecvStatus) String() string {
	switch s {
	case RecvOK:
		return "ok"
	case RecvTimeout:
		return "timeout"
	case RecvKilled:
		return "killed"
	default:
		return "unknown"
	}
}

// Send is the no-wait send (§3): the arguments are encoded left to right,
// the message is constructed, and transmission begins; the sender
// continues as soon as future actions cannot affect the transmitted
// values. Only local problems are reported — an encode exception, a
// violated system-wide type bound, or a dead sending guardian. Delivery
// itself is best-effort and unordered.
func (pr *Process) Send(to xrep.PortName, command string, args ...any) error {
	return pr.send(to, xrep.PortName{}, nil, command, args...)
}

// SendReplyTo is Send with a replyto port, "used to convey where to send a
// response if one is required". The reply port may belong to a different
// guardian than the sending process.
func (pr *Process) SendReplyTo(to xrep.PortName, replyTo xrep.PortName, command string, args ...any) error {
	return pr.send(to, replyTo, nil, command, args...)
}

// SendChecked is Send with the sender-side half of compile-time message
// checking: the caller names the destination's port type (from the
// library), and the command and argument kinds are verified before the
// message leaves. This is the library-level analog of CLU's compile-time
// check against guardian headers.
func (pr *Process) SendChecked(pt *PortType, to xrep.PortName, command string, args ...any) error {
	return pr.send(to, xrep.PortName{}, pt, command, args...)
}

// SendCheckedReplyTo combines SendChecked and SendReplyTo.
func (pr *Process) SendCheckedReplyTo(pt *PortType, to, replyTo xrep.PortName, command string, args ...any) error {
	return pr.send(to, replyTo, pt, command, args...)
}

// SendSeq is the send for a caller that already holds its arguments in
// external-rep form (a relayed message's): step 1's encoding is skipped,
// every other step of Send — the system-wide type bounds included — is the
// same. A zero replyTo means none.
func (pr *Process) SendSeq(to, replyTo xrep.PortName, command string, args xrep.Seq) error {
	limits := pr.g.node.world.cfg.Limits
	return pr.sendSeq(to, replyTo, command, func(dst []byte) ([]byte, error) {
		if err := limits.ValidateSeq(args); err != nil {
			return nil, err
		}
		return wire.AppendSeq(dst, args)
	})
}

// SendEncoded is the send for a caller that has written its arguments
// itself — one sequence value, as wire.AppendArgs or wire's typed
// vocabulary writes it — and held them to the world's Limits: a retrying
// call that re-sends the same request. args is copied into the frame
// before SendEncoded returns, so the caller may reuse it.
func (pr *Process) SendEncoded(to, replyTo xrep.PortName, command string, args []byte) error {
	return pr.sendSeq(to, replyTo, command, func(dst []byte) ([]byte, error) { return append(dst, args...), nil })
}

func (pr *Process) send(to, replyTo xrep.PortName, pt *PortType, command string, args ...any) error {
	limits := pr.g.node.world.cfg.Limits
	return pr.sendSeq(to, replyTo, command, func(dst []byte) ([]byte, error) {
		// §3.4 step 1: encode the arguments left to right, straight into
		// the frame; an encode exception or a violated bound terminates the
		// send.
		start := len(dst)
		dst, err := wire.AppendArgs(dst, limits, 0, args)
		if err != nil || pt == nil {
			return dst, err
		}
		// The receiver's check, on what it will decode.
		v, err := wire.UnmarshalValue(dst[start:])
		if err != nil {
			return nil, err
		}
		return dst, pt.check(command, v.(xrep.Seq))
	})
}

// sendSeq is the bottom of every send: args writes the argument sequence
// into the frame, between its head and its tail. A dead guardian's
// process sends nothing and runs no encode code. On a node with a crash
// hook, the send-unsynced window follows the send.
func (pr *Process) sendSeq(to, replyTo xrep.PortName, command string, args func(dst []byte) ([]byte, error)) error {
	if !pr.g.Alive() {
		return ErrKilled
	}
	f := wire.Frame{
		Dest:        to,
		SrcNode:     pr.g.node.name,
		SrcGuardian: pr.g.id,
		MsgID:       pr.g.node.nextMsgID(to.Node),
		Command:     command,
		ReplyTo:     replyTo,
	}
	// §3.4 steps 2 and 3: construct the message and transmit. The process
	// continues once the frame is built; delivery is the system's
	// best-effort job.
	if err := pr.g.node.routeFrame(&f, args); err != nil {
		return err
	}
	pr.g.node.world.stats.MessagesSent.Add(1)
	pr.g.node.world.traceSend(pr.g.node.name, command, pr.g.id, to)
	if pr.g.node.crash != nil {
		pr.g.sendUnsynced()
	}
	return nil
}

// Receive implements the paper's receive statement's selection rule: if
// messages have already arrived at ports in the list, one is removed, with
// earlier ports given priority; otherwise the process waits for an arrival
// or times out, whichever happens first.
//
// timeout Infinite waits forever; timeout 0 polls. A RecvKilled status
// means the guardian died while the process waited.
func (pr *Process) Receive(timeout time.Duration, ports ...*Port) (*Message, RecvStatus) {
	for _, p := range ports {
		if p.guardian != pr.g {
			panic("guardian: receive on another guardian's port")
		}
	}
	if !pr.g.Alive() {
		return nil, RecvKilled
	}
	// Fast path: a queued message on the highest-priority nonempty port.
	for _, p := range ports {
		if m := p.tryDequeue(); m != nil {
			return m, RecvOK
		}
	}
	if timeout == 0 {
		return nil, RecvTimeout
	}

	w := pr.waiter()
	for _, p := range ports {
		p.addWaiter(w)
	}
	var timeoutC <-chan time.Time
	defer func() {
		if timeoutC != nil {
			// An expiry that lands unread after the select is drained by
			// the next Reset.
			w.timer.Stop()
		}
		for _, p := range ports {
			p.removeWaiter(w)
		}
		// Every return below leaves w claimed with its channel drained,
		// and a deliver claims only under the port lock removeWaiter just
		// took on every port — so nothing can still reach w, and it may
		// serve the next Receive.
		w.claimed.Store(false)
		pr.idle.Store(w)
	}()
	// Re-scan after registering: a message delivered between the fast-path
	// scan and addWaiter saw no waiters and went to the buffer, where it
	// would sit for the full timeout while this process sleeps. Claiming
	// our own waiter closes the window; if a deliver claimed it first, the
	// select below completes immediately from w.ch.
	for _, p := range ports {
		if m := p.claimQueued(w); m != nil {
			return m, RecvOK
		}
	}

	if timeout > 0 {
		timeoutC = w.arm(pr.g.node.world.clock, timeout)
	}

	select {
	case m := <-w.ch:
		return m, RecvOK
	case <-timeoutC:
		if w.claimed.CompareAndSwap(false, true) {
			return nil, RecvTimeout
		}
		// A port won the race just as the timer fired; take the message.
		return <-w.ch, RecvOK
	case <-pr.g.killCh:
		if w.claimed.CompareAndSwap(false, true) {
			return nil, RecvKilled
		}
		return <-w.ch, RecvOK
	}
}

// Pause sleeps on the world clock, returning early (false) if the
// guardian is killed. It waits on the process's waiter timer, as Receive
// does.
func (pr *Process) Pause(d time.Duration) bool {
	w := pr.waiter()
	defer pr.idle.Store(w)
	select {
	case <-w.arm(pr.g.node.world.clock, d):
		return true
	case <-pr.g.killCh:
		w.timer.Stop()
		return false
	}
}
