package guardian

import (
	"fmt"
	"time"
)

// Receiver is the library analog of the paper's receive statement:
//
//	receive on <port list>
//	   when C1(args) [replyto p]: S1
//	   ...
//	   when failure (x: string): Sfailure
//	   when timeout <exp>: Stimeout
//	end
//
// Arms are declared with When; the construction-time checks mirror the
// compile-time checks the paper requires — an arm's command must exist on
// some listed port ("such a line must exist; this can be checked at
// compile time"), and at Run every command the ports can deliver must have
// an arm.
type Receiver struct {
	ports        []*Port
	arms         map[string]func(*Process, *Message)
	interceptors []interceptor
	onFailure    func(*Process, string, *Message)
	timeout      time.Duration
	onTimeout    func(*Process)
	checked      bool
}

// interceptor is a receive-loop hook: a filter offered messages before arm
// dispatch. commands lists the command identifiers the hook owns; those
// commands are exempt from arm-coverage checking.
type interceptor struct {
	hook     func(*Process, *Message) bool
	commands map[string]struct{}
}

// NewReceiver starts a receive statement over the given ports, listed in
// priority order.
func NewReceiver(ports ...*Port) *Receiver {
	if len(ports) == 0 {
		panic("guardian: receive needs at least one port")
	}
	return &Receiver{
		ports:   ports,
		arms:    make(map[string]func(*Process, *Message)),
		timeout: Infinite,
	}
}

// When adds an arm for a command. The command must be declared by at least
// one listed port type; a violation panics at construction, the runtime
// stand-in for a compile error.
func (r *Receiver) When(command string, body func(pr *Process, m *Message)) *Receiver {
	if command == FailureCommand {
		panic("guardian: use WhenFailure for the implicit failure arm")
	}
	found := false
	for _, p := range r.ports {
		if _, ok := p.ptype.Spec(command); ok {
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("guardian: no listed port declares message %q", command))
	}
	if _, dup := r.arms[command]; dup {
		panic(fmt.Sprintf("guardian: duplicate arm for %q", command))
	}
	r.arms[command] = body
	return r
}

// Intercept installs a receive-loop hook: before arm dispatch, each
// non-failure message whose command is in commands is offered to hook,
// which returns true to consume it. Hooks run in installation order.
//
// The listed commands become the hook's responsibility: they are exempt
// from the arm-coverage check, and a message the hook declines (returns
// false for) falls through to an arm if one exists, or is quietly thrown
// away — the §3.4 license to discard. This is how a session layer (e.g. an
// at-most-once filter) wraps a guardian's receive loop without the
// guardian's own arms knowing about it.
//
// Every listed command must be declared by some listed port, the same
// construction-time check When performs.
func (r *Receiver) Intercept(hook func(pr *Process, m *Message) bool, commands ...string) *Receiver {
	if len(commands) == 0 {
		panic("guardian: Intercept needs at least one command")
	}
	owned := make(map[string]struct{}, len(commands))
	for _, command := range commands {
		if command == FailureCommand {
			panic("guardian: use WhenFailure for the implicit failure arm")
		}
		found := false
		for _, p := range r.ports {
			if _, ok := p.ptype.Spec(command); ok {
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("guardian: no listed port declares message %q", command))
		}
		owned[command] = struct{}{}
	}
	r.interceptors = append(r.interceptors, interceptor{hook: hook, commands: owned})
	return r
}

// WhenFailure adds the arm for the implicit system failure message. A
// chain without it drops failure reports: §3.4's license to discard.
func (r *Receiver) WhenFailure(body func(pr *Process, text string, m *Message)) *Receiver {
	r.onFailure = body
	return r
}

// WhenTimeout sets the timeout expression and its arm.
func (r *Receiver) WhenTimeout(d time.Duration, body func(pr *Process)) *Receiver {
	r.timeout = d
	r.onTimeout = body
	return r
}

// check verifies arm coverage: every command deliverable by the listed
// ports has an arm. Runs once, at first Run.
func (r *Receiver) check() {
	if r.checked {
		return
	}
	for _, p := range r.ports {
		for _, cmd := range p.ptype.Commands() {
			if _, ok := r.arms[cmd]; ok {
				continue
			}
			if r.intercepted(cmd) {
				continue
			}
			panic(fmt.Sprintf("guardian: port type %s delivers %q but receive has no arm for it",
				p.ptype.Name(), cmd))
		}
	}
	r.checked = true
}

// intercepted reports whether any installed hook owns the command.
func (r *Receiver) intercepted(command string) bool {
	for _, ic := range r.interceptors {
		if _, ok := ic.commands[command]; ok {
			return true
		}
	}
	return false
}

// RunOnce executes the receive statement once on behalf of pr: one message
// is removed and its arm executed, or the timeout arm runs. It returns the
// receive status.
func (r *Receiver) RunOnce(pr *Process) RecvStatus {
	r.check()
	m, st := pr.Receive(r.timeout, r.ports...)
	switch st {
	case RecvOK:
		if m.IsFailure() {
			if r.onFailure != nil {
				r.onFailure(pr, m.FailureText(), m)
			}
			return st
		}
		for _, ic := range r.interceptors {
			if _, owned := ic.commands[m.Command]; owned && ic.hook(pr, m) {
				return st
			}
		}
		arm, ok := r.arms[m.Command]
		if !ok {
			if r.intercepted(m.Command) {
				// Offered to its hook, declined, no arm: throw it away.
				return st
			}
			// Unreachable given check() plus runtime type checking; keep a
			// loud failure rather than a silent drop.
			panic(fmt.Sprintf("guardian: no arm for delivered command %q", m.Command))
		}
		arm(pr, m)
	case RecvTimeout:
		if r.onTimeout != nil {
			r.onTimeout(pr)
		}
	case RecvKilled:
		// Caller observes the status and unwinds.
	}
	return st
}

// Loop runs the receive statement until the guardian is killed or stop
// returns true. A nil stop loops until death.
func (r *Receiver) Loop(pr *Process, stop func() bool) {
	for {
		if stop != nil && stop() {
			return
		}
		if st := r.RunOnce(pr); st == RecvKilled {
			return
		}
	}
}
