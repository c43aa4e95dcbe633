package airline

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/guardian"
	"repro/internal/xrep"
)

// Client errors.
var (
	ErrTimeout = errors.New("airline: timed out waiting for reply")
	ErrKilled  = errors.New("airline: client guardian destroyed")
)

// Agent is a direct requester of flight/regional guardians: the workload
// generator used by the Figure-1 and Figure-2 experiments, issuing
// reserve/cancel/list requests without the transaction machinery.
type Agent struct {
	proc  *guardian.Process
	reply *guardian.Port
}

// NewAgent creates a driver guardian at node and an agent process on it.
func NewAgent(node *guardian.Node, name string) (*Agent, error) {
	g, proc, err := node.NewDriver(name)
	if err != nil {
		return nil, err
	}
	reply, err := g.NewPort(ClientReplyType, 64)
	if err != nil {
		return nil, err
	}
	return &Agent{proc: proc, reply: reply}, nil
}

// Principal returns the agent's access-control identity.
func (a *Agent) Principal() guardian.Principal {
	return guardian.Principal{Node: a.proc.Guardian().Node().Name(), Guardian: a.proc.Guardian().ID()}
}

// Request issues one reserve/cancel to the given port and waits for the
// outcome. It returns the outcome command identifier ("ok", "full",
// "wait_list", "pre_reserved", "canceled", "not_reserved",
// "no_such_flight") or the failure text.
func (a *Agent) Request(port xrep.PortName, op string, flight int64, passenger, date string, timeout time.Duration) (string, error) {
	if err := a.proc.SendReplyTo(port, a.reply.Name(), op, flight, passenger, date); err != nil {
		return "", err
	}
	return a.awaitOutcome(timeout)
}

// ListPassengers issues a list_passengers request and returns the names.
func (a *Agent) ListPassengers(port xrep.PortName, flight int64, date string, timeout time.Duration) ([]string, string, error) {
	if err := a.proc.SendReplyTo(port, a.reply.Name(), "list_passengers", flight, date); err != nil {
		return nil, "", err
	}
	m, st := a.proc.Receive(timeout, a.reply)
	switch st {
	case guardian.RecvOK:
	case guardian.RecvTimeout:
		return nil, "", ErrTimeout
	default:
		return nil, "", ErrKilled
	}
	if m.Command != "info" {
		return nil, m.Command, nil
	}
	list := xrep.ReadFields(m.Seq(0), 0)
	var names []string
	for list.More() {
		names = append(names, list.Str())
	}
	if err := list.Err(); err != nil {
		return nil, "", err
	}
	return names, "info", nil
}

// Admin issues an administrative command (add_flight, delete_flight,
// usage, grant_list_access) and returns the reply.
func (a *Agent) Admin(port xrep.PortName, command string, timeout time.Duration, args ...any) (*guardian.Message, error) {
	if err := a.proc.SendReplyTo(port, a.reply.Name(), command, args...); err != nil {
		return nil, err
	}
	m, st := a.proc.Receive(timeout, a.reply)
	switch st {
	case guardian.RecvOK:
		return m, nil
	case guardian.RecvTimeout:
		return nil, ErrTimeout
	default:
		return nil, ErrKilled
	}
}

func (a *Agent) awaitOutcome(timeout time.Duration) (string, error) {
	m, st := a.proc.Receive(timeout, a.reply)
	switch st {
	case guardian.RecvOK:
		if m.IsFailure() {
			return "", fmt.Errorf("airline: %s", m.FailureText())
		}
		return m.Command, nil
	case guardian.RecvTimeout:
		return "", ErrTimeout
	default:
		return "", ErrKilled
	}
}

// Clerk drives the transaction interface of Figure 5: it talks to a U_j
// guardian through a terminal port, standing in for "the guardian that
// manages the display used by the reservations clerk".
type Clerk struct {
	proc    *guardian.Process
	term    *guardian.Port
	trans   xrep.PortName
	inTrans bool
}

// NewClerk creates a clerk at node.
func NewClerk(node *guardian.Node, name string) (*Clerk, error) {
	g, proc, err := node.NewDriver(name)
	if err != nil {
		return nil, err
	}
	term, err := g.NewPort(TermPortType, 64)
	if err != nil {
		return nil, err
	}
	return &Clerk{proc: proc, term: term}, nil
}

// Begin opens a transaction for a customer at the given UI port.
func (c *Clerk) Begin(ui xrep.PortName, passenger string, timeout time.Duration) error {
	if err := c.proc.SendReplyTo(ui, c.term.Name(), "begin_transaction", passenger); err != nil {
		return err
	}
	m, err := c.expect("trans", timeout)
	if err != nil {
		return err
	}
	c.trans = m.Port(0)
	c.inTrans = true
	return nil
}

// TransPort returns the current transaction's private port name.
func (c *Clerk) TransPort() xrep.PortName { return c.trans }

// Reserve asks the transaction to reserve a seat; the outcome string is
// the reply identifier or the communication failure text.
func (c *Clerk) Reserve(flight int64, date string, timeout time.Duration) (string, error) {
	return c.request("reserve", flight, date, timeout)
}

// Cancel asks the transaction to cancel a seat; cancels are deferred, so
// the immediate outcome is "deferred".
func (c *Clerk) Cancel(flight int64, date string, timeout time.Duration) (string, error) {
	return c.request("cancel", flight, date, timeout)
}

func (c *Clerk) request(op string, flight int64, date string, timeout time.Duration) (string, error) {
	if !c.inTrans {
		return "", errors.New("airline: no open transaction")
	}
	if err := c.proc.SendReplyTo(c.trans, c.term.Name(), op, flight, date); err != nil {
		return "", err
	}
	m, err := c.expectAny([]string{"result"}, timeout)
	if err != nil {
		return "", err
	}
	return m.Str(3), nil
}

// UndoLast undoes the most recent request of the transaction. It returns
// the undone operation ("reserve" or "cancel"), or "" when the history
// was empty.
func (c *Clerk) UndoLast(timeout time.Duration) (string, error) {
	if !c.inTrans {
		return "", errors.New("airline: no open transaction")
	}
	if err := c.proc.SendReplyTo(c.trans, c.term.Name(), "undo_last"); err != nil {
		return "", err
	}
	m, err := c.expectAny([]string{"undone", "nothing_to_undo"}, timeout)
	if err != nil {
		return "", err
	}
	if m.Command == "nothing_to_undo" {
		return "", nil
	}
	return m.Str(0), nil
}

// Done finishes the transaction: all deferred cancels are performed. It
// returns the counts of performed reserves and cancels.
func (c *Clerk) Done(timeout time.Duration) (reserves, cancels int64, err error) {
	if !c.inTrans {
		return 0, 0, errors.New("airline: no open transaction")
	}
	if err := c.proc.SendReplyTo(c.trans, c.term.Name(), "done"); err != nil {
		return 0, 0, err
	}
	m, err := c.expect("trans_done", timeout)
	if err != nil {
		return 0, 0, err
	}
	c.inTrans = false
	return m.Int(0), m.Int(1), nil
}

// expect waits for a specific terminal message.
func (c *Clerk) expect(command string, timeout time.Duration) (*guardian.Message, error) {
	return c.expectAny([]string{command}, timeout)
}

// expectAny waits for any of the given terminal messages. A system failure
// message surfaces as an error carrying its text — this is how the clerk
// learns the transaction node has crashed.
func (c *Clerk) expectAny(commands []string, timeout time.Duration) (*guardian.Message, error) {
	deadline := c.proc.Guardian().Node().World().Clock().Now().Add(timeout)
	for {
		remain := deadline.Sub(c.proc.Guardian().Node().World().Clock().Now())
		if remain <= 0 {
			return nil, ErrTimeout
		}
		m, st := c.proc.Receive(remain, c.term)
		switch st {
		case guardian.RecvOK:
			if m.IsFailure() {
				return nil, fmt.Errorf("airline: %s", m.FailureText())
			}
			for _, want := range commands {
				if m.Command == want {
					return m, nil
				}
			}
			// Stale message from an earlier request (e.g. a late reply
			// after a timeout); skip it.
		case guardian.RecvTimeout:
			return nil, ErrTimeout
		default:
			return nil, ErrKilled
		}
	}
}
