package guardian

import (
	"fmt"

	"repro/internal/xrep"
)

// Message is a received message: the command identifier, the decoded
// argument values (left to right), the optional reply port, and provenance
// stamped by the runtime.
type Message struct {
	// Command is the command identifier.
	Command string
	// Args are the argument values in order. They are the receiver's own
	// copy and may be kept or changed freely, but a message's values are
	// carved from one allocation of strings and one of sequence slots, so a
	// string or sequence kept from a message keeps that whole message
	// reachable. Keep most of a message, or strings.Clone the small piece
	// that will outlive it (a map key, a name in a long-lived table).
	Args xrep.Seq
	// ReplyTo is the reply port carried by the message; zero when absent.
	ReplyTo xrep.PortName
	// SrcNode is the sending node's address.
	SrcNode string
	// SrcGuardian is the sending guardian's id on SrcNode, usable as an
	// access-control principal.
	SrcGuardian uint64
	// Via is the local port the message arrived on.
	Via *Port
}

// IsFailure reports whether this is the implicit system failure message.
func (m *Message) IsFailure() bool { return m.Command == FailureCommand }

// FailureText returns the string argument of a failure message, or "".
func (m *Message) FailureText() string {
	if !m.IsFailure() || len(m.Args) != 1 {
		return ""
	}
	if s, ok := m.Args[0].(xrep.Str); ok {
		return string(s)
	}
	return ""
}

// Arg returns the i-th argument or an error when out of range.
func (m *Message) Arg(i int) (xrep.Value, error) {
	if i < 0 || i >= len(m.Args) {
		return nil, fmt.Errorf("guardian: %s has %d args, asked for %d", m.Command, len(m.Args), i)
	}
	return m.Args[i], nil
}

// Int returns argument i as an integer; it panics on a kind mismatch,
// which can only happen if the port type declared the wrong kind — a
// programming error, since the runtime already type-checked the message.
func (m *Message) Int(i int) int64 {
	v, err := m.Arg(i)
	if err != nil {
		panic(err)
	}
	n, ok := v.(xrep.Int)
	if !ok {
		panic(fmt.Sprintf("guardian: %s arg %d is %s, not int", m.Command, i, v.Kind()))
	}
	return int64(n)
}

// Str returns argument i as a string; it panics on a kind mismatch.
func (m *Message) Str(i int) string {
	v, err := m.Arg(i)
	if err != nil {
		panic(err)
	}
	s, ok := v.(xrep.Str)
	if !ok {
		panic(fmt.Sprintf("guardian: %s arg %d is %s, not string", m.Command, i, v.Kind()))
	}
	return string(s)
}

// Bool returns argument i as a boolean; it panics on a kind mismatch.
func (m *Message) Bool(i int) bool {
	v, err := m.Arg(i)
	if err != nil {
		panic(err)
	}
	b, ok := v.(xrep.Bool)
	if !ok {
		panic(fmt.Sprintf("guardian: %s arg %d is %s, not bool", m.Command, i, v.Kind()))
	}
	return bool(b)
}

// Real returns argument i as a real; it panics on a kind mismatch.
func (m *Message) Real(i int) float64 {
	v, err := m.Arg(i)
	if err != nil {
		panic(err)
	}
	r, ok := v.(xrep.Real)
	if !ok {
		panic(fmt.Sprintf("guardian: %s arg %d is %s, not real", m.Command, i, v.Kind()))
	}
	return float64(r)
}

// Port returns argument i as a port name; it panics on a kind mismatch.
func (m *Message) Port(i int) xrep.PortName {
	v, err := m.Arg(i)
	if err != nil {
		panic(err)
	}
	p, ok := v.(xrep.PortName)
	if !ok {
		panic(fmt.Sprintf("guardian: %s arg %d is %s, not portname", m.Command, i, v.Kind()))
	}
	return p
}

// Token returns argument i as a token; it panics on a kind mismatch.
func (m *Message) Token(i int) xrep.Token {
	v, err := m.Arg(i)
	if err != nil {
		panic(err)
	}
	t, ok := v.(xrep.Token)
	if !ok {
		panic(fmt.Sprintf("guardian: %s arg %d is %s, not token", m.Command, i, v.Kind()))
	}
	return t
}

// Decode maps argument i — an abstract-type record — back to this node's
// internal representation using the node's registry (the decode half of
// §3.3). It is the per-argument version of the paper's "objects in the
// message are decoded left to right".
func (m *Message) Decode(i int) (any, error) {
	v, err := m.Arg(i)
	if err != nil {
		return nil, err
	}
	if m.Via == nil {
		return nil, fmt.Errorf("guardian: message has no receiving port")
	}
	return m.Via.guardian.node.Registry().Decode(v)
}
