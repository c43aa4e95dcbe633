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
	// reachable. A message of at most 8 slots has them in the same
	// allocation as its Message, so a sequence kept from it keeps the
	// Message too. Keep most of a message, or strings.Clone the small piece
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
	if !m.IsFailure() {
		return ""
	}
	f := xrep.ReadFields(m.Args, 1)
	if text := f.Str(); f.Err() == nil {
		return text
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

// arg returns argument i as a T; it panics when the argument is absent or
// of another kind, which can only happen if the port type declared the
// wrong kind — a programming error, since the runtime already
// type-checked the message.
func arg[T xrep.Value](m *Message, i int) T {
	v, err := m.Arg(i)
	if err != nil {
		panic(err)
	}
	t, ok := v.(T)
	if !ok {
		panic(fmt.Sprintf("guardian: %s arg %d is %s, not %s", m.Command, i, v.Kind(), t.Kind()))
	}
	return t
}

// Int returns argument i as an integer; like every typed accessor it
// panics on a kind mismatch.
func (m *Message) Int(i int) int64 { return int64(arg[xrep.Int](m, i)) }

// Str returns argument i as a string.
func (m *Message) Str(i int) string { return string(arg[xrep.Str](m, i)) }

// Bool returns argument i as a boolean.
func (m *Message) Bool(i int) bool { return bool(arg[xrep.Bool](m, i)) }

// Real returns argument i as a real.
func (m *Message) Real(i int) float64 { return float64(arg[xrep.Real](m, i)) }

// Port returns argument i as a port name.
func (m *Message) Port(i int) xrep.PortName { return arg[xrep.PortName](m, i) }

// Token returns argument i as a token.
func (m *Message) Token(i int) xrep.Token { return arg[xrep.Token](m, i) }

// Seq returns argument i as a sequence.
func (m *Message) Seq(i int) xrep.Seq { return arg[xrep.Seq](m, i) }

// Bytes returns argument i as a byte string.
func (m *Message) Bytes(i int) []byte { return arg[xrep.Bytes](m, i) }

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
