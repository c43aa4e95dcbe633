// Package nameserv provides a name-service guardian: a durable mapping
// from human-chosen service names to port names. Ports are the only
// entities with global names (§3.2), and the paper's systems keep finding
// ports through maps (the flight directory of Figure 4, the UI guardian's
// directory of Figure 5); this guardian turns that recurring map into a
// shared service so that port names can be published once and looked up by
// anyone — including guardians created after the publisher.
//
// Bindings are versioned: re-registering a name bumps its version, so a
// client holding a stale port (e.g. of a guardian that self-destructed)
// can detect that the binding moved. The registry is logged and recovers
// after a crash; lookups are reads and cost one message pair.
package nameserv

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/guardian"
	"repro/internal/sendprim"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// DefName is the library name of the name-service guardian definition.
const DefName = "name_service"

// Outcome identifiers.
const (
	OutcomeBound    = "bound"
	OutcomeNotBound = "not_bound"
	OutcomeDropped  = "dropped"
	OutcomeDenied   = "denied"
)

// PortType describes the name-service port.
var PortType = guardian.NewPortType("name_service_port").
	Msg("register", xrep.KindString, xrep.KindPortName).
	Replies("register", OutcomeBound, OutcomeDenied).
	Msg("register_keyed", xrep.KindString, xrep.KindPortName, xrep.KindString).
	Replies("register_keyed", OutcomeBound, OutcomeDenied).
	Msg("unregister", xrep.KindString).
	Replies("unregister", OutcomeDropped, OutcomeNotBound, OutcomeDenied).
	Msg("lookup", xrep.KindString).
	Replies("lookup", "binding", OutcomeNotBound).
	Msg("list").
	Replies("list", "bindings").
	Msg("ring_get", xrep.KindString).
	Replies("ring_get", RingStateReply).
	Msg("ring_propose", xrep.KindString, xrep.KindInt, xrep.KindString).
	Replies("ring_propose", RingStaged, RingStale).
	Msg("ring_commit", xrep.KindString, xrep.KindInt).
	Replies("ring_commit", RingCommitted, RingStale)

// ClientReplyType receives name-service replies.
var ClientReplyType = guardian.NewPortType("name_service_client_port").
	Msg(OutcomeBound, xrep.KindInt).
	Msg(OutcomeNotBound).
	Msg(OutcomeDropped).
	Msg(OutcomeDenied).
	Msg("binding", xrep.KindPortName, xrep.KindInt).
	Msg("bindings", xrep.KindSeq).
	Msg(RingStateReply, xrep.KindInt, xrep.KindString, xrep.KindInt, xrep.KindString).
	Msg(RingStaged, xrep.KindInt).
	Msg(RingCommitted, xrep.KindInt).
	Msg(RingStale, xrep.KindInt, xrep.KindString)

// binding is one name's durable state.
type binding struct {
	port    xrep.PortName
	version int64
	// owner is the principal that first registered the name; only the
	// owner (or a same-node principal) may rebind or drop it.
	owner guardian.Principal
	// key, when non-empty, is a shared management capability: any
	// principal presenting it via register_keyed may rebind the name,
	// whatever node it calls from. This is how a replica group's members
	// — different guardians on different nodes — hand a well-known name
	// to whichever of them wins an election.
	key string
}

type state struct {
	mu       sync.Mutex
	bindings map[string]*binding
	// rings holds the versioned consistent-hash rings (see ring.go).
	rings map[string]*ringEntry
}

func record(kind, name string, port xrep.PortName, version int64, owner guardian.Principal, key string) []byte {
	fields := xrep.Seq{
		xrep.Str(kind), xrep.Str(name), port, xrep.Int(version),
		xrep.Str(owner.Node), xrep.Int(owner.Guardian),
	}
	// The shared key is a seventh, optional field: records written before
	// keys existed stay six-field and replay unchanged.
	if key != "" {
		fields = append(fields, xrep.Str(key))
	}
	b, err := wire.MarshalValue(fields)
	if err != nil {
		panic(err)
	}
	return b
}

// foldBinding is the binding folder (guardian.Folder), and record's
// inverse. Ring records aside (foldRing goes first), the name service's log
// has one writer: every record is a binding record or malformed.
func (st *state) foldBinding(v xrep.Value) (bool, error) {
	f := xrep.ReadSeq(v, 6)
	kind, name := f.Str(), f.Str()
	b := &binding{port: f.Port(), version: f.Int()}
	b.owner = guardian.Principal{Node: f.Str(), Guardian: uint64(f.Int())}
	if f.More() {
		b.key = f.Str()
	}
	if err := f.Err(); err != nil {
		return true, fmt.Errorf("nameserv: binding record: %w", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	switch kind {
	case "bind":
		st.bindings[name] = b
	case "drop":
		delete(st.bindings, name)
	default:
		return true, fmt.Errorf("nameserv: binding record of unknown kind %q", kind)
	}
	return true, nil
}

// Def returns the name-service guardian definition. No creation arguments.
func Def() *guardian.GuardianDef {
	main := func(ctx *guardian.Ctx) {
		st := &state{bindings: make(map[string]*binding), rings: make(map[string]*ringEntry)}
		ctx.G.SetState(st)
		log := ctx.G.Log()
		if ctx.Recovering {
			ctx.G.Replay(nil, st.foldRing, st.foldBinding)
		}
		reply := func(pr *guardian.Process, m *guardian.Message, cmd string, args ...any) {
			if !m.ReplyTo.IsZero() {
				_ = pr.Send(m.ReplyTo, cmd, args...)
			}
		}
		// mayManage: the binding's owner, or any principal at the name
		// service's own node (physical control), may rebind/drop.
		mayManage := func(b *binding, m *guardian.Message) bool {
			p := guardian.PrincipalOf(m)
			return p == b.owner || m.SrcNode == ctx.G.Node().Name()
		}

		// bind is the shared rebind path. key is the capability the caller
		// presented ("" for plain register): a binding holding a key may be
		// rebound by anyone presenting the same key, from any node.
		//
		// The key is a BEARER SECRET carried in cleartext, and the first
		// registrant sets it: any principal that knows — or guesses — the
		// key can pre-claim or rebind the name from any node. This is
		// deliberately weaker than the sealed capability Tokens used
		// elsewhere: it is what lets a replica group's elected leader,
		// a different principal on a different node each term, reclaim
		// the service name. Callers must treat the key like a minted
		// token (unguessable, never a predictable name) on any cluster
		// that is not fully trusted; see replica.Config.Group.
		bind := func(pr *guardian.Process, m *guardian.Message, name string, port xrep.PortName, key string) {
			st.mu.Lock()
			b, exists := st.bindings[name]
			st.mu.Unlock()
			allowed := !exists || mayManage(b, m) || (key != "" && key == b.key)
			if !allowed {
				reply(pr, m, OutcomeDenied)
				return
			}
			version := int64(1)
			owner := guardian.PrincipalOf(m)
			if exists {
				version = b.version + 1
				owner = b.owner
				if key == "" {
					key = b.key // a plain rebind keeps the key alive
				}
			}
			log.AppendSync(record("bind", name, port, version, owner, key))
			st.mu.Lock()
			st.bindings[name] = &binding{port: port, version: version, owner: owner, key: key}
			st.mu.Unlock()
			reply(pr, m, OutcomeBound, version)
		}

		// No failure arm: bindings are durable; the caller's timeout recovers.
		guardian.NewReceiver(ctx.Ports[0]).
			When("register", func(pr *guardian.Process, m *guardian.Message) {
				bind(pr, m, m.Str(0), m.Port(1), "")
			}).
			When("register_keyed", func(pr *guardian.Process, m *guardian.Message) {
				bind(pr, m, m.Str(0), m.Port(1), m.Str(2))
			}).
			When("unregister", func(pr *guardian.Process, m *guardian.Message) {
				name := m.Str(0)
				st.mu.Lock()
				b, exists := st.bindings[name]
				st.mu.Unlock()
				if !exists {
					reply(pr, m, OutcomeNotBound)
					return
				}
				if !mayManage(b, m) {
					reply(pr, m, OutcomeDenied)
					return
				}
				log.AppendSync(record("drop", name, xrep.PortName{}, 0, b.owner, ""))
				st.mu.Lock()
				delete(st.bindings, name)
				st.mu.Unlock()
				reply(pr, m, OutcomeDropped)
			}).
			When("lookup", func(pr *guardian.Process, m *guardian.Message) {
				st.mu.Lock()
				b, exists := st.bindings[m.Str(0)]
				st.mu.Unlock()
				if !exists {
					reply(pr, m, OutcomeNotBound)
					return
				}
				reply(pr, m, "binding", b.port, b.version)
			}).
			When("ring_get", func(pr *guardian.Process, m *guardian.Message) {
				st.mu.Lock()
				e := st.rings[m.Str(0)]
				if e == nil {
					e = &ringEntry{}
				}
				cEpoch, cBlob := e.committedEpoch, e.committed
				pEpoch, pBlob := e.pendingEpoch, e.pending
				st.mu.Unlock()
				reply(pr, m, RingStateReply, cEpoch, cBlob, pEpoch, pBlob)
			}).
			When("ring_propose", func(pr *guardian.Process, m *guardian.Message) {
				name, epoch, blob := m.Str(0), m.Int(1), m.Str(2)
				st.mu.Lock()
				e := st.rings[name]
				if e == nil {
					e = &ringEntry{}
					st.rings[name] = e
				}
				if epoch != e.committedEpoch+1 {
					cEpoch, cBlob := e.committedEpoch, e.committed
					st.mu.Unlock()
					reply(pr, m, RingStale, cEpoch, cBlob)
					return
				}
				st.mu.Unlock()
				log.AppendSync(ringRecord("stage", name, epoch, blob))
				st.mu.Lock()
				e.pendingEpoch, e.pending = epoch, blob
				st.mu.Unlock()
				reply(pr, m, RingStaged, epoch)
			}).
			When("ring_commit", func(pr *guardian.Process, m *guardian.Message) {
				name, epoch := m.Str(0), m.Int(1)
				st.mu.Lock()
				e := st.rings[name]
				if e == nil {
					e = &ringEntry{}
				}
				// A retried commit of the live epoch converges; only the
				// staged epoch may flip.
				if epoch == e.committedEpoch {
					st.mu.Unlock()
					reply(pr, m, RingCommitted, epoch)
					return
				}
				if epoch != e.pendingEpoch {
					cEpoch, cBlob := e.committedEpoch, e.committed
					st.mu.Unlock()
					reply(pr, m, RingStale, cEpoch, cBlob)
					return
				}
				blob := e.pending
				st.mu.Unlock()
				log.AppendSync(ringRecord("commit", name, epoch, blob))
				st.mu.Lock()
				e.committedEpoch, e.committed = epoch, blob
				e.pendingEpoch, e.pending = 0, ""
				st.mu.Unlock()
				reply(pr, m, RingCommitted, epoch)
			}).
			When("list", func(pr *guardian.Process, m *guardian.Message) {
				st.mu.Lock()
				out := make(xrep.Seq, 0, len(st.bindings))
				for name, b := range st.bindings {
					out = append(out, xrep.Seq{xrep.Str(name), b.port, xrep.Int(b.version)})
				}
				st.mu.Unlock()
				reply(pr, m, "bindings", out)
			}).
			Loop(ctx.Proc, nil)
	}
	return &guardian.GuardianDef{
		TypeName: DefName,
		Provides: []*guardian.PortType{PortType},
		Init:     main,
		Recover:  main,
	}
}

// Client is a convenience wrapper for talking to a name service. Replies
// carry no correlation id, so every call waits on a reply port of its own
// (sendprim.Call's): a reply that outlives its call's timeout finds the port
// gone and is discarded, instead of answering the next question asked.
type Client struct {
	proc *guardian.Process
	ns   xrep.PortName
}

// NewClient builds a client for the name service at ns, using the given
// process (any guardian's process will do).
func NewClient(proc *guardian.Process, ns xrep.PortName) (*Client, error) {
	return &Client{proc: proc, ns: ns}, nil
}

// Register binds name to port and returns the binding version.
func (c *Client) Register(name string, port xrep.PortName, timeout time.Duration) (int64, error) {
	m, err := c.call(timeout, "register", name, port)
	if err != nil {
		return 0, err
	}
	if m.Command != OutcomeBound {
		return 0, &Error{Outcome: m.Command}
	}
	return m.Int(0), nil
}

// Lookup resolves name to its port and version.
func (c *Client) Lookup(name string, timeout time.Duration) (xrep.PortName, int64, error) {
	m, err := c.call(timeout, "lookup", name)
	if err != nil {
		return xrep.PortName{}, 0, err
	}
	if m.Command != "binding" {
		return xrep.PortName{}, 0, &Error{Outcome: m.Command}
	}
	return m.Port(0), m.Int(1), nil
}

// Unregister drops a binding.
func (c *Client) Unregister(name string, timeout time.Duration) error {
	m, err := c.call(timeout, "unregister", name)
	if err != nil {
		return err
	}
	if m.Command != OutcomeDropped {
		return &Error{Outcome: m.Command}
	}
	return nil
}

// List returns all bindings as (name, port, version) triples.
func (c *Client) List(timeout time.Duration) (map[string]xrep.PortName, error) {
	m, err := c.call(timeout, "list")
	if err != nil {
		return nil, err
	}
	if m.Command != "bindings" {
		return nil, &Error{Outcome: m.Command}
	}
	out := make(map[string]xrep.PortName)
	for _, e := range m.Seq(0) {
		f := xrep.ReadSeq(e, 3)
		name, port, _ := f.Str(), f.Port(), f.Int()
		if err := f.Err(); err != nil {
			return nil, fmt.Errorf("nameserv: list entry: %w", err)
		}
		out[name] = port
	}
	return out, nil
}

// call is one zero-retry remote transaction send, its outcome restated in
// this package's vocabulary.
func (c *Client) call(timeout time.Duration, cmd string, args ...any) (*guardian.Message, error) {
	m, err := sendprim.Call(c.proc, c.ns, ClientReplyType, sendprim.CallOptions{Timeout: timeout}, cmd, args...)
	var ce *sendprim.CallError
	switch {
	case !errors.As(err, &ce):
		return m, err
	case ce.Failure != "":
		return nil, &Error{Outcome: "failure: " + ce.Failure}
	}
	return nil, &Error{Outcome: "timeout"}
}

// Error reports a non-success outcome from the service.
type Error struct{ Outcome string }

// Error implements error.
func (e *Error) Error() string { return "nameserv: " + e.Outcome }

// FormatPort renders a port's global name as "node/guardian/port" — the
// textual form ports cross process boundaries in when no name service is
// reachable yet (configuration files, command lines, log output). It is
// the bootstrap complement of the name service: something has to name the
// name service's own port.
func FormatPort(p xrep.PortName) string {
	return fmt.Sprintf("%s/%d/%d", p.Node, p.Guardian, p.Port)
}

// ParsePort is FormatPort's inverse. Node names containing '/' are not
// representable; the runtime never generates them.
func ParsePort(s string) (xrep.PortName, error) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 {
		return xrep.PortName{}, fmt.Errorf("nameserv: port name %q: want node/guardian/port", s)
	}
	j := strings.LastIndexByte(s[:i], '/')
	if j <= 0 {
		return xrep.PortName{}, fmt.Errorf("nameserv: port name %q: want node/guardian/port", s)
	}
	g, err := strconv.ParseUint(s[j+1:i], 10, 64)
	if err != nil {
		return xrep.PortName{}, fmt.Errorf("nameserv: port name %q: bad guardian id: %w", s, err)
	}
	p, err := strconv.ParseUint(s[i+1:], 10, 64)
	if err != nil {
		return xrep.PortName{}, fmt.Errorf("nameserv: port name %q: bad port id: %w", s, err)
	}
	if g == 0 || p == 0 {
		return xrep.PortName{}, fmt.Errorf("nameserv: port name %q: ids start at 1", s)
	}
	return xrep.PortName{Node: s[:j], Guardian: g, Port: p}, nil
}
