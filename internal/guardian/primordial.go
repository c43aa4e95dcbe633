package guardian

import (
	"repro/internal/xrep"
)

// Each node comes into existence with a primordial guardian (§2.1), which
// can — among other things — create guardians at its node in response to
// messages arriving from guardians at other nodes. This restriction on
// creation preserves the autonomy of physical nodes: processing moves to a
// node only with the consent of software already resident there.

// Well-known identity of every node's primordial guardian.
const (
	primordialGuardianID = 1
	primordialPortID     = 1
)

// PrimordialType describes the primordial guardian's port: remote
// guardians request creation with create(def_name, args) and liveness
// probes with ping().
var PrimordialType = NewPortType("primordial_port").
	Msg("create", xrep.KindString, xrep.KindSeq).
	Replies("create", "created", FailureCommand).
	Msg("ping").
	Replies("ping", "pong")

// CreatedReplyType describes a port able to receive the primordial
// guardian's responses; requesters make such ports to collect results.
var CreatedReplyType = NewPortType("primordial_reply_port").
	Msg("created", xrep.KindSeq).
	Msg("pong")

// PrimordialPort returns the well-known port name of a node's primordial
// guardian.
func PrimordialPort(nodeName string) xrep.PortName {
	return xrep.PortName{Node: nodeName, Guardian: primordialGuardianID, Port: primordialPortID}
}

// PrimordialPort returns this node's primordial port name.
func (n *Node) PrimordialPort() xrep.PortName {
	return PrimordialPort(n.name)
}

var primordialDef = &GuardianDef{
	TypeName: "_primordial",
	Provides: []*PortType{PrimordialType},
	Init:     primordialMain,
}

// spawnPrimordial creates the node's primordial guardian with its fixed,
// well-known identity. Called at node start and again at every restart.
func (n *Node) spawnPrimordial() {
	meta := &guardianMeta{
		id:      primordialGuardianID,
		defName: primordialDef.TypeName,
		portIDs: []uint64{primordialPortID},
	}
	g, err := n.instantiate(primordialDef, nil, meta, false)
	if err != nil {
		panic("guardian: cannot spawn primordial: " + err.Error())
	}
	n.mu.Lock()
	n.primordial = g
	if n.nextGID < primordialGuardianID {
		n.nextGID = primordialGuardianID
	}
	n.mu.Unlock()
}

// primordialMain services create and ping requests until the node dies.
func primordialMain(ctx *Ctx) {
	n := ctx.G.node
	// No failure arm: a creator's own timeout covers a lost answer.
	NewReceiver(ctx.Ports[0]).
		When("create", func(pr *Process, m *Message) {
			defName := m.Str(0)
			args := m.Seq(1)
			reply := func(ok bool, payload xrep.Value, text string) {
				if m.ReplyTo.IsZero() {
					return
				}
				if ok {
					_ = pr.Send(m.ReplyTo, "created", payload)
				} else {
					_ = pr.Send(m.ReplyTo, FailureCommand, text)
				}
			}
			n.mu.Lock()
			policy := n.allowCreate
			n.mu.Unlock()
			if policy != nil && !policy(m.SrcNode, m.SrcGuardian, defName) {
				reply(false, nil, "creation not permitted by node owner")
				return
			}
			anyArgs := make([]any, len(args))
			for i, a := range args {
				anyArgs[i] = a
			}
			created, err := ctx.G.Create(defName, anyArgs...)
			if err != nil {
				reply(false, nil, "creation failed: "+err.Error())
				return
			}
			ports := make(xrep.Seq, len(created.Ports))
			for i, p := range created.Ports {
				ports[i] = p
			}
			reply(true, ports, "")
		}).
		When("ping", func(pr *Process, m *Message) {
			if !m.ReplyTo.IsZero() {
				_ = pr.Send(m.ReplyTo, "pong")
			}
		}).
		Loop(ctx.Proc, nil)
}

// Bootstrap creates a guardian at this node directly, acting as the node
// owner (it runs inside the primordial guardian). It is how the first
// application guardian gets onto a node; everything after that can use
// guardian-to-guardian creation or remote create requests.
//
// Note the asymmetry with remote creation: Bootstrap bypasses the
// allowCreate policy exactly because it is the owner's own action.
func (n *Node) Bootstrap(defName string, args ...any) (*Created, error) {
	n.mu.Lock()
	p := n.primordial
	n.mu.Unlock()
	if p == nil {
		return nil, ErrNodeDown
	}
	// Creation arguments: Create re-encodes, so pass through as-is.
	return p.Create(defName, args...)
}
