package guardian

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/xrep"
)

// GuardianDef is a guardian definition — the analog of the paper's
// `guardian_def` form. Definitions are registered in the world-wide
// library; instances are created from them at particular nodes.
type GuardianDef struct {
	// TypeName names the definition in the library.
	TypeName string
	// Provides lists the port types an instance provides at creation; the
	// names of the created ports are made known to the creating process
	// (§3.2).
	Provides []*PortType
	// PortCapacity overrides the world default buffer space for the
	// provided ports. Zero means the world default.
	PortCapacity int
	// Init is the sequential program run (in a fresh process) when an
	// instance is created.
	Init func(ctx *Ctx)
	// Recover, when non-nil, is the recovery process started after a node
	// crash to interpret the guardian's recovery data (§2.2). Guardians
	// with nil Recover are forgotten by a crash.
	Recover func(ctx *Ctx)
}

// Ctx is handed to a guardian's Init or Recover process.
type Ctx struct {
	// G is the new guardian.
	G *Guardian
	// Proc is the initial process.
	Proc *Process
	// Ports are the provided ports, in Provides order.
	Ports []*Port
	// Args are the creation arguments.
	Args xrep.Seq
	// Recovering is true when this is the recovery process after a crash.
	Recovering bool
}

// Guardian is the paper's modular unit: it owns objects (State), ports,
// and processes, and is the abstract analog of a physical node. A guardian
// lives at exactly one node for its entire lifetime.
type Guardian struct {
	id    uint64
	def   *GuardianDef
	node  *Node
	epoch uint64
	// logName, when non-empty, overrides the log Log() opens — set by
	// Node.Takeover so a replica's new primary resumes the old primary's
	// shipped log instead of an empty one named by its fresh id.
	logName string
	// log holds the durable.Log that Log() opened, once it has: the
	// send-unsynced window reads it and never opens one itself.
	log atomic.Value

	killOnce sync.Once
	killCh   chan struct{}

	mu          sync.Mutex
	ports       map[uint64]*Port
	providedIDs []uint64
	nextPortID  uint64
	nextProcID  uint64
	destroyed   bool

	// state holds the guardian's objects; see SetState/State. Only this
	// guardian's processes may touch the contents (they coordinate via
	// csync); the runtime never lets a state address leave the guardian —
	// messages carry values and tokens only.
	state any

	procs sync.WaitGroup
}

// ID returns the guardian's node-unique id.
func (g *Guardian) ID() uint64 { return g.id }

// SetState installs the guardian's objects, normally once from Init or
// Recover. The pointer itself is synchronized so owner-side inspectors at
// the same node can read it safely; the pointed-to objects remain the
// guardian's own business.
func (g *Guardian) SetState(v any) {
	g.mu.Lock()
	g.state = v
	g.mu.Unlock()
}

// State returns the guardian's objects as installed by SetState.
func (g *Guardian) State() any {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.state
}

// Node returns the node the guardian lives at.
func (g *Guardian) Node() *Node { return g.node }

// DefName returns the name of the guardian's definition.
func (g *Guardian) DefName() string {
	if g.def == nil {
		return ""
	}
	return g.def.TypeName
}

// Killed returns a channel closed when the guardian dies (node crash or
// self-destruct). Long-running processes select on it.
func (g *Guardian) Killed() <-chan struct{} { return g.killCh }

// Alive reports whether the guardian is still running.
func (g *Guardian) Alive() bool {
	select {
	case <-g.killCh:
		return false
	default:
		return true
	}
}

// kill tears the guardian down: processes are signalled, ports closed.
func (g *Guardian) kill() {
	g.killOnce.Do(func() { close(g.killCh) })
	g.mu.Lock()
	ports := make([]*Port, 0, len(g.ports))
	for _, p := range g.ports {
		ports = append(ports, p)
	}
	g.destroyed = true
	g.mu.Unlock()
	for _, p := range ports {
		p.close()
	}
}

// SelfDestruct removes the guardian from its node permanently: its
// processes are killed, its ports closed, and its catalog record deleted
// (it will not be recovered after a crash).
func (g *Guardian) SelfDestruct() {
	g.node.mu.Lock()
	delete(g.node.guardians, g.id)
	delete(g.node.meta, g.id)
	g.node.mu.Unlock()
	if g.node.store.Persistent() {
		g.node.catalogDestroy(g.id)
	}
	g.kill()
}

// ProvidedPorts returns the ports created from the definition's Provides
// list, in declaration order.
func (g *Guardian) ProvidedPorts() []*Port {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Port, 0, len(g.providedIDs))
	for _, id := range g.providedIDs {
		if p, ok := g.ports[id]; ok {
			out = append(out, p)
		}
	}
	return out
}

// NewPort creates an additional port on the guardian (beyond those
// provided at creation), e.g. a private reply port for one transaction.
// capacity zero means the guardian/world default.
func (g *Guardian) NewPort(pt *PortType, capacity int) (*Port, error) {
	if capacity == 0 {
		capacity = g.def.PortCapacity
	}
	if capacity == 0 {
		capacity = defaultPortCapacity
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.destroyed {
		return nil, ErrKilled
	}
	g.nextPortID++
	pid := g.nextPortID
	p := &Port{
		name:     xrep.PortName{Node: g.node.name, Guardian: g.id, Port: pid},
		ptype:    pt,
		guardian: g,
		capacity: capacity,
	}
	g.ports[pid] = p
	return p, nil
}

// MustNewPort is NewPort that panics on error.
func (g *Guardian) MustNewPort(pt *PortType, capacity int) *Port {
	p, err := g.NewPort(pt, capacity)
	if err != nil {
		panic(err)
	}
	return p
}

// RemovePort deletes a port; later messages to its name are discarded
// with "target port doesn't exist" failures.
func (g *Guardian) RemovePort(p *Port) {
	g.mu.Lock()
	delete(g.ports, p.name.Port)
	g.mu.Unlock()
	p.close()
}

// Spawn starts a new process (goroutine) in the guardian. Processes
// share the guardian's objects and communicate with other guardians only
// via ports.
func (g *Guardian) Spawn(name string, fn func(p *Process)) *Process {
	g.mu.Lock()
	g.nextProcID++
	id := g.nextProcID
	g.mu.Unlock()
	pr := &Process{g: g, name: fmt.Sprintf("%s/%d", name, id)}
	g.procs.Add(1)
	go func() {
		defer g.procs.Done()
		fn(pr)
	}()
	return pr
}

// Create creates a new guardian at this guardian's node — the only node
// where it can create one (§2.1: a guardian "must have been created by (a
// process in) a guardian at that node"). It returns the created guardian's
// provided port names.
func (g *Guardian) Create(defName string, args ...any) (*Created, error) {
	if !g.Alive() {
		return nil, ErrKilled
	}
	def, err := g.node.world.lookupDef(defName)
	if err != nil {
		return nil, err
	}
	enc, err := xrep.EncodeAll(args...)
	if err != nil {
		return nil, err
	}
	if err := g.node.world.cfg.Limits.ValidateSeq(enc); err != nil {
		return nil, err
	}
	ng, err := g.node.instantiate(def, enc, nil, false)
	if err != nil {
		return nil, err
	}
	created := &Created{GuardianID: ng.id}
	ng.mu.Lock()
	for _, pid := range g.node.metaPortIDs(ng.id) {
		created.Ports = append(created.Ports, ng.ports[pid].name)
	}
	ng.mu.Unlock()
	return created, nil
}

// Created reports the result of guardian creation.
type Created struct {
	GuardianID uint64
	// Ports holds the provided ports' global names, in Provides order.
	Ports []xrep.PortName
}

// metaPortIDs returns the provided-port ids recorded for guardian id.
func (n *Node) metaPortIDs(id uint64) []uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m, ok := n.meta[id]; ok {
		return m.portIDs
	}
	return nil
}

// Log returns the guardian's named log on its node's stable storage — the
// place it records recovery data for permanence of effect. On the default
// simulated backend opening cannot fail; on a real backend a failure to
// open (corrupt storage) is fail-stop, because a guardian running without
// its recovery data would silently forget acknowledged effects.
func (g *Guardian) Log() durable.Log {
	name := g.logName
	if name == "" {
		name = guardianLogName(g.def.TypeName, g.id)
	}
	l, err := g.node.store.OpenLog(name)
	if err != nil {
		if !g.Alive() {
			// A straggling process of a killed guardian raced a store
			// shutdown. Its writes were volatile the moment the guardian
			// died, so an inert log that discards them is the correct —
			// and deliberately NOT fail-stop — answer.
			return durable.Null()
		}
		panic(fmt.Errorf("guardian: opening log %q for %s/%d: %w", name, g.def.TypeName, g.id, err))
	}
	if g.log.Load() == nil {
		g.log.Store(l)
	}
	return l
}

// sendUnsynced fires the send-unsynced crash window after a message has
// left, if the guardian's log holds records no Sync has forced yet: a
// crash here loses effects the message may have acknowledged. A crash
// before the message leaves loses nothing acknowledged, so the window is
// after it.
func (g *Guardian) sendUnsynced() {
	if l, _ := g.log.Load().(durable.Log); l != nil && l.VolatileLen() > 0 {
		g.node.crash.At(fault.SendUnsynced, g.LogName())
	}
}

// LogName returns the name of the log Log() opens.
func (g *Guardian) LogName() string {
	if g.logName != "" {
		return g.logName
	}
	return guardianLogName(g.def.TypeName, g.id)
}

// guardianLogName names a guardian's log in its node's store.
func guardianLogName(defName string, id uint64) string {
	return fmt.Sprintf("%s-%d", defName, id)
}

// --- Tokens: sealed capabilities (§2.1) ---

// ErrBadToken is returned when unsealing a token this guardian did not
// issue (or whose seal fails verification).
var ErrBadToken = errors.New("guardian: token not sealed by this guardian")

// secret derives the guardian's sealing key. It is deterministic in the
// guardian's identity so that tokens issued before a crash still unseal
// after recovery; a production system would keep a random key in stable
// storage, with identical observable behavior.
func (g *Guardian) secret() []byte {
	h := sha256.New()
	fmt.Fprintf(h, "guardian-seal|%s|%d", g.node.name, g.id)
	return h.Sum(nil)
}

// Seal wraps body in a token only this guardian can unseal. The token is
// an external name for an object; holding it gives no access — it must be
// sent back to the issuing guardian, which alone interprets it. The system
// makes no guarantee that the named object continues to exist.
func (g *Guardian) Seal(body []byte) xrep.Token {
	mac := hmac.New(sha256.New, g.secret())
	mac.Write(body)
	b := make([]byte, len(body))
	copy(b, body)
	return xrep.Token{Issuer: g.id, Body: b, Seal: mac.Sum(nil)}
}

// Unseal verifies and opens a token issued by this guardian.
func (g *Guardian) Unseal(t xrep.Token) ([]byte, error) {
	if t.Issuer != g.id {
		return nil, ErrBadToken
	}
	mac := hmac.New(sha256.New, g.secret())
	mac.Write(t.Body)
	if !hmac.Equal(mac.Sum(nil), t.Seal) {
		return nil, ErrBadToken
	}
	out := make([]byte, len(t.Body))
	copy(out, t.Body)
	return out, nil
}
