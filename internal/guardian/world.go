package guardian

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/vtime"
	"repro/internal/xrep"
)

// Config configures a World.
type Config struct {
	// Clock drives all timeouts and the network. Nil means the wall clock.
	Clock vtime.Clock
	// Net is the fault/delay model of the simulated network built when no
	// Transport is supplied.
	Net netsim.Config
	// Transport, when non-nil, carries the world's packets instead of a
	// simulator built from Net — e.g. a transport.UDP for nodes running
	// as separate OS processes, or a transport.Wrapper injecting faults
	// around one. The world takes ownership: Close shuts it down.
	Transport transport.Transport
	// Store, when non-nil, builds each node's stable storage — e.g.
	// durable.OpenWAL for a node that must survive process death, or a
	// durable.NewMem with a FaultConfig injecting storage faults. Nil (or
	// a factory returning a nil Store for some node) means a fresh
	// in-memory disk per node, as always. The world takes ownership:
	// Close closes every node's store. When the store reports
	// Persistent(), node startup replays the on-disk catalog, recovering
	// guardians created by a previous OS process.
	Store func(node string) (durable.Store, error)
	// Crash, when non-nil, builds each node's crash-window hook: the
	// replication and shard-handoff windows of the guardians a node hosts
	// fire it through Node.CrashPoint, and every send fires the
	// send-unsynced window (the storage windows are the Store's own).
	// Nil, or a nil hook for some node, means no hook.
	Crash func(node string) fault.Hook
	// Limits are the system-wide type invariants enforced at send time.
	// The zero value means DefaultLimits.
	Limits xrep.Limits
	// FragmentMTU is the maximum packet size handed to the network; larger
	// frames are split and reassembled. Zero means 16 KiB.
	FragmentMTU int
	// ReassemblyAge evicts partial messages older than this. Zero means
	// 30 s.
	ReassemblyAge time.Duration
	// Tuning holds the world-wide liveness knobs (heartbeat intervals,
	// retry backoff caps) that infrastructure guardians consult when
	// they are created without explicit values. Only tests set them; DST
	// and real deployments keep the defaults, which zero fields take.
	Tuning Tuning
}

// Tuning is the world-wide set of liveness knobs. Infrastructure that
// probes, retries or elects (watchdog, amo, replica) reads these instead
// of package constants, so a test can shrink every timescale at once
// from one place.
type Tuning struct {
	// HeartbeatInterval is the default probe/heartbeat period. Zero
	// means 100ms.
	HeartbeatInterval time.Duration
	// BackoffCap bounds grown retry backoffs when the caller sets none.
	// Zero means 32× the base backoff.
	BackoffCap time.Duration
}

// FailureThreshold is how many consecutive missed heartbeats declare a
// peer dead, for infrastructure created without a threshold of its own.
const FailureThreshold = 2

// defaultPortCapacity is the buffer space of ports created without an
// explicit capacity.
const defaultPortCapacity = 64

func (t Tuning) withDefaults() Tuning {
	if t.HeartbeatInterval <= 0 {
		t.HeartbeatInterval = 100 * time.Millisecond
	}
	return t
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = vtime.NewReal()
	}
	if c.Limits == (xrep.Limits{}) {
		c.Limits = xrep.DefaultLimits
	}
	if c.FragmentMTU == 0 {
		c.FragmentMTU = 16 * 1024
	}
	if c.ReassemblyAge == 0 {
		c.ReassemblyAge = 30 * time.Second
	}
	c.Tuning = c.Tuning.withDefaults()
	return c
}

// Stats counts runtime events across the world. The discard counters
// correspond one-to-one to the §3.4 reasons a message is thrown away.
type Stats struct {
	MessagesSent       atomic.Int64 // send commands that accepted a message
	MessagesDelivered  atomic.Int64 // messages enqueued at (or handed to) a port
	DiscardNoNode      atomic.Int64 // destination node dead or unknown (network drop)
	DiscardNoGuardian  atomic.Int64 // "the guardian doesn't exist"
	DiscardNoPort      atomic.Int64 // "the port doesn't exist"
	DiscardPortFull    atomic.Int64 // "no room for the message"
	DiscardBadType     atomic.Int64 // command/argument mismatch with the port type
	DiscardBadFrame    atomic.Int64 // checksum or format failure
	FailuresSent       atomic.Int64 // system failure(...) replies generated
	GuardiansCreated   atomic.Int64
	GuardiansRecovered atomic.Int64
}

// World is a complete distributed program: nodes, the network joining
// them, and the library of guardian definitions shared by every node (the
// analog of the CLU library that makes separate compile-time checking
// possible).
type World struct {
	cfg   Config
	clock vtime.Clock
	tr    transport.Transport
	sim   *netsim.Network // tr, when tr is the simulator

	mu    sync.Mutex
	nodes map[string]*Node
	defs  map[string]*GuardianDef

	tracer atomic.Pointer[tracerBox]
	stats  Stats
}

// World-level errors.
var (
	ErrNodeExists  = errors.New("guardian: node already exists")
	ErrNoSuchNode  = errors.New("guardian: no such node")
	ErrNoSuchDef   = errors.New("guardian: no such guardian definition")
	ErrNodeDown    = errors.New("guardian: node is down")
	ErrKilled      = errors.New("guardian: guardian destroyed")
	ErrNotResident = errors.New("guardian: creator must reside at the target node")
	ErrDefExists   = errors.New("guardian: definition already registered")
)

// NewWorld creates an empty world.
func NewWorld(cfg Config) *World {
	cfg = cfg.withDefaults()
	w := &World{
		cfg:   cfg,
		clock: cfg.Clock,
		nodes: make(map[string]*Node),
		defs:  make(map[string]*GuardianDef),
	}
	w.tr = cfg.Transport
	if w.tr == nil {
		w.tr = netsim.New(cfg.Clock, cfg.Net)
	}
	w.sim, _ = w.tr.(*netsim.Network)
	return w
}

// Clock returns the world's clock.
func (w *World) Clock() vtime.Clock { return w.clock }

// Net exposes the simulator network for fault injection in tests and
// experiments. It is nil when the world's transport is not the simulator
// itself (UDP, TCP, a wrapper); fault-inject those through a Wrapper.
func (w *World) Net() *netsim.Network { return w.sim }

// Transport returns the transport carrying the world's packets.
func (w *World) Transport() transport.Transport { return w.tr }

// Stats returns the world's runtime counters.
func (w *World) Stats() *Stats { return &w.stats }

// Limits returns the system-wide type invariants.
func (w *World) Limits() xrep.Limits { return w.cfg.Limits }

// Tuning returns the world's liveness knobs (defaults already applied).
func (w *World) Tuning() Tuning { return w.cfg.Tuning }

// Register adds a guardian definition to the world-wide library. All
// nodes create guardians from this shared library, mirroring separate
// compilation "in the context of a library containing descriptions of
// guardian headers".
func (w *World) Register(def *GuardianDef) error {
	if def.TypeName == "" {
		return errors.New("guardian: definition needs a type name")
	}
	if def.Init == nil {
		return fmt.Errorf("guardian: definition %s needs an Init", def.TypeName)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.defs[def.TypeName]; dup {
		return fmt.Errorf("%w: %s", ErrDefExists, def.TypeName)
	}
	w.defs[def.TypeName] = def
	return nil
}

// MustRegister is Register that panics on error, for static setup code.
func (w *World) MustRegister(def *GuardianDef) {
	if err := w.Register(def); err != nil {
		panic(err)
	}
}

func (w *World) lookupDef(name string) (*GuardianDef, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	def, ok := w.defs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchDef, name)
	}
	return def, nil
}

// AddNode brings up a new node with the given address. Each node comes
// into existence with a primordial guardian (§2.1).
func (w *World) AddNode(name string) (*Node, error) {
	w.mu.Lock()
	if _, dup := w.nodes[name]; dup {
		w.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNodeExists, name)
	}
	w.mu.Unlock()
	n, err := newNode(w, name)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	if _, dup := w.nodes[name]; dup {
		w.mu.Unlock()
		n.store.Close()
		return nil, fmt.Errorf("%w: %s", ErrNodeExists, name)
	}
	w.nodes[name] = n
	w.mu.Unlock()
	if err := n.start(); err != nil {
		w.mu.Lock()
		delete(w.nodes, name)
		w.mu.Unlock()
		n.store.Close()
		return nil, fmt.Errorf("guardian: starting node %s: %w", name, err)
	}
	return n, nil
}

// MustAddNode is AddNode that panics on error.
func (w *World) MustAddNode(name string) *Node {
	n, err := w.AddNode(name)
	if err != nil {
		panic(err)
	}
	return n
}

// Node returns the named node.
func (w *World) Node(name string) (*Node, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, ok := w.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchNode, name)
	}
	return n, nil
}

// Nodes returns all node names, sorted.
func (w *World) Nodes() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	names := make([]string, 0, len(w.nodes))
	for n := range w.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Quiesce waits for all in-flight network packets to land, where the
// transport can know that (the simulator can; a real network returns
// immediately). Tests call it before asserting on delivery counts.
func (w *World) Quiesce() { w.tr.Quiesce() }

// Close shuts the world down, modeling the death of the hosting process:
// the transport closes first (every node detaches, receive loops drain,
// further sends are discarded), then every guardian is killed, then each
// node's store closes — so nothing that matters can touch a closed log,
// and any straggling process that does is provably writing volatile
// state. Worlds on the default simulator and in-memory disks never need
// this; worlds on real sockets or on-disk WALs should Close to release
// them.
func (w *World) Close() error {
	err := w.tr.Close()
	w.mu.Lock()
	nodes := make([]*Node, 0, len(w.nodes))
	for _, n := range w.nodes {
		nodes = append(nodes, n)
	}
	w.mu.Unlock()
	for _, n := range nodes {
		n.mu.Lock()
		n.alive = false
		gs := make([]*Guardian, 0, len(n.guardians))
		for _, g := range n.guardians {
			gs = append(gs, g)
		}
		n.guardians = make(map[uint64]*Guardian)
		n.primordial = nil
		n.mu.Unlock()
		for _, g := range gs {
			g.kill()
		}
	}
	for _, n := range nodes {
		if cerr := n.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
