package guardian

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// Node is a physical node of the underlying distributed system: one or
// more processors (goroutines), memory (guardian state), a crash-surviving
// disk, and a network attachment. Guardians exist entirely at a single
// node for their whole lifetime (§2.1).
type Node struct {
	world *World
	name  string
	store durable.Store
	reg   *xrep.Registry
	crash fault.Hook

	pktBase uint64 // offsets packet ids, so a restarted process's are new to its peers

	// msgIDs numbers frames per destination node, so each receiver sees
	// this node's ids consecutive and remembers them as one run
	// (wire.Reassembler).
	idMu   sync.Mutex
	msgIDs map[string]*uint64

	mu        sync.Mutex
	alive     bool
	epoch     uint64
	guardians map[uint64]*Guardian
	nextGID   uint64
	// meta is the node's system catalog: enough information to re-create
	// recoverable guardians after a crash. It models catalog records kept
	// in stable storage, so it survives Crash.
	meta       map[uint64]*guardianMeta
	primordial *Guardian

	// allowCreate is the node's autonomy policy (§1.1): the owner decides
	// which remote principals may create which guardians here. Nil allows
	// everything.
	allowCreate func(srcNode string, srcGuardian uint64, defName string) bool

	reasm *wire.Reassembler
}

// guardianMeta is the catalog record for one guardian.
type guardianMeta struct {
	id      uint64
	defName string
	args    xrep.Seq
	portIDs []uint64
	// logName, when non-empty, overrides the guardian's log name. A
	// guardian taking over a replicated peer's state opens the log the
	// old primary wrote (shipped here record by record) instead of the
	// "<type>-<id>" log its own fresh id would name.
	logName string
}

func newNode(w *World, name string) (*Node, error) {
	var store durable.Store
	if w.cfg.Store != nil {
		s, err := w.cfg.Store(name)
		if err != nil {
			return nil, fmt.Errorf("guardian: opening storage for node %s: %w", name, err)
		}
		store = s
	}
	if store == nil {
		store = durable.NewMem(w.clock, durable.MemConfig{})
	}
	var crash fault.Hook
	if w.cfg.Crash != nil {
		crash = w.cfg.Crash(name)
	}
	reasm := wire.NewReassembler()
	reasm.MaxAge = w.cfg.ReassemblyAge
	return &Node{
		world:     w,
		name:      name,
		store:     store,
		reg:       xrep.NewRegistry(),
		crash:     crash,
		guardians: make(map[uint64]*Guardian),
		meta:      make(map[uint64]*guardianMeta),
		reasm:     reasm,
		pktBase:   uint64(w.clock.Now().UnixNano()),
		msgIDs:    make(map[string]*uint64),
	}, nil
}

// Name returns the node's network address.
func (n *Node) Name() string { return n.name }

// World returns the world this node belongs to.
func (n *Node) World() *World { return n.world }

// Store returns the node's crash-surviving storage backend.
func (n *Node) Store() durable.Store { return n.store }

// CrashPoint tells the node's crash hook (Config.Crash) that a guardian
// here reached the crash window point about subject; with no hook it does
// nothing.
func (n *Node) CrashPoint(point, subject string) { n.crash.At(point, subject) }

// Registry returns the node's decode registry for abstract types. Nodes
// may register different representations of the same type (§3.3).
func (n *Node) Registry() *xrep.Registry { return n.reg }

// Alive reports whether the node is up.
func (n *Node) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// SetCreatePolicy installs the autonomy policy consulted when a remote
// create request arrives at the primordial guardian.
func (n *Node) SetCreatePolicy(f func(srcNode string, srcGuardian uint64, defName string) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.allowCreate = f
}

// start brings the node up for the first time in this process. Attaching
// can fail on a real transport (e.g. the configured UDP port is taken), in
// which case the node never comes up. On a persistent store "first time"
// is relative to the process only: the catalog on disk is replayed so
// guardians created by a previous incarnation recover — the cross-process
// analog of Restart.
func (n *Node) start() error {
	n.mu.Lock()
	n.alive = true
	n.epoch++
	n.mu.Unlock()
	if err := n.world.tr.Attach(transport.Addr(n.name), n.handlePacket); err != nil {
		n.mu.Lock()
		n.alive = false
		n.mu.Unlock()
		return err
	}
	n.spawnPrimordial()
	if n.store.Persistent() {
		if err := n.recoverCatalog(); err != nil {
			n.Crash()
			return fmt.Errorf("guardian: recovering node %s from its catalog: %w", n.name, err)
		}
	}
	return nil
}

// Crash simulates a node failure: every guardian's processes are killed,
// all volatile state (port queues, guardian objects) is lost, and the node
// detaches from the transport — on the simulator its traffic is discarded
// at delivery; on UDP its socket closes and the kernel discards instead.
// The disk survives.
func (n *Node) Crash() {
	n.world.tr.Detach(transport.Addr(n.name))
	n.mu.Lock()
	if !n.alive {
		n.mu.Unlock()
		return
	}
	n.alive = false
	n.world.trace(EvCrash, n.name, "node crashed (%d guardians lost)", len(n.guardians))
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
	n.store.Crash()
}

// Restart brings a crashed node back up. The primordial guardian is
// re-created, and every guardian whose definition provides a Recover
// process is re-created with its original identity and port names; its
// Recover process then interprets the guardian's recovery data (§2.2).
// Guardians without Recover are forgotten, like the paper's transaction
// processes (§3.5).
func (n *Node) Restart() error {
	n.mu.Lock()
	if n.alive {
		n.mu.Unlock()
		return fmt.Errorf("guardian: node %s is already up", n.name)
	}
	n.alive = true
	n.epoch++
	metas := make([]*guardianMeta, 0, len(n.meta))
	for _, m := range n.meta {
		metas = append(metas, m)
	}
	n.mu.Unlock()

	if err := n.world.tr.Attach(transport.Addr(n.name), n.handlePacket); err != nil {
		n.mu.Lock()
		n.alive = false
		n.mu.Unlock()
		return fmt.Errorf("guardian: reattaching node %s: %w", n.name, err)
	}
	n.spawnPrimordial()
	n.world.trace(EvRestart, n.name, "node restarted")
	if err := n.recoverGuardians(metas, false); err != nil {
		return fmt.Errorf("guardian: %w", err)
	}
	return nil
}

// recoverGuardians re-creates the recoverable guardians among metas with
// their original identities and port names, in ascending id — creation
// order — so two runs of one seed recover alike. A guardian whose
// definition has vanished from the library or provides no Recover process
// is forgotten, like the paper's transaction processes (§3.5). Recovering
// from the on-disk catalog, each guardian's own log must open cleanly
// before its Recover process runs: interior corruption there means its
// recovery data cannot be trusted, and the node refuses to start rather
// than resurrect a guardian with silently missing effects.
func (n *Node) recoverGuardians(metas []*guardianMeta, fromCatalog bool) error {
	sort.Slice(metas, func(i, j int) bool { return metas[i].id < metas[j].id })
	for _, m := range metas {
		def, err := n.world.lookupDef(m.defName)
		if err != nil || def.Recover == nil {
			n.mu.Lock()
			delete(n.meta, m.id)
			n.mu.Unlock()
			continue
		}
		via := ""
		if fromCatalog {
			logName := m.logName
			if logName == "" {
				logName = guardianLogName(m.defName, m.id)
			}
			if _, err := n.store.OpenLog(logName); err != nil {
				return fmt.Errorf("opening log of %s/%d: %w", m.defName, m.id, err)
			}
			via = " from the catalog"
		}
		n.mu.Lock()
		n.meta[m.id] = m
		n.mu.Unlock()
		if _, err := n.instantiate(def, m.args, m, true); err != nil {
			return fmt.Errorf("recovering %s/%d: %w", m.defName, m.id, err)
		}
		n.world.stats.GuardiansRecovered.Add(1)
		n.world.trace(EvRecover, n.name, "recovered %s (guardian %d)%s", m.defName, m.id, via)
	}
	return nil
}

// Guardians returns the ids of the guardians currently running at the
// node, in no particular order.
func (n *Node) Guardians() []uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]uint64, 0, len(n.guardians))
	for id := range n.guardians {
		out = append(out, id)
	}
	return out
}

// guardianByID returns the running guardian with the given id.
func (n *Node) guardianByID(id uint64) (*Guardian, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	g, ok := n.guardians[id]
	return g, ok
}

// GuardianByID returns the running guardian with the given id. It is an
// owner-side facility: only software already resident at the node can
// reach it, so it does not breach the guardians' isolation from remote
// parties.
func (n *Node) GuardianByID(id uint64) (*Guardian, bool) {
	return n.guardianByID(id)
}

// instantiate creates (or on recovery, re-creates) a guardian from def.
// meta is nil for fresh creation.
func (n *Node) instantiate(def *GuardianDef, args xrep.Seq, meta *guardianMeta, recovering bool) (*Guardian, error) {
	n.mu.Lock()
	if !n.alive {
		n.mu.Unlock()
		return nil, ErrNodeDown
	}
	var id uint64
	if meta != nil {
		id = meta.id
	} else {
		n.nextGID++
		id = n.nextGID
	}
	g := &Guardian{
		id:     id,
		def:    def,
		node:   n,
		epoch:  n.epoch,
		killCh: make(chan struct{}),
		ports:  make(map[uint64]*Port),
	}
	if meta != nil {
		g.logName = meta.logName
	}
	capacity := def.PortCapacity
	if capacity == 0 {
		capacity = defaultPortCapacity
	}
	ports := make([]*Port, len(def.Provides))
	var portIDs []uint64
	for i, pt := range def.Provides {
		var pid uint64
		if meta != nil {
			pid = meta.portIDs[i]
			if pid >= g.nextPortID {
				g.nextPortID = pid
			}
		} else {
			g.nextPortID++
			pid = g.nextPortID
		}
		p := &Port{
			name:     xrep.PortName{Node: n.name, Guardian: id, Port: pid},
			ptype:    pt,
			guardian: g,
			capacity: capacity,
		}
		g.ports[pid] = p
		ports[i] = p
		portIDs = append(portIDs, pid)
	}
	g.providedIDs = portIDs
	n.guardians[id] = g
	fresh := meta == nil
	if fresh {
		meta = &guardianMeta{id: id, defName: def.TypeName, args: args, portIDs: portIDs}
		n.meta[id] = meta
	}
	n.mu.Unlock()

	// Creation must reach stable storage before the guardian's Init runs:
	// if the guardian took effect (sent messages, acknowledged calls) and
	// the process then died with the catalog record still volatile,
	// recovery would have no idea the guardian ever existed.
	if fresh && n.store.Persistent() {
		n.catalogCreate(meta)
	}

	n.world.stats.GuardiansCreated.Add(1)
	if !recovering {
		n.world.trace(EvCreate, n.name, "created %s (guardian %d)", def.TypeName, id)
	}
	ctx := &Ctx{G: g, Ports: ports, Args: args, Recovering: recovering}
	entry := def.Init
	procName := "main"
	if recovering {
		entry = def.Recover
		procName = "recover"
	}
	g.Spawn(procName, func(p *Process) {
		ctx.Proc = p
		entry(ctx)
	})
	return g, nil
}

// Takeover re-creates a replicated guardian from a peer's shipped log: a
// fresh guardian of defName is created under a NEW identity (ids are
// never reused, and the old primary's id belongs to its node), but its
// recovery log is logName — the log the old primary wrote, replicated
// into this node's store record by record. The definition's Recover
// process runs exactly as after a crash, so the guardian resumes from
// the last state the replication stream confirmed. Like Bootstrap it is
// an owner-side action and bypasses the create policy.
func (n *Node) Takeover(defName, logName string, args ...any) (*Created, error) {
	def, err := n.world.lookupDef(defName)
	if err != nil {
		return nil, err
	}
	if def.Recover == nil {
		return nil, fmt.Errorf("guardian: takeover of %s: definition has no Recover process", defName)
	}
	enc, err := xrep.EncodeAll(args...)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if !n.alive {
		n.mu.Unlock()
		return nil, ErrNodeDown
	}
	n.nextGID++
	id := n.nextGID
	portIDs := make([]uint64, len(def.Provides))
	for i := range portIDs {
		portIDs[i] = uint64(i + 1)
	}
	m := &guardianMeta{id: id, defName: defName, args: enc, portIDs: portIDs, logName: logName}
	n.meta[id] = m
	n.mu.Unlock()
	if n.store.Persistent() {
		n.catalogCreate(m)
	}
	g, err := n.instantiate(def, enc, m, true)
	if err != nil {
		return nil, err
	}
	created := &Created{GuardianID: g.id}
	g.mu.Lock()
	for _, pid := range portIDs {
		created.Ports = append(created.Ports, g.ports[pid].name)
	}
	g.mu.Unlock()
	n.world.trace(EvRecover, n.name, "takeover: %s (guardian %d) resumes log %q", defName, id, logName)
	return created, nil
}

// handlePacket is the node's network attachment: reassemble, verify,
// dispatch. Runs on the transport's delivery (or socket receive-loop)
// goroutines. from is the transport-level source — the logical node name
// on the simulator, an observed "ip:port" on UDP — used only to key
// fragment reassembly; everything else comes from the frame. The payload
// is lent until the handler returns (transport.Handler): the reassembler
// copies a fragment it must wait with, and the frame is decoded — every
// value copied out — before the packet goes back.
func (n *Node) handlePacket(from transport.Addr, payload []byte) {
	if !n.Alive() {
		return
	}
	segs, err := n.reasm.Collect(string(from), payload, n.world.clock.Now())
	if err != nil {
		n.world.stats.DiscardBadFrame.Add(1)
		return
	}
	if segs.IsZero() {
		return // waiting for more fragments
	}
	var f wire.Frame
	m, err := decode(&f, segs)
	n.reasm.Release(segs)
	if err != nil {
		n.world.stats.DiscardBadFrame.Add(1)
		return
	}
	// A verified frame names its sender; teach the transport where that
	// name was observed so replies route without static configuration.
	n.world.tr.Learn(transport.Addr(f.SrcNode), from)
	n.dispatchFrame(&f, m)
}

// decode verifies a frame and decodes it into f, which lives only until
// dispatchFrame has filled in the Message decode returns. Between the
// decoder's two passes it allocates that Message together with the
// frame's sequence slots (withSlots).
func decode(f *wire.Frame, segs wire.Segments) (*Message, error) {
	var r wire.FrameReader
	k, err := r.Size(segs)
	if err != nil {
		return nil, err
	}
	m, slots := withSlots(k)
	r.Fill(f, slots)
	return m, nil
}

// inline is a Message followed by its frame's sequence slots, S being
// [k]xrep.Value.
type inline[S any] struct {
	m Message
	s S
}

// withSlots returns a Message and k sequence slots for one delivery. Up to
// 8 slots they are one allocation: a Message is 104 bytes and a slot 16,
// and size classes step by 16 bytes up to 256, so each exact fit lands in
// the size class of the two objects it replaces and adds no byte. A frame
// of more slots keeps a slab of its own.
func withSlots(k int) (*Message, []xrep.Value) {
	switch k {
	case 0:
		return new(Message), nil
	case 1:
		d := new(inline[[1]xrep.Value])
		return &d.m, d.s[:]
	case 2:
		d := new(inline[[2]xrep.Value])
		return &d.m, d.s[:]
	case 3:
		d := new(inline[[3]xrep.Value])
		return &d.m, d.s[:]
	case 4:
		d := new(inline[[4]xrep.Value])
		return &d.m, d.s[:]
	case 5:
		d := new(inline[[5]xrep.Value])
		return &d.m, d.s[:]
	case 6:
		d := new(inline[[6]xrep.Value])
		return &d.m, d.s[:]
	case 7:
		d := new(inline[[7]xrep.Value])
		return &d.m, d.s[:]
	case 8:
		d := new(inline[[8]xrep.Value])
		return &d.m, d.s[:]
	}
	return new(Message), make([]xrep.Value, k)
}

// dispatchFrame routes a complete, verified frame to its target port as
// m, producing the §3.4 failure replies when the message must be thrown
// away.
func (n *Node) dispatchFrame(f *wire.Frame, m *Message) {
	st := &n.world.stats
	g, ok := n.guardianByID(f.Dest.Guardian)
	if !ok {
		st.DiscardNoGuardian.Add(1)
		n.world.trace(EvDiscard, n.name, "%s(..) from %s: no guardian %d", f.Command, f.SrcNode, f.Dest.Guardian)
		n.failureReply(f, "target guardian doesn't exist")
		return
	}
	g.mu.Lock()
	p, ok := g.ports[f.Dest.Port]
	g.mu.Unlock()
	if !ok {
		st.DiscardNoPort.Add(1)
		n.world.trace(EvDiscard, n.name, "%s(..) from %s: no port %d on guardian %d", f.Command, f.SrcNode, f.Dest.Port, f.Dest.Guardian)
		n.failureReply(f, "target port doesn't exist")
		return
	}
	if err := p.ptype.check(f.Command, f.Args); err != nil {
		st.DiscardBadType.Add(1)
		n.world.trace(EvDiscard, n.name, "%s(..) from %s: type mismatch", f.Command, f.SrcNode)
		n.failureReply(f, "message rejected: "+err.Error())
		return
	}
	*m = Message{
		Command:     f.Command,
		Args:        f.Args,
		ReplyTo:     f.ReplyTo,
		SrcNode:     f.SrcNode,
		SrcGuardian: f.SrcGuardian,
		Via:         p,
	}
	if !p.deliver(m) {
		st.DiscardPortFull.Add(1)
		n.world.trace(EvDiscard, n.name, "%s(..) from %s: port %d full", f.Command, f.SrcNode, f.Dest.Port)
		n.failureReply(f, "no room for message at target port")
		return
	}
	st.MessagesDelivered.Add(1)
	n.world.traceDeliver(n.name, f)
}

// failureReply sends the system failure message to a discarded message's
// replyto port, if it had one. Failure messages themselves never generate
// further failures, so no loops arise.
func (n *Node) failureReply(f *wire.Frame, text string) {
	if f.ReplyTo.IsZero() || f.Command == FailureCommand {
		return
	}
	n.world.stats.FailuresSent.Add(1)
	n.world.trace(EvFailure, n.name, "failure(%q) to %s", text, f.ReplyTo.Node)
	reply := &wire.Frame{
		Dest:        f.ReplyTo,
		SrcNode:     n.name,
		SrcGuardian: 0, // the system
		MsgID:       n.nextMsgID(f.ReplyTo.Node),
		Command:     FailureCommand,
	}
	n.routeFrame(reply, func(dst []byte) ([]byte, error) {
		return wire.AppendStr(wire.AppendSeqHeader(dst, 1), text), nil
	})
}

// nextMsgID returns the next frame id toward node dest.
func (n *Node) nextMsgID(dest string) uint64 {
	n.idMu.Lock()
	defer n.idMu.Unlock()
	id := n.msgIDs[dest]
	if id == nil {
		id = new(uint64)
		n.msgIDs[strings.Clone(dest)] = id // the name may be a message's, which the key would pin
	}
	*id++
	return *id
}

// sendBuf is the scratch a send builds its frame and packets in.
type sendBuf struct{ frame, pkt []byte }

// sendBufs recycles them across sends. A packet may be overwritten the
// moment Send returns because every Transport copies or consumes the
// payload before then (transport.Transport.Send).
var sendBufs = sync.Pool{New: func() any { return new(sendBuf) }}

// routeFrame marshals, fragments and transmits a frame, its arguments
// written by args, toward its destination node. Local destinations bypass
// the network but keep the marshal/unmarshal round trip, preserving
// value-copy semantics while making intra-node communication cheap (§2.1).
func (n *Node) routeFrame(f *wire.Frame, args func(dst []byte) ([]byte, error)) error {
	sb := sendBufs.Get().(*sendBuf)
	defer sendBufs.Put(sb)
	frame, err := wire.AppendFrameWith(sb.frame[:0], f, args)
	if err != nil {
		return err
	}
	sb.frame = frame
	if f.Dest.Node == n.name {
		// Dispatched here, on the sender's goroutine, in send order: that
		// never blocks (Port.deliver does not), and a failure reply it
		// provokes is at most one more local dispatch — failures beget none.
		if !n.Alive() {
			return ErrNodeDown
		}
		var local wire.Frame
		m, err := decode(&local, wire.Contiguous(frame))
		if err != nil {
			n.world.stats.DiscardBadFrame.Add(1)
			return nil
		}
		n.dispatchFrame(&local, m)
		return nil
	}
	chunk, count, err := wire.Packets(len(frame), n.world.cfg.FragmentMTU)
	if err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		sb.pkt = wire.AppendPacket(sb.pkt[:0], n.pktBase+f.MsgID, i, count, frame[i*chunk:min((i+1)*chunk, len(frame))])
		// Best-effort: transport errors below MTU level mean the node is
		// detached; the message is simply lost, as the paper allows.
		if err := n.world.tr.Send(transport.Addr(n.name), transport.Addr(f.Dest.Node), sb.pkt); err != nil {
			return nil
		}
	}
	return nil
}
