// Command node boots one guardian-model node as its own OS process, joined
// to its peers by a real network — UDP datagrams by default, or framed
// persistent TCP connections with -transport tcp — the deployment shape
// the paper assumes (one node, one machine) instead of the in-process
// simulator the tests use. A node either hosts an application guardian
// (server mode) or drives at-most-once calls against one (client mode,
// -call).
//
// Two-terminal bank demo:
//
//	terminal 1:
//	  node -name branch -listen 127.0.0.1:9101 -host bank
//	terminal 2:
//	  node -name teller -peers branch=127.0.0.1:9101 \
//	       -call branch/2/2 \
//	       -op 'open alice' -op 'open bob' \
//	       -op 'deposit alice 1000' -op 'transfer alice bob 250' \
//	       -op 'balance alice' -op 'balance bob'
//
// The server prints its bound address and the global names of the hosted
// guardian's ports ("port <type> <node/guardian/port>"); the -call value
// is the amo port name printed in terminal 1. The -loss/-dup flags
// wrap the socket in the same fault model the simulator uses, so the §3.5
// at-most-once machinery can be watched surviving real packet abuse. With
// -transport tcp the stream fault flags -reset/-stall inject connection
// resets and half-open write stalls instead (loss and duplication are
// datagram faults; a stream would just repair them), and a TCP node prints
// its per-peer connection counters on shutdown.
//
// Beyond the two-terminal demo: -data makes the hosted guardian durable
// (WAL + recovery, DESIGN.md §11), -group replicates it across member
// processes with automatic failover (§12), and -shard makes it one member
// of a consistent-hash ring (§14) — bootstrapped, joined, and driven by
// the ring client mode (-ring, with -ringboot/-ringjoin/-ringleave, ops
// routed by account through an epoch-aware router, cross-shard transfers
// via a -host txncoord process). -crash POINT:N exits at exact durability,
// replication, or handoff windows for the crash-matrix tests. The README
// has a full multi-terminal walkthrough of each mode.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/airline"
	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/guardian"
	"repro/internal/metrics"
	"repro/internal/nameserv"
	"repro/internal/replica"
	"repro/internal/ring"
	"repro/internal/sendprim"
	"repro/internal/tpc"
	"repro/internal/transport"
	"repro/internal/xrep"
)

type options struct {
	name   string
	listen string
	peers  map[transport.Addr]string
	host   string

	// transport shape
	trans string
	mtu   int

	// injected faults (both directions are outbound somewhere: run both
	// processes with the same flags to fault the full round trip)
	loss, dup    float64
	reset, stall float64
	stalltime    time.Duration
	seed         int64

	// durable storage
	data    string
	cpevery int
	crash   *crashSpec

	// replica group (server mode)
	group      string
	members    string
	memberList []string
	mode       string
	hb         time.Duration
	threshold  int
	service    string
	ns         string

	// consistent-hash ring: shard names the member a hosted bank branch
	// serves as; the ring* flags select the ring client mode.
	shard     string
	ringName  string
	ringBoot  string
	ringJoin  string
	ringLeave string
	coord     string

	// client mode
	call    string
	resolve string
	ops     []string
	timeout time.Duration
	retries int
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{peers: make(map[transport.Addr]string)}
	fs := flag.NewFlagSet("node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.name, "name", "", "this node's name (required)")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:0", "address to bind (UDP socket or TCP listener)")
	peers := fs.String("peers", "", "comma-separated name=host:port routing entries")
	fs.StringVar(&o.host, "host", "", "guardian to host: bank, airline or nameserv (server mode)")
	fs.StringVar(&o.trans, "transport", "udp", "network transport: udp (datagrams) or tcp (framed persistent connections)")
	fs.IntVar(&o.mtu, "mtu", 0, "maximum datagram size, or with -transport tcp the maximum frame size (0 = transport default)")
	fs.StringVar(&o.data, "data", "", "directory for on-disk WAL storage (empty = volatile in-memory disk)")
	fs.IntVar(&o.cpevery, "cpevery", 0, "bank: checkpoint every N mutations (0 = never)")
	crash := fs.String("crash", "", "crash injection: POINT:N exits the process at the Nth firing of "+
		"a WAL crash point (before-sync, after-sync, mid-checkpoint; needs -data) or a replication "+
		"window (before-ship, after-ship, after-quorum; needs -group)")
	fs.StringVar(&o.group, "group", "", "replica group name: wrap this node's store for primary/backup "+
		"replication (needs -host, -data and -members)")
	fs.StringVar(&o.members, "members", "", "comma-separated member node names; the first is the initial primary")
	fs.StringVar(&o.mode, "mode", "quorum", "replication ack discipline: quorum or async")
	fs.DurationVar(&o.hb, "hb", 25*time.Millisecond, "replica heartbeat / shipping cadence")
	fs.IntVar(&o.threshold, "threshold", 2, "missed heartbeats before a follower stands for election")
	fs.StringVar(&o.service, "service", "", "well-known name the group's current leader binds at the name service")
	fs.StringVar(&o.ns, "ns", "", "name-service port as node/guardian/port")
	fs.Float64Var(&o.loss, "loss", 0, "injected outbound loss rate [0,1] (udp)")
	fs.Float64Var(&o.dup, "dup", 0, "injected outbound duplication rate [0,1] (udp)")
	fs.Float64Var(&o.reset, "reset", 0, "injected connection reset rate per send [0,1] (tcp)")
	fs.Float64Var(&o.stall, "stall", 0, "injected write-stall rate per send [0,1] (tcp)")
	fs.DurationVar(&o.stalltime, "stalltime", 50*time.Millisecond, "duration of each injected write stall")
	fs.Int64Var(&o.seed, "seed", 1, "fault injection seed")
	fs.StringVar(&o.shard, "shard", "", "bank: serve as this ring member (shard mode; needs -host bank)")
	fs.StringVar(&o.ringName, "ring", "", "ring client mode: route -op operations through this consistent-hash ring (needs -ns)")
	fs.StringVar(&o.ringBoot, "ringboot", "", "bootstrap the ring's epoch-1 membership: 'name=NATIVE,AMO;name=NATIVE,AMO;...' (needs -ring)")
	fs.StringVar(&o.ringJoin, "ringjoin", "", "rebalance one member into the ring: 'name=NATIVE,AMO' (needs -ring)")
	fs.StringVar(&o.ringLeave, "ringleave", "", "rebalance one member out of the ring by name (needs -ring)")
	fs.StringVar(&o.coord, "coord", "", "two-phase-commit coordinator port for cross-shard transfers, as node/guardian/port (needs -ring)")
	fs.StringVar(&o.call, "call", "", "client mode: target port as node/guardian/port")
	fs.StringVar(&o.resolve, "resolve", "", "client mode: resolve the target by well-known name "+
		"through the name service, re-resolving on every retry (needs -ns)")
	fs.Func("op", "client mode: operation to run, e.g. 'transfer alice bob 25' (repeatable)", func(op string) error {
		o.ops = append(o.ops, op)
		return nil
	})
	fs.DurationVar(&o.timeout, "timeout", 250*time.Millisecond, "client: per-attempt reply timeout")
	fs.IntVar(&o.retries, "retries", 40, "client: retransmissions before giving up")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.name == "" {
		return nil, fmt.Errorf("node: -name is required")
	}
	// missing names the first of flags left empty, or "".
	missing := func(flags []string) string {
		for _, f := range flags {
			if fs.Lookup(f).Value.String() == "" {
				return f
			}
		}
		return ""
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if m := missing(flagNeeds[f.Name]); m != "" && err == nil {
			err = fmt.Errorf("node: -%s needs -%s", f.Name, m)
		}
	})
	if err != nil {
		return nil, err
	}
	switch o.trans {
	case "udp":
		if o.reset > 0 || o.stall > 0 {
			return nil, fmt.Errorf("node: -reset/-stall are stream faults: they need -transport tcp")
		}
	case "tcp":
		if o.loss > 0 || o.dup > 0 {
			return nil, fmt.Errorf("node: -loss/-dup are datagram faults a stream would repair; use -reset/-stall with -transport tcp")
		}
	default:
		return nil, fmt.Errorf("node: bad -transport %q: want udp or tcp", o.trans)
	}
	if *crash != "" {
		spec, err := parseCrashSpec(*crash)
		if err != nil {
			return nil, err
		}
		if m := missing(crashNeeds[spec.point]); m != "" {
			return nil, fmt.Errorf("node: -crash %s needs -%s", spec.point, m)
		}
		o.crash = spec
	}
	clientMode := o.call != "" || o.resolve != "" || o.ringName != ""
	if (o.host == "") == !clientMode {
		return nil, fmt.Errorf("node: exactly one of -host (server) or -call/-resolve/-ring (client) is required")
	}
	if (o.call != "" && o.resolve != "") || (o.ringName != "" && (o.call != "" || o.resolve != "")) {
		return nil, fmt.Errorf("node: -call, -resolve and -ring are mutually exclusive")
	}
	if o.shard != "" && o.host != "bank" {
		return nil, fmt.Errorf("node: -shard needs -host bank")
	}
	if o.shard != "" && o.group != "" {
		return nil, fmt.Errorf("node: -shard and -group are exclusive")
	}
	if o.group != "" {
		if o.host == "" {
			return nil, fmt.Errorf("node: -group is server-side: it needs -host")
		}
		if o.data == "" {
			return nil, fmt.Errorf("node: -group needs -data: replication acks promise durability")
		}
		for _, m := range strings.Split(o.members, ",") {
			if m = strings.TrimSpace(m); m != "" {
				o.memberList = append(o.memberList, m)
			}
		}
		if len(o.memberList) == 0 {
			return nil, fmt.Errorf("node: -group needs -members")
		}
		switch o.mode {
		case "quorum", "async":
		default:
			return nil, fmt.Errorf("node: bad -mode %q: want quorum or async", o.mode)
		}
	}
	for _, entry := range strings.Split(*peers, ",") {
		if entry = strings.TrimSpace(entry); entry == "" {
			continue
		}
		name, addr, ok := strings.Cut(entry, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("node: bad -peers entry %q: want name=host:port", entry)
		}
		o.peers[transport.Addr(name)] = addr
	}
	return o, nil
}

// crashNeeds maps each -crash point to the flags its window needs, in the
// order they are checked: the WAL windows need the on-disk store, the
// replication windows a group, the handoff windows a shard on disk.
// fault.MidTruncate, AfterPrepare and SendUnsynced are windows no -crash
// reaches.
var crashNeeds = map[string][]string{
	fault.BeforeSync:    {"data"},
	fault.AfterSync:     {"data"},
	fault.MidCheckpoint: {"data"},
	fault.BeforeShip:    {"group"},
	fault.AfterShip:     {"group"},
	fault.AfterQuorum:   {"group"},
	fault.BeforeCut:     {"shard", "data"},
	fault.AfterCut:      {"shard", "data"},
	fault.BeforeInstall: {"shard", "data"},
	fault.AfterInstall:  {"shard", "data"},
}

// flagNeeds maps each flag that means nothing alone to the flags it needs,
// in the order they are checked: a flag set on the command line is refused
// while one it needs is empty. The ring client's flags need -ring, the
// replica group's -group, and whatever reaches the name service -ns.
var flagNeeds = map[string][]string{
	"ring": {"ns"}, "ringboot": {"ring"}, "ringjoin": {"ring"}, "ringleave": {"ring"},
	"coord": {"ring"}, "resolve": {"ns"},
	"members": {"group"}, "mode": {"group"}, "hb": {"group"}, "threshold": {"group"},
	"service": {"group", "ns"},
}

// crashSpec kills the process — os.Exit, as abrupt as SIGKILL from the
// store's point of view — at the Nth firing of one crash window, so a test
// can park a real OS process exactly inside a durability, replication or
// handoff window.
type crashSpec struct {
	point string
	n     int64
	count atomic.Int64
}

func parseCrashSpec(s string) (*crashSpec, error) {
	point, nStr, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("node: bad -crash %q: want POINT:N", s)
	}
	if _, ok := crashNeeds[point]; !ok {
		return nil, fmt.Errorf("node: bad -crash point %q: want before-sync, after-sync, mid-checkpoint, "+
			"before-ship, after-ship, after-quorum, before-cut, after-cut, before-install or after-install", point)
	}
	n, err := strconv.ParseInt(nStr, 10, 64)
	if err != nil || n < 1 {
		return nil, fmt.Errorf("node: bad -crash count %q: want a positive integer", nStr)
	}
	return &crashSpec{point: point, n: n}, nil
}

// fire is the node's crash hook: it exits the process at the Nth firing of
// the spec's point.
func (c *crashSpec) fire(point, subject string) {
	if point == c.point && c.count.Add(1) == c.n {
		fmt.Fprintf(os.Stderr, "crash injected at %s %d (subject %s)\n", point, c.n, subject)
		os.Exit(137)
	}
}

// hostDef maps -host to the guardian definition this node serves.
func hostDef(o *options) (def string, bootArgs []any, provides []*guardian.PortType, err error) {
	switch o.host {
	case "bank":
		def = bank.BranchDefName
		provides = bank.BranchDef().Provides
		if o.shard != "" {
			bootArgs = append(bootArgs, bank.ShardArg(o.shard))
		}
		if o.cpevery > 0 {
			bootArgs = append(bootArgs, o.cpevery)
		}
	case "airline":
		def = airline.FlightDefName
		provides = airline.FlightDef().Provides
		// Flight 12, 100 seats, monitor organization, no per-request work.
		bootArgs = []any{int64(12), int64(100), airline.OrgMonitor, int64(0)}
	case "nameserv":
		def = nameserv.DefName
		provides = nameserv.Def().Provides
	case "txncoord":
		def = tpc.CoordinatorDefName
		provides = tpc.CoordinatorDef().Provides
	default:
		err = fmt.Errorf("node: unknown -host %q: want bank, airline, nameserv or txncoord", o.host)
	}
	return def, bootArgs, provides, err
}

// replicaConfig builds this member's view of its replica group.
func replicaConfig(o *options) (replica.Config, error) {
	def, bootArgs, _, err := hostDef(o)
	if err != nil {
		return replica.Config{}, err
	}
	mode := replica.ModeQuorum
	if o.mode == "async" {
		mode = replica.ModeAsync
	}
	cfg := replica.Config{
		Group:     o.group,
		Self:      o.name,
		Members:   o.memberList,
		Mode:      mode,
		Heartbeat: o.hb,
		Threshold: o.threshold,
		AppDef:    def,
		AppArgs:   bootArgs,
		Service:   o.service,
		// Both hosted applications put their at-most-once request port at
		// Provides index 1; that is the port a well-known name should
		// resolve to.
		ServicePort: 1,
	}
	if o.service != "" {
		ns, err := nameserv.ParsePort(o.ns)
		if err != nil {
			return replica.Config{}, err
		}
		cfg.NS = ns
	}
	return cfg, nil
}

// localAddresser is the slice of both real transports the banner and
// shutdown report need beyond Transport: where an attached name actually
// bound (UDP reads its socket back, TCP its shared listener).
type localAddresser interface {
	transport.Transport
	LocalAddr(a transport.Addr) string
}

// proc is this process's one node: the world it lives in, the transport
// stack under it, and the fault wrapper when one was asked for.
type proc struct {
	o    *options
	w    *guardian.World
	n    *guardian.Node
	base localAddresser
	wrap *transport.Wrapper
}

// start assembles the transport stack, the world around it and this
// process's node.
func start(o *options) (*proc, error) {
	var rc replica.Config
	var err error
	if o.group != "" {
		if rc, err = replicaConfig(o); err != nil {
			return nil, err
		}
	}
	p := &proc{o: o}
	cfg := guardian.Config{}
	switch o.trans {
	case "tcp":
		tcp, err := transport.NewTCP(transport.TCPConfig{
			Listen:   o.listen,
			Peers:    o.peers,
			MaxFrame: o.mtu,
			Seed:     o.seed,
		})
		if err != nil {
			return nil, err
		}
		p.base = tcp
		// Streams have no MTU: let the runtime ship a whole message as one
		// frame instead of fragment trains sized for ethernet datagrams.
		cfg.FragmentMTU = o.mtu
		if cfg.FragmentMTU == 0 {
			cfg.FragmentMTU = transport.DefaultTCPMaxFrame
		}
	default:
		peers := maps.Clone(o.peers)
		peers[transport.Addr(o.name)] = o.listen
		udp, err := transport.NewUDP(transport.UDPConfig{Peers: peers, MTU: o.mtu})
		if err != nil {
			return nil, err
		}
		p.base = udp
	}
	cfg.Transport = p.base
	if o.loss > 0 || o.dup > 0 || o.reset > 0 || o.stall > 0 {
		p.wrap = transport.Wrap(p.base, transport.WrapperConfig{
			Seed:      o.seed,
			LossRate:  o.loss,
			DupRate:   o.dup,
			ResetRate: o.reset,
			StallRate: o.stall,
			StallFor:  o.stalltime,
		})
		cfg.Transport = p.wrap
	}
	var crash fault.Hook
	if o.crash != nil {
		crash = o.crash.fire
		cfg.Crash = func(string) fault.Hook { return crash }
	}
	if o.data != "" {
		// The world opens one store, this node's; a group member's WAL is
		// wrapped for replication, and serve reads the wrapper back.
		cfg.Store = func(node string) (durable.Store, error) {
			wal, err := durable.OpenWAL(filepath.Join(o.data, node), durable.WALConfig{Crash: crash})
			if err != nil || o.group == "" {
				return wal, err
			}
			return replica.NewStore(wal, rc)
		}
	}
	p.w = guardian.NewWorld(cfg)
	for _, def := range []*guardian.GuardianDef{
		bank.BranchDef(), airline.FlightDef(), nameserv.Def(), replica.Def(), tpc.CoordinatorDef(),
	} {
		p.w.MustRegister(def)
	}
	if p.n, err = p.w.AddNode(o.name); err != nil {
		p.w.Close()
		return nil, err
	}
	return p, nil
}

func (p *proc) serve(stdout io.Writer) error {
	o, n := p.o, p.n
	def, bootArgs, provides, err := hostDef(o)
	if err != nil {
		return err
	}
	rs, _ := n.Store().(*replica.Store)

	// find locates an already-live guardian by definition: on a -data
	// restart the node's catalog re-created it (same id, same port names),
	// so booting a second one would split the state.
	find := func(def string) *guardian.Guardian {
		for _, id := range n.Guardians() {
			if g, ok := n.GuardianByID(id); ok && g.DefName() == def {
				return g
			}
		}
		return nil
	}

	if o.group != "" && find(replica.DefName) == nil {
		// The replicator must be the FIRST guardian bootstrapped on every
		// member, so its port carries the a-priori name replica.PortAt.
		if _, err := n.Bootstrap(replica.DefName); err != nil {
			return err
		}
	}

	var hosted *guardian.Guardian
	var ports []xrep.PortName
	if g := find(def); g != nil {
		hosted = g
		for _, port := range g.ProvidedPorts() {
			ports = append(ports, port.Name())
		}
	}
	recovered := hosted != nil
	switch {
	case recovered:
		if rs != nil {
			// A restarted initial primary re-adopts its recovered app so the
			// replicator can heartbeat its log and re-bind the service.
			rs.Adopt(n, &guardian.Created{GuardianID: hosted.ID(), Ports: ports})
		}
	case o.group == "" || o.memberList[0] == o.name:
		// Followers never bootstrap the application: the election winner
		// re-creates it from the shipped log via takeover.
		created, err := n.Bootstrap(def, bootArgs...)
		if err != nil {
			return err
		}
		hosted, _ = n.GuardianByID(created.GuardianID)
		ports = created.Ports
		if rs != nil {
			rs.Adopt(n, created)
		}
	}

	fmt.Fprintf(stdout, "listening on %s\n", p.base.LocalAddr(transport.Addr(o.name)))
	if o.shard != "" {
		fmt.Fprintf(stdout, "shard member=%s\n", o.shard)
	}
	if recovered {
		fmt.Fprintf(stdout, "recovered %s guardian %d from catalog\n", def, hosted.ID())
	}
	if o.group != "" {
		role := "follower"
		if hosted != nil {
			role = "primary"
		}
		fmt.Fprintf(stdout, "replica group=%s role=%s members=%s mode=%s\n",
			o.group, role, strings.Join(o.memberList, ","), o.mode)
		fmt.Fprintf(stdout, "port replica_port %s\n", nameserv.FormatPort(replica.PortAt(o.name)))
	}
	// What open-time scanning of the durable store found: a torn tail is
	// the legitimate residue of a crash mid-write (truncated, not
	// replayed); skipped records are stale residue of a crash between
	// checkpoint install and compaction. Either is worth a line — silent
	// repair is how recovery bugs hide.
	if rep, ok := n.Store().(durable.Reporter); ok {
		for _, name := range n.Store().LogNames() {
			r, scanned := rep.Report(name)
			if !scanned || (!r.TornTail && r.Skipped == 0) {
				continue
			}
			fmt.Fprintf(stdout, "recovery %s records=%d skipped=%d torn_tail=%v torn_bytes=%d\n",
				name, r.Records, r.Skipped, r.TornTail, r.TornBytes)
		}
	}
	for i, port := range ports {
		label := fmt.Sprintf("port%d", i)
		if i < len(provides) {
			label = provides[i].Name()
		}
		fmt.Fprintf(stdout, "port %s %s\n", label, nameserv.FormatPort(port))
	}
	fmt.Fprintln(stdout, "ready")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	// Shutdown report: transport accounting, injected faults, and — for a
	// bank branch — the applies counter an exactly-once audit needs.
	p.report(stdout, true)
	if rs != nil {
		leader, term, isSelf := rs.Leader()
		st := rs.ReplStats()
		fmt.Fprintf(stdout, "repl leader=%s term=%d self=%v shipped=%d applied=%d checkpoints=%d "+
			"fenced=%d elections=%d takeovers=%d\n",
			leader, term, isSelf, st.ShippedRecords, st.AppliedRecords, st.CheckpointsShipped,
			st.FencedStale, st.Elections, st.Takeovers)
		// A follower that won an election serves an app guardian it never
		// bootstrapped; the audit must read that one.
		if g := rs.AppGuardian(); g != nil {
			hosted = g
		}
	}
	if o.host == "bank" && hosted != nil {
		if applies, err := bank.Applies(hosted); err == nil {
			fmt.Fprintf(stdout, "applies %d\n", applies)
		}
		if member, epoch, accts, ok := bank.ShardSnapshot(hosted); ok {
			var total int64
			for _, bal := range accts {
				total += bal
			}
			fmt.Fprintf(stdout, "shard member=%s epoch=%d accounts=%d total=%d\n",
				member, epoch, len(accts), total)
		}
	}
	return p.w.Close()
}

// report prints the shutdown lines every role shares: the injected faults
// (the datagram fates first, the fields the loss audits parse, then the
// stream fates), a server's transport totals, and the per-peer connection
// counters through the same metrics tables the experiments print. Datagram
// transports have no connections; their table simply doesn't appear.
func (p *proc) report(w io.Writer, totals bool) {
	if p.wrap != nil {
		p.wrap.Quiesce()
		ws := p.wrap.InjectedStats()
		fmt.Fprintf(w, "injected sent=%d lost=%d duplicated=%d resets=%d stalls=%d\n",
			ws.Sent, ws.Lost, ws.Duplicated, ws.Resets, ws.Stalls)
	}
	st := p.base.Stats()
	if totals {
		fmt.Fprintf(w, "stats sent=%d delivered=%d dropped=%d bytes_sent=%d bytes_recv=%d\n",
			st.Sent, st.Delivered, st.Dropped, st.BytesSent, st.BytesRecv)
	}
	if len(st.Conns) == 0 {
		return
	}
	peers := make([]string, 0, len(st.Conns))
	for a := range st.Conns {
		peers = append(peers, string(a))
	}
	sort.Strings(peers)
	tb := metrics.NewTable("tcp connections",
		"peer", "state", "dials", "resets", "reconnects", "hb_missed", "queue_drops")
	for _, peer := range peers {
		cs := st.Conns[transport.Addr(peer)]
		tb.AddRow(peer, cs.State, cs.Dials, cs.Resets, cs.Reconnects, cs.HeartbeatsMissed, cs.QueueDrops)
	}
	tb.Render(w)
}

// parseOp turns "transfer alice bob 25" into a command plus typed args:
// integer-looking tokens travel as ints, everything else as strings —
// matching the positional vocabularies of the hosted guardians' amo ports.
// A token "BASE*N" with a non-numeric BASE expands to BASE repeated N
// times: argv caps a single argument far below the multi-megabyte
// payloads the stream transport exists to carry, so "open B*2097152"
// is how a flag names a two-megabyte account.
func parseOp(op string) (string, []any, error) {
	fields := strings.Fields(op)
	if len(fields) == 0 {
		return "", nil, fmt.Errorf("node: empty -op")
	}
	args := make([]any, 0, len(fields)-1)
	for _, f := range fields[1:] {
		if n, err := strconv.ParseInt(f, 10, 64); err == nil {
			args = append(args, n)
			continue
		}
		if base, nStr, ok := strings.Cut(f, "*"); ok && base != "" {
			if n, err := strconv.ParseInt(nStr, 10, 32); err == nil && n > 0 {
				args = append(args, strings.Repeat(base, int(n)))
				continue
			}
		}
		args = append(args, f)
	}
	return fields[0], args, nil
}

// client runs the -op operations in order through the call function its
// mode chooses: a fixed -call port, a -resolve'd name, or a -ring router
// after the ring's membership actions.
func (p *proc) client(stdout io.Writer) error {
	o := p.o
	_, drv, err := p.n.NewDriver("cli")
	if err != nil {
		return err
	}
	copts := amo.CallerOptions{
		Timeout: o.timeout,
		Retries: o.retries,
		Backoff: amo.BackoffPolicy{Base: o.timeout / 10, Jitter: 0.5},
	}
	var call func(cmd string, args []any) (string, error)
	if o.ringName != "" {
		rt, err := p.router(drv, copts, stdout)
		if err != nil {
			return err
		}
		defer rt.Close()
		call = func(cmd string, args []any) (string, error) { return ringCall(rt, cmd, args) }
	} else if call, err = p.caller(drv, copts, stdout); err != nil {
		return err
	}
	for _, op := range o.ops {
		cmd, args, err := parseOp(op)
		if err != nil {
			return err
		}
		out, err := call(cmd, args)
		if err != nil {
			return fmt.Errorf("node: op %q: %w", op, err)
		}
		fmt.Fprintf(stdout, "op %q: %s\n", op, out)
	}
	p.report(stdout, false)
	return nil
}

// routed parses a node/guardian/port flag value and checks that -peers
// can reach its node; what names the node in the error.
func routed(o *options, port, what string) (xrep.PortName, error) {
	pn, err := nameserv.ParsePort(port)
	if err != nil {
		return pn, err
	}
	if _, ok := o.peers[transport.Addr(pn.Node)]; !ok {
		return pn, fmt.Errorf("node: no -peers route to %s node %q", what, pn.Node)
	}
	return pn, nil
}

// replyLine renders a call's reply as its command and arguments.
func replyLine(r *amo.Reply, err error) (string, error) {
	if err != nil {
		return "", err
	}
	line := r.Command
	for _, a := range r.Args {
		line += fmt.Sprintf(" %v", a)
	}
	return line, nil
}

// caller is the call function of -call and -resolve: one at-most-once
// session against a fixed port, or against a well-known name the name
// service re-resolves before every retry.
func (p *proc) caller(drv *guardian.Process, copts amo.CallerOptions, stdout io.Writer) (func(cmd string, args []any) (string, error), error) {
	o := p.o
	var target xrep.PortName
	var err error
	if o.call != "" {
		if target, err = routed(o, o.call, "target"); err != nil {
			return nil, err
		}
	} else {
		nsPort, err := routed(o, o.ns, "name-service")
		if err != nil {
			return nil, err
		}
		nc, err := nameserv.NewClient(drv, nsPort)
		if err != nil {
			return nil, err
		}
		lookup := func() (xrep.PortName, bool) {
			pn, _, err := nc.Lookup(o.resolve, o.timeout)
			return pn, err == nil
		}
		// Re-resolving before every retry is what lets one client session
		// follow the binding across a failover mid-conversation.
		copts.Resolve = lookup
		for i := 0; ; i++ {
			if pn, ok := lookup(); ok {
				target = pn
				break
			}
			if i >= o.retries {
				return nil, fmt.Errorf("node: resolve %q: no binding after %d lookups", o.resolve, i+1)
			}
			time.Sleep(50 * time.Millisecond)
		}
		fmt.Fprintf(stdout, "resolved %s -> %s\n", o.resolve, nameserv.FormatPort(target))
	}
	c, err := amo.NewCaller(drv, copts)
	if err != nil {
		return nil, err
	}
	return func(cmd string, args []any) (string, error) {
		return replyLine(c.Call(target, cmd, args...))
	}, nil
}

// router runs the -ring membership actions (bootstrap, join, leave, in that
// order) and returns the router the -op operations go through: routed by
// account hash, with cross-shard transfers riding 2PC through -coord.
func (p *proc) router(drv *guardian.Process, copts amo.CallerOptions, stdout io.Writer) (*bank.Router, error) {
	o := p.o
	nsPort, err := routed(o, o.ns, "name-service")
	if err != nil {
		return nil, err
	}
	nc, err := nameserv.NewClient(drv, nsPort)
	if err != nil {
		return nil, err
	}
	ropts := bank.RebalanceOptions{
		NS:      nc,
		Timeout: o.timeout,
		Call: sendprim.CallOptions{
			Timeout: o.timeout,
			Retries: o.retries,
			Backoff: o.timeout / 10,
		},
	}
	if o.ringBoot != "" {
		var members []ring.Member
		for _, spec := range strings.Split(o.ringBoot, ";") {
			if spec = strings.TrimSpace(spec); spec == "" {
				continue
			}
			m, err := parseRingMember(spec)
			if err != nil {
				return nil, err
			}
			members = append(members, m)
		}
		if err := bank.Bootstrap(drv, ring.New(o.ringName, 0, members...), ropts); err != nil {
			return nil, fmt.Errorf("node: ring bootstrap: %w", err)
		}
		fmt.Fprintf(stdout, "ring %s bootstrapped with %d members\n", o.ringName, len(members))
	}
	if o.ringJoin != "" {
		m, err := parseRingMember(o.ringJoin)
		if err != nil {
			return nil, err
		}
		next, err := bank.Join(drv, o.ringName, m, ropts)
		if err != nil {
			return nil, fmt.Errorf("node: ring join %s: %w", m.Name, err)
		}
		fmt.Fprintf(stdout, "ring %s epoch %d committed (join %s)\n", o.ringName, next.Epoch, m.Name)
	}
	if o.ringLeave != "" {
		next, err := bank.Leave(drv, o.ringName, o.ringLeave, ropts)
		if err != nil {
			return nil, fmt.Errorf("node: ring leave %s: %w", o.ringLeave, err)
		}
		fmt.Fprintf(stdout, "ring %s epoch %d committed (leave %s)\n", o.ringName, next.Epoch, o.ringLeave)
	}
	rto := bank.RouterOptions{NS: nc, RingName: o.ringName, Timeout: o.timeout, Call: copts}
	if o.coord != "" {
		if rto.Coordinator, err = routed(o, o.coord, "coordinator"); err != nil {
			return nil, err
		}
	}
	return bank.NewRouter(drv, rto)
}

// ringCall routes one operation by the account it names first; a transfer
// names two and rides 2PC when they live on different shards.
func ringCall(rt *bank.Router, cmd string, args []any) (string, error) {
	if cmd == "transfer" {
		if len(args) != 3 {
			return "", errors.New("want transfer FROM TO AMOUNT")
		}
		from, _ := args[0].(string)
		to, _ := args[1].(string)
		amt, _ := args[2].(int64)
		return rt.Transfer(from, to, amt)
	}
	if len(args) == 0 {
		return "", errors.New("ring ops name their account first")
	}
	acct, ok := args[0].(string)
	if !ok {
		return "", errors.New("account must be a name")
	}
	return replyLine(rt.Call(acct, cmd, args...))
}

// parseRingMember turns "s1=node/g/p,node/g/p" into a ring member: the
// first port is the branch's native (migration) port, the second its
// at-most-once request port — the order the server banner prints them.
func parseRingMember(spec string) (ring.Member, error) {
	name, ports, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return ring.Member{}, fmt.Errorf("node: bad ring member %q: want name=NATIVE,AMO", spec)
	}
	nat, am, ok := strings.Cut(ports, ",")
	if !ok {
		return ring.Member{}, fmt.Errorf("node: bad ring member ports %q: want NATIVE,AMO", ports)
	}
	native, err := nameserv.ParsePort(strings.TrimSpace(nat))
	if err != nil {
		return ring.Member{}, err
	}
	amoPort, err := nameserv.ParsePort(strings.TrimSpace(am))
	if err != nil {
		return ring.Member{}, err
	}
	return ring.Member{Name: name, Native: native, Amo: amoPort}, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		fmt.Fprintln(stderr, err)
		return 2
	}
	p, err := start(o)
	if err == nil {
		defer p.w.Close()
		if o.host != "" {
			err = p.serve(stdout)
		} else {
			err = p.client(stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
