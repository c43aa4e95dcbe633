package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/nameserv"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sendprim"
	"repro/internal/stable"
	"repro/internal/tpc"
	"repro/internal/transport"
	"repro/internal/vtime"
	"repro/internal/xrep"
)

// The four workloads. Their names are fixed: later issues cite them.
var workloads = []*workload{
	{
		name:  "call_small",
		why:   "2 amo callers depositing 1 unit over zero-latency netsim: per-message cost of guardian, wire, xrep, netsim and amo is all there is",
		build: buildCallSmall,
	},
	{
		name:  "call_bulk",
		why:   "2 drivers echoing a 2048-entry list (3 fragments) over TCP loopback: the same path per byte, plus fragmentation and stream framing; amo, durable, bank idle",
		build: buildCallBulk,
	},
	{
		name:  "bank_durable",
		why:   "4 tellers, 70% transfers 30% reads, one branch on an fsync-backed WAL: wait-bound, so only fewer or faster syncs raise ops_per_s",
		build: buildBankDurable,
	},
	{
		name:  "ring_mixed",
		why:   "2 routers over a 2-shard ring with coordinator and nameserver, zipf keys, 15% transfers half of them 2PC: the E16 anti-scaling path",
		build: buildRingMixed,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	// checkpointEvery makes every branch fold its log into a checkpoint
	// after this many mutations, so state and heap stay bounded however
	// long a run is.
	checkpointEvery = 20000
	// callTimeout bounds one attempt of any call. Nothing here loses
	// messages, so a timeout is a failure, never a retry that succeeds.
	callTimeout = 5 * time.Second
	// reassemblyAge bounds how long a node remembers completed message
	// ids; the default 30 s would let that table grow through a whole
	// round.
	reassemblyAge = 2 * time.Second
	// primingEchoes is how many echoes call_bulk's set-up sends down the
	// fresh connection: enough that set-up takes about two seconds.
	primingEchoes = 1400
	// funding is the balance tellers' accounts start with: large enough
	// that no withdrawal or transfer is ever refused.
	funding = 1_000_000_000
)

func callerOpts(m *amo.Metrics) amo.CallerOptions {
	return amo.CallerOptions{Timeout: callTimeout, Retries: 1, Metrics: m}
}

var pingOpts = sendprim.CallOptions{Timeout: callTimeout, Retries: 1}

// simStores gives every node of a world a fresh simulated disk, wrapped
// when the round is traced.
func simStores(e *env, clock vtime.Clock) func(string) (durable.Store, error) {
	return func(node string) (durable.Store, error) {
		return e.wrapStore(node, durable.NewSim(stable.NewDisk(clock, stable.DiskConfig{}))), nil
	}
}

// simWorld builds a world on a zero-latency, lossless simulated network.
func simWorld(e *env) *guardian.World {
	clock := vtime.NewReal()
	return guardian.NewWorld(guardian.Config{
		Clock:         clock,
		Transport:     e.wrapTransport(transport.NewSim(netsim.New(clock, netsim.Config{Seed: e.seed}))),
		Store:         simStores(e, clock),
		ReassemblyAge: reassemblyAge,
	})
}

// accountNames pre-renders n account names, so no name is formatted
// inside a measured loop.
func accountNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%07d", prefix, i)
	}
	return names
}

// newCaller creates a driver guardian on node with one at-most-once
// session.
func newCaller(node *guardian.Node, name string, m *amo.Metrics) (*guardian.Process, *amo.Caller, error) {
	_, drv, err := node.NewDriver(name)
	if err != nil {
		return nil, nil, err
	}
	c, err := amo.NewCaller(drv, callerOpts(m))
	return drv, c, err
}

// expect performs one amo call and requires the named outcome.
func expect(c *amo.Caller, to xrep.PortName, outcome, command string, args ...any) error {
	rep, err := c.Call(to, command, args...)
	if err != nil {
		return fmt.Errorf("%s: %w", command, err)
	}
	if rep.Command != outcome {
		return fmt.Errorf("%s: got %s, want %s", command, rep.Command, outcome)
	}
	return nil
}

// readBack reads every account's balance through a client's own path and
// requires want(account) of each: the last step of a set-up, so the time to
// get the recovered preload back into the clients' hands is inside setup_s.
func readBack(call func(account string) (*amo.Reply, error), names []string, want func(account string) int64) error {
	for _, a := range names {
		rep, err := call(a)
		if err != nil || rep.Command != "balance_is" || rep.Int(0) != want(a) {
			return fmt.Errorf("read back %s: %v %v, want balance %d", a, rep, err, want(a))
		}
	}
	return nil
}

// branchAudit asks a branch for its account count and total over its native
// port. The reply is ordered after everything the branch handled before,
// so an owner-side snapshot taken next sees a settled state; after a
// restart it also waits for recovery to finish.
func branchAudit(drv *guardian.Process, native xrep.PortName) (accounts, total int64, err error) {
	m, err := sendprim.Call(drv, native, bank.ClientReplyType, pingOpts, "audit")
	if err != nil {
		return 0, 0, fmt.Errorf("audit: %w", err)
	}
	return m.Int(0), m.Int(1), nil
}

// restart crashes a node and brings it back, so the round's set-up includes
// recovery of the preloaded state.
func restart(n *guardian.Node) error {
	n.Crash()
	return n.Restart()
}

func snapshotOf(n *guardian.Node, id uint64) (map[string]int64, error) {
	g, ok := n.GuardianByID(id)
	if !ok {
		return nil, fmt.Errorf("guardian %d vanished from node %s", id, n.Name())
	}
	return bank.Snapshot(g)
}

// ---- call_small ----

func buildCallSmall(e *env) (*instance, error) {
	rng := rand.New(rand.NewSource(e.seed))
	names := accountNames("a", e.n(50000))
	w := simWorld(e)
	if err := w.Register(bank.BranchDef()); err != nil {
		return nil, err
	}
	branch, err := w.AddNode("branch")
	if err != nil {
		return nil, err
	}
	cr, err := branch.Bootstrap(bank.BranchDefName, int64(checkpointEvery))
	if err != nil {
		return nil, err
	}
	native, amoPort := cr.Ports[0], cr.Ports[1]
	cli, err := w.AddNode("cli")
	if err != nil {
		return nil, err
	}
	met := &amo.Metrics{}
	loaderDrv, loader, err := newCaller(cli, "loader", met)
	if err != nil {
		return nil, err
	}
	for _, a := range names {
		if err := expect(loader, amoPort, bank.OutcomeOK, "open", a); err != nil {
			return nil, err
		}
	}
	if err := restart(branch); err != nil {
		return nil, err
	}
	if n, _, err := branchAudit(loaderDrv, native); err != nil || n != int64(len(names)) {
		return nil, fmt.Errorf("recovered %d of %d accounts: %v", n, len(names), err)
	}
	err = readBack(func(a string) (*amo.Reply, error) { return loader.Call(amoPort, "balance", a) },
		names, func(string) int64 { return 0 })
	if err != nil {
		return nil, err
	}

	const clients = 2
	inst := &instance{close: func() { w.Close() }}
	acked := make([]int64, clients)
	own := make([]string, clients)
	for k, i := range rng.Perm(len(names))[:clients] {
		own[k] = names[i]
		_, c, err := newCaller(cli, "caller", met)
		if err != nil {
			return nil, err
		}
		args := []any{own[k], int64(1)}
		n := &acked[k]
		inst.clients = append(inst.clients, func() (int, bool) {
			rep, err := c.Call(amoPort, "deposit", args...)
			if err != nil || rep.Command != bank.OutcomeOK {
				return kindWrite, false
			}
			*n++
			return kindWrite, true
		})
	}
	// Exactly-once: each caller's account holds exactly its acknowledged
	// deposits, and every other account is still empty.
	inst.audit = func() error {
		if _, _, err := branchAudit(loaderDrv, native); err != nil {
			return err
		}
		snap, err := snapshotOf(branch, cr.GuardianID)
		if err != nil {
			return err
		}
		if len(snap) != len(names) {
			return fmt.Errorf("%d accounts, want %d", len(snap), len(names))
		}
		want := make(map[string]int64, clients)
		for k, a := range own {
			want[a] = acked[k]
		}
		for a, bal := range snap {
			if bal != want[a] {
				return fmt.Errorf("account %s holds %d, acknowledged deposits say %d", a, bal, want[a])
			}
		}
		return nil
	}
	probe, err := bankProbe(e, w, cli, branch, native, amoPort, met, names[0])
	if err != nil {
		return nil, err
	}
	inst.layers = layerSources{worlds: []*guardian.World{w}, net: "netsim", amo: met, clientNode: "cli", probe: probe}
	return inst, nil
}

// ---- call_bulk ----

var (
	echoType = guardian.NewPortType("bench_echo_port").
			Msg("echo", xrep.KindSeq).
			Replies("echo", "echoed")
	echoReplyType = guardian.NewPortType("bench_echo_reply_port").
			Msg("echoed", xrep.KindSeq)
)

// echoDef is the benchmark's own guardian: it sends every list back to the
// replyto port. onRecv, when non-nil, sees each message as the handler
// starts — the traced run's view of when Receive returned.
func echoDef(onRecv func()) *guardian.GuardianDef {
	return &guardian.GuardianDef{
		TypeName: "bench_echo",
		Provides: []*guardian.PortType{echoType},
		Init: func(ctx *guardian.Ctx) {
			guardian.NewReceiver(ctx.Ports[0]).
				When("echo", func(pr *guardian.Process, m *guardian.Message) {
					if onRecv != nil {
						onRecv()
					}
					_ = pr.Send(m.ReplyTo, "echoed", m.Args[0])
				}).
				WhenFailure(func(*guardian.Process, string, *guardian.Message) {}).
				Loop(ctx.Proc, nil)
		},
	}
}

// bulkList builds a 2048-entry association list in its external
// representation, a sequence of (key, item) pairs, about 45 KiB encoded.
func bulkList(rng *rand.Rand, entries int) xrep.Seq {
	list := make(xrep.Seq, entries)
	for i := range list {
		list[i] = xrep.Seq{xrep.Str(fmt.Sprintf("k%04d-%06x", i, rng.Intn(1<<24))), xrep.Int(rng.Int63n(1 << 32))}
	}
	return list
}

// echoClient returns a client that sends list to the echo port and checks
// what comes back: length, first and last pair every time, every pair on
// each 64th echo.
func echoClient(drv *guardian.Process, reply *guardian.Port, echo xrep.PortName, list xrep.Seq) client {
	args := []any{list}
	var n int
	return func() (int, bool) {
		if err := drv.SendReplyTo(echo, reply.Name(), "echo", args...); err != nil {
			return kindWrite, false
		}
		m, st := drv.Receive(callTimeout, reply)
		if st != guardian.RecvOK || m.Command != "echoed" {
			return kindWrite, false
		}
		got, ok := m.Args[0].(xrep.Seq)
		last := len(list) - 1
		if !ok || len(got) != len(list) || !xrep.Equal(got[0], list[0]) || !xrep.Equal(got[last], list[last]) {
			return kindWrite, false
		}
		if n++; n%64 == 0 && !xrep.Equal(got, list) {
			return kindWrite, false
		}
		return kindWrite, true
	}
}

func buildCallBulk(e *env) (*instance, error) {
	rng := rand.New(rand.NewSource(e.seed))
	srvTr, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	cliTr, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		srvTr.Close()
		return nil, err
	}
	if err := cliTr.SetPeer("srv", srvTr.ListenAddr()); err != nil {
		return nil, err
	}
	wSrv := guardian.NewWorld(guardian.Config{Transport: e.wrapTransport(srvTr), ReassemblyAge: reassemblyAge})
	wCli := guardian.NewWorld(guardian.Config{Transport: e.wrapTransport(cliTr), ReassemblyAge: reassemblyAge})
	inst := &instance{close: func() { wCli.Close(); wSrv.Close() }}

	srv, err := wSrv.AddNode("srv")
	if err != nil {
		return nil, err
	}
	probe, echo, err := echoProbe(e, wSrv, srv)
	if err != nil {
		return nil, err
	}
	cli, err := wCli.AddNode("cli")
	if err != nil {
		return nil, err
	}

	const clients = 2
	for k := 0; k < clients; k++ {
		g, drv, err := cli.NewDriver("driver")
		if err != nil {
			return nil, err
		}
		reply, err := g.NewPort(echoReplyType, 8)
		if err != nil {
			return nil, err
		}
		list := bulkList(rng, 2048)
		c := echoClient(drv, reply, echo, list)
		if k == 0 {
			// Set-up ends with the connection dialled, routes learned and
			// both ends' buffers and tables at their working size.
			for i := 0; i < e.n(primingEchoes); i++ {
				if _, ok := c(); !ok {
					return nil, errors.New("priming echo failed")
				}
			}
			if probe != nil {
				if err := probe.attach(cli, []any{list}); err != nil {
					return nil, err
				}
			}
		}
		inst.clients = append(inst.clients, c)
	}
	// Every echo was compared as it arrived and a wrong one is a failed
	// operation, which fails the run; there is no state left to audit.
	inst.audit = func() error { return nil }
	inst.layers = layerSources{
		worlds: []*guardian.World{wSrv, wCli}, net: "transport", clientNode: "cli", probe: probe,
	}
	return inst, nil
}

// ---- bank_durable ----

func buildBankDurable(e *env) (*instance, error) {
	rng := rand.New(rand.NewSource(e.seed))
	names := accountNames("a", e.n(5000))
	clock := vtime.NewReal()
	w := guardian.NewWorld(guardian.Config{
		Clock:     clock,
		Transport: e.wrapTransport(transport.NewSim(netsim.New(clock, netsim.Config{Seed: e.seed}))),
		Store: func(node string) (durable.Store, error) {
			if node != "branch" {
				return simStores(e, clock)(node)
			}
			wal, err := durable.OpenWAL(filepath.Join(e.tmp, "branch"), durable.WALConfig{})
			if err != nil {
				return nil, err
			}
			return e.wrapStore(node, wal), nil
		},
		ReassemblyAge: reassemblyAge,
	})
	inst := &instance{close: func() { w.Close() }}
	if err := w.Register(bank.BranchDef()); err != nil {
		return nil, err
	}
	branch, err := w.AddNode("branch")
	if err != nil {
		return nil, err
	}
	cr, err := branch.Bootstrap(bank.BranchDefName, int64(checkpointEvery))
	if err != nil {
		return nil, err
	}
	native, amoPort := cr.Ports[0], cr.Ports[1]
	cli, err := w.AddNode("cli")
	if err != nil {
		return nil, err
	}
	met := &amo.Metrics{}
	loaderDrv, loader, err := newCaller(cli, "loader", met)
	if err != nil {
		return nil, err
	}
	for _, a := range names {
		if err := expect(loader, amoPort, bank.OutcomeOK, "open", a); err != nil {
			return nil, err
		}
	}
	const tellers = 4
	perm := rng.Perm(len(names))
	for _, i := range perm[:2*tellers] {
		if err := expect(loader, amoPort, bank.OutcomeOK, "deposit", names[i], int64(funding)); err != nil {
			return nil, err
		}
	}
	if err := restart(branch); err != nil {
		return nil, err
	}
	if n, total, err := branchAudit(loaderDrv, native); err != nil || n != int64(len(names)) || total != 2*tellers*funding {
		return nil, fmt.Errorf("recovered %d accounts holding %d: %v", n, total, err)
	}
	funded := make(map[string]int64, 2*tellers)
	for _, i := range perm[:2*tellers] {
		funded[names[i]] = funding
	}
	err = readBack(func(a string) (*amo.Reply, error) { return loader.Call(amoPort, "balance", a) },
		names, func(a string) int64 { return funded[a] })
	if err != nil {
		return nil, err
	}

	type op struct {
		read bool
		side int // which of the teller's two accounts is read, or debited
	}
	for k := 0; k < tellers; k++ {
		_, c, err := newCaller(cli, "teller", met)
		if err != nil {
			return nil, err
		}
		acct := [2]string{names[perm[2*k]], names[perm[2*k+1]]}
		// The teller is the only writer of its two accounts, so it knows
		// what every read must return.
		bal := [2]int64{funding, funding}
		ops := make([]op, 1<<14)
		for i := range ops {
			ops[i] = op{read: rng.Float64() < 0.30, side: rng.Intn(2)}
		}
		readArgs := [2][]any{{acct[0]}, {acct[1]}}
		moveArgs := [2][]any{{acct[0], acct[1], int64(1)}, {acct[1], acct[0], int64(1)}}
		next := 0
		inst.clients = append(inst.clients, func() (int, bool) {
			o := ops[next]
			next = (next + 1) % len(ops)
			if o.read {
				rep, err := c.Call(amoPort, "balance", readArgs[o.side]...)
				return kindRead, err == nil && rep.Command == "balance_is" && rep.Int(0) == bal[o.side]
			}
			rep, err := c.Call(amoPort, "transfer", moveArgs[o.side]...)
			if err != nil || rep.Command != bank.OutcomeOK {
				return kindTransfer, false
			}
			bal[o.side]--
			bal[1-o.side]++
			return kindTransfer, true
		})
	}
	// Conservation, then the same again from the recovered WAL.
	check := func() (map[string]int64, error) {
		if _, total, err := branchAudit(loaderDrv, native); err != nil || total != 2*tellers*funding {
			return nil, fmt.Errorf("accounts hold %d, want %d: %v", total, int64(2*tellers*funding), err)
		}
		return snapshotOf(branch, cr.GuardianID)
	}
	inst.audit = func() error {
		before, err := check()
		if err != nil {
			return err
		}
		if err := restart(branch); err != nil {
			return err
		}
		after, err := check()
		if err != nil {
			return fmt.Errorf("after crash and restart: %w", err)
		}
		if len(after) != len(before) {
			return fmt.Errorf("recovered %d accounts, had %d", len(after), len(before))
		}
		for a, b := range before {
			if after[a] != b {
				return fmt.Errorf("account %s recovered as %d, was %d", a, after[a], b)
			}
		}
		return nil
	}
	probe, err := bankProbe(e, w, cli, branch, native, amoPort, met, names[0])
	if err != nil {
		return nil, err
	}
	inst.layers = layerSources{worlds: []*guardian.World{w}, net: "netsim", amo: met, clientNode: "cli", probe: probe}
	return inst, nil
}

// ---- ring_mixed ----

func buildRingMixed(e *env) (*instance, error) {
	rng := rand.New(rand.NewSource(e.seed))
	const prefix, shards, clients = "r", 2, 2
	names := accountNames(prefix, e.n(20000))
	w := simWorld(e)
	inst := &instance{close: func() { w.Close() }}
	for _, def := range []*guardian.GuardianDef{bank.BranchDef(), nameserv.Def(), tpc.CoordinatorDef()} {
		if err := w.Register(def); err != nil {
			return nil, err
		}
	}
	boot := func(node, def string, args ...any) (*guardian.Node, *guardian.Created, error) {
		n, err := w.AddNode(node)
		if err != nil {
			return nil, nil, err
		}
		cr, err := n.Bootstrap(def, args...)
		return n, cr, err
	}
	_, nsCr, err := boot("registry", nameserv.DefName)
	if err != nil {
		return nil, err
	}
	_, coCr, err := boot("txc", tpc.CoordinatorDefName)
	if err != nil {
		return nil, err
	}
	members := make([]ring.Member, shards)
	nodes := make([]*guardian.Node, shards)
	ids := make([]uint64, shards)
	for i := range members {
		name := fmt.Sprintf("s%d", i+1)
		n, cr, err := boot(name, bank.BranchDefName, bank.ShardArg(name), int64(checkpointEvery))
		if err != nil {
			return nil, err
		}
		members[i] = ring.Member{Name: name, Native: cr.Ports[0], Amo: cr.Ports[1]}
		nodes[i], ids[i] = n, cr.GuardianID
	}
	tellers, err := w.AddNode("tellers")
	if err != nil {
		return nil, err
	}
	_, bootDrv, err := tellers.NewDriver("bootstrap")
	if err != nil {
		return nil, err
	}
	bootNS, err := nameserv.NewClient(bootDrv, nsCr.Ports[0])
	if err != nil {
		return nil, err
	}
	rg := ring.New("accounts", 0, members...)
	if err := bank.Bootstrap(bootDrv, rg, bank.RebalanceOptions{NS: bootNS}); err != nil {
		return nil, err
	}
	met := &amo.Metrics{}
	newRouter := func(name string) (*bank.Router, error) {
		_, drv, err := tellers.NewDriver(name)
		if err != nil {
			return nil, err
		}
		ns, err := nameserv.NewClient(drv, nsCr.Ports[0])
		if err != nil {
			return nil, err
		}
		return bank.NewRouter(drv, bank.RouterOptions{
			NS: ns, RingName: rg.Name, Coordinator: coCr.Ports[0], Call: callerOpts(met),
		})
	}
	loader, err := newRouter("loader")
	if err != nil {
		return nil, err
	}
	// Every account is opened and funded through a router, a call each.
	var preload int64
	for _, a := range names {
		if rep, err := loader.Call(a, "open", a); err != nil || rep.Command != bank.OutcomeOK {
			return nil, fmt.Errorf("preload open %s: %v %v", a, rep, err)
		}
		if rep, err := loader.Call(a, "deposit", a, int64(funding)); err != nil || rep.Command != bank.OutcomeOK {
			return nil, fmt.Errorf("preload deposit %s: %v %v", a, rep, err)
		}
		preload += funding
	}
	for _, n := range nodes {
		if err := restart(n); err != nil {
			return nil, err
		}
	}

	// shardTotal sums every shard's accounts, each read ordered after an
	// audit reply from that shard.
	shardTotal := func() (int64, error) {
		var total int64
		for i, m := range members {
			if _, _, err := branchAudit(bootDrv, m.Native); err != nil {
				return 0, fmt.Errorf("shard %s: %w", m.Name, err)
			}
			g, ok := nodes[i].GuardianByID(ids[i])
			if !ok {
				return 0, fmt.Errorf("shard %s vanished", m.Name)
			}
			_, _, accts, ok := bank.ShardSnapshot(g)
			if !ok {
				return 0, fmt.Errorf("shard %s is not in shard mode", m.Name)
			}
			for _, b := range accts {
				total += b
			}
		}
		return total, nil
	}
	if total, err := shardTotal(); err != nil || total != preload {
		return nil, fmt.Errorf("recovered shards hold %d, want %d: %v", total, preload, err)
	}
	// The loader here, and below each teller's router as it is created,
	// reads the recovered preload back.
	readAll := func(rt *bank.Router) error {
		return readBack(func(a string) (*amo.Reply, error) { return rt.Call(a, "balance", a) },
			names, func(string) int64 { return funding })
	}
	if err := readAll(loader); err != nil {
		return nil, err
	}

	const (
		opDeposit = iota
		opWithdraw
		opBalance
		opTransfer
	)
	type op struct {
		what, a, b int
		amount     int64
	}
	deposited := make([]int64, clients)
	withdrawn := make([]int64, clients)
	var drawn []string
	for k := 0; k < clients; k++ {
		rt, err := newRouter("teller")
		if err != nil {
			return nil, err
		}
		if err := readAll(rt); err != nil {
			return nil, err
		}
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(names)-1))
		ops := make([]op, 1<<15)
		for i := range ops {
			o := op{a: int(zipf.Uint64()), amount: 1 + rng.Int63n(50)}
			switch p := rng.Float64(); {
			case p < 0.40:
				o.what = opDeposit
			case p < 0.65:
				o.what = opWithdraw
			case p < 0.85:
				o.what = opBalance
			default:
				o.what = opTransfer
				for o.b = int(zipf.Uint64()); o.b == o.a; {
					o.b = int(zipf.Uint64())
				}
			}
			ops[i] = o
			if k == 0 && len(drawn) < 4096 {
				drawn = append(drawn, names[o.a])
			}
		}
		// Whether a transfer crosses shards is decided by placement, which
		// is fixed for the round; work it out before timing.
		cross := make([]bool, len(ops))
		for i, o := range ops {
			if o.what == opTransfer {
				ma, _ := rg.Owner(names[o.a])
				mb, _ := rg.Owner(names[o.b])
				cross[i] = ma.Name != mb.Name
			}
		}
		dep, wd := &deposited[k], &withdrawn[k]
		next := 0
		inst.clients = append(inst.clients, func() (int, bool) {
			i := next
			o := ops[i]
			next = (next + 1) % len(ops)
			a := names[o.a]
			switch o.what {
			case opBalance:
				rep, err := rt.Call(a, "balance", a)
				return kindRead, err == nil && rep.Command == "balance_is"
			case opTransfer:
				kind := kindTransfer
				if cross[i] {
					kind = kindTPC
				}
				out, err := rt.Transfer(a, names[o.b], o.amount)
				return kind, err == nil && out == bank.OutcomeOK
			}
			cmd, sum := "deposit", dep
			if o.what == opWithdraw {
				cmd, sum = "withdraw", wd
			}
			rep, err := rt.Call(a, cmd, a, o.amount)
			if err != nil || rep.Command != bank.OutcomeOK {
				return kindWrite, false
			}
			*sum += o.amount
			return kindWrite, true
		})
	}
	// Conservation across shards: transfers, 2PC ones included, move money
	// and never make or lose it.
	inst.audit = func() error {
		want := preload
		for k := range deposited {
			want += deposited[k] - withdrawn[k]
		}
		total, err := shardTotal()
		if err != nil {
			return err
		}
		if total != want {
			return fmt.Errorf("shards hold %d, preload plus acknowledged deposits minus withdrawals is %d", total, want)
		}
		return nil
	}
	// The probe talks to the first shard about an account that lives there.
	probeAcct := names[0]
	for _, a := range names {
		if m, _ := rg.Owner(a); m.Name == members[0].Name {
			probeAcct = a
			break
		}
	}
	probe, err := bankProbe(e, w, tellers, nodes[0], members[0].Native, members[0].Amo, met, probeAcct)
	if err != nil {
		return nil, err
	}
	inst.layers = layerSources{
		worlds: []*guardian.World{w}, net: "netsim", amo: met, clientNode: "tellers",
		nsNode: "registry", coordNode: "txc", ring: rg, keys: drawn, probe: probe,
	}
	return inst, nil
}
