// Benchmarks — one per reproduced table/figure (see DESIGN.md §3). Each
// benchmark measures the per-operation cost of the code path its
// experiment sweeps; `go run ./cmd/bench` regenerates the full tables.
package repro_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/airline"
	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/durable"
	"repro/internal/exp"
	"repro/internal/guardian"
	"repro/internal/netsim"
	"repro/internal/sendprim"
	"repro/internal/tpc"
	"repro/internal/transport"
	"repro/internal/vtime"
	"repro/internal/wire"
	"repro/internal/xrep"
)

const benchTimeout = 30 * time.Second

// --- E1 / Figure 1: flight guardian organizations ---

func benchFig1(b *testing.B, org string, dates int) {
	w := guardian.NewWorld(guardian.Config{})
	if err := airline.RegisterDefs(w); err != nil {
		b.Fatal(err)
	}
	sys, err := airline.Deploy(w, airline.SystemConfig{
		Regions:    []airline.RegionConfig{{Node: "hub", Flights: []int64{1}}},
		Capacity:   1 << 30,
		Org:        org,
		WorkCostUS: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	cli := w.MustAddNode("cli")
	port := sys.Directory[1]

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		a, err := airline.NewAgent(cli, "a")
		if err != nil {
			b.Error(err)
			return
		}
		i := 0
		for pb.Next() {
			i++
			date := fmt.Sprintf("d%02d", i%dates)
			if _, err := a.Request(port, "reserve", 1, fmt.Sprintf("p%d", i), date, benchTimeout); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkFig1OrganizationsSequential(b *testing.B) { benchFig1(b, airline.OrgSequential, 16) }
func BenchmarkFig1OrganizationsSerializer(b *testing.B) { benchFig1(b, airline.OrgSerializer, 16) }
func BenchmarkFig1OrganizationsMonitor(b *testing.B)    { benchFig1(b, airline.OrgMonitor, 16) }
func BenchmarkFig1SingleDateContention(b *testing.B)    { benchFig1(b, airline.OrgMonitor, 1) }

// --- E2 / Figure 2: central vs regional ---

func benchFig2(b *testing.B, layout string) {
	w := guardian.NewWorld(guardian.Config{
		Net: netsim.Config{BaseLatency: 200 * time.Microsecond},
	})
	if err := airline.RegisterDefs(w); err != nil {
		b.Fatal(err)
	}
	cfg := airline.SystemConfig{Capacity: 1 << 30, Org: airline.OrgMonitor}
	switch layout {
	case "central":
		cfg.Regions = []airline.RegionConfig{{Node: "central", Flights: []int64{1, 2, 3, 4}}}
	case "regional":
		cfg.Regions = []airline.RegionConfig{
			{Node: "r0", Flights: []int64{1, 2}},
			{Node: "r1", Flights: []int64{3, 4}},
		}
	case "relay":
		cfg.RelayReplies = true
		cfg.Regions = []airline.RegionConfig{
			{Node: "r0", Flights: []int64{1, 2}},
			{Node: "r1", Flights: []int64{3, 4}},
		}
	}
	sys, err := airline.Deploy(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// The agent sits at the node owning flight 1 when regional (local
	// access), or at a separate office when central.
	var agentNode *guardian.Node
	if layout == "central" {
		agentNode = w.MustAddNode("office")
	} else {
		agentNode, _ = w.Node("r0")
	}
	a, err := airline.NewAgent(agentNode, "a")
	if err != nil {
		b.Fatal(err)
	}
	port := sys.Directory[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Request(port, "reserve", 1, fmt.Sprintf("p%d", i), "d1", benchTimeout); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2RegionalCentral(b *testing.B) { benchFig2(b, "central") }
func BenchmarkFig2RegionalLocal(b *testing.B)   { benchFig2(b, "regional") }
func BenchmarkFig2RegionalRelayed(b *testing.B) { benchFig2(b, "relay") }

// --- E3 / Figure 3: guardian creation ---

func BenchmarkFig3CreationLocal(b *testing.B) {
	w := guardian.NewWorld(guardian.Config{})
	w.MustRegister(&guardian.GuardianDef{TypeName: "t", Init: func(ctx *guardian.Ctx) {}})
	n := w.MustAddNode("n")
	g, _, err := n.NewDriver("creator")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Create("t"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3CreationRemote(b *testing.B) {
	w := guardian.NewWorld(guardian.Config{})
	w.MustRegister(&guardian.GuardianDef{TypeName: "t", Init: func(ctx *guardian.Ctx) {}})
	w.MustAddNode("target")
	src := w.MustAddNode("src")
	g, drv, err := src.NewDriver("creator")
	if err != nil {
		b.Fatal(err)
	}
	reply := g.MustNewPort(guardian.CreatedReplyType, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := drv.SendCheckedReplyTo(guardian.PrimordialType, guardian.PrimordialPort("target"),
			reply.Name(), "create", "t", xrep.Seq{}); err != nil {
			b.Fatal(err)
		}
		m, st := drv.Receive(benchTimeout, reply)
		if st != guardian.RecvOK || m.Command != "created" {
			b.Fatalf("create failed: %v", st)
		}
	}
}

// --- E4 / §3: the three send primitives ---

func benchPrimitive(b *testing.B, prim string) {
	w := guardian.NewWorld(guardian.Config{})
	pt := guardian.NewPortType("bench_port").
		Msg("work", xrep.KindString).
		Replies("work", "done").
		Msg("work_sync", xrep.KindString, xrep.KindRec)
	w.MustRegister(&guardian.GuardianDef{
		TypeName: "worker",
		Provides: []*guardian.PortType{pt},
		Init: func(ctx *guardian.Ctx) {
			guardian.NewReceiver(ctx.Ports[0]).
				When("work", func(pr *guardian.Process, m *guardian.Message) {
					if !m.ReplyTo.IsZero() {
						_ = pr.Send(m.ReplyTo, "done", m.Str(0))
					}
				}).
				When("work_sync", func(pr *guardian.Process, m *guardian.Message) {
					_ = sendprim.Acknowledge(pr, m)
				}).
				Loop(ctx.Proc, nil)
		},
	})
	srv := w.MustAddNode("srv")
	created, err := srv.Bootstrap("worker")
	if err != nil {
		b.Fatal(err)
	}
	cli := w.MustAddNode("cli")
	g, drv, err := cli.NewDriver("d")
	if err != nil {
		b.Fatal(err)
	}
	done := guardian.NewPortType("done_port").Msg("done", xrep.KindString)
	reply := g.MustNewPort(done, 8)
	port := created.Ports[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch prim {
		case "no-wait":
			if err := drv.SendReplyTo(port, reply.Name(), "work", "x"); err != nil {
				b.Fatal(err)
			}
			if m, st := drv.Receive(benchTimeout, reply); st != guardian.RecvOK || m.Command != "done" {
				b.Fatal(st)
			}
		case "sync":
			if err := sendprim.SyncSend(drv, port, benchTimeout, "work_sync", "x"); err != nil {
				b.Fatal(err)
			}
		case "call":
			if _, err := sendprim.Call(drv, port, done,
				sendprim.CallOptions{Timeout: benchTimeout}, "work", "x"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE4PrimitivesNoWait(b *testing.B)     { benchPrimitive(b, "no-wait") }
func BenchmarkE4PrimitivesSyncSend(b *testing.B)   { benchPrimitive(b, "sync") }
func BenchmarkE4PrimitivesRemoteCall(b *testing.B) { benchPrimitive(b, "call") }

// --- E5 / §3.4: message delivery path (wire + netsim + dispatch) ---

func BenchmarkE5DeliveryOneWay(b *testing.B) {
	w := guardian.NewWorld(guardian.Config{})
	pt := guardian.NewPortType("sink").Msg("data", xrep.KindInt)
	received := make(chan struct{}, 1024)
	w.MustRegister(&guardian.GuardianDef{
		TypeName:     "sink",
		Provides:     []*guardian.PortType{pt},
		PortCapacity: 4096,
		Init: func(ctx *guardian.Ctx) {
			guardian.NewReceiver(ctx.Ports[0]).
				When("data", func(pr *guardian.Process, m *guardian.Message) {
					received <- struct{}{}
				}).
				Loop(ctx.Proc, nil)
		},
	})
	srv := w.MustAddNode("srv")
	created, err := srv.Bootstrap("sink")
	if err != nil {
		b.Fatal(err)
	}
	cli := w.MustAddNode("cli")
	_, drv, err := cli.NewDriver("d")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := drv.Send(created.Ports[0], "data", i); err != nil {
			b.Fatal(err)
		}
		<-received
	}
}

// --- E6 / Figure 5: one full clerk transaction ---

func BenchmarkE6Transactions(b *testing.B) {
	w := guardian.NewWorld(guardian.Config{})
	if err := airline.RegisterDefs(w); err != nil {
		b.Fatal(err)
	}
	sys, err := airline.Deploy(w, airline.SystemConfig{
		Regions:    []airline.RegionConfig{{Node: "region", Flights: []int64{1}}},
		UINodes:    []string{"office"},
		Capacity:   1 << 30,
		Org:        airline.OrgMonitor,
		DeadlineMS: 5000,
	})
	if err != nil {
		b.Fatal(err)
	}
	office, _ := w.Node("office")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clerk, err := airline.NewClerk(office, "c")
		if err != nil {
			b.Fatal(err)
		}
		if err := clerk.Begin(sys.UIPorts["office"], fmt.Sprintf("p%d", i), benchTimeout); err != nil {
			b.Fatal(err)
		}
		if _, err := clerk.Reserve(1, fmt.Sprintf("d%d", i%30), benchTimeout); err != nil {
			b.Fatal(err)
		}
		if _, _, err := clerk.Done(benchTimeout); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7 / §2.2: crash + recovery cycle ---

func BenchmarkE7Recovery(b *testing.B) {
	w := guardian.NewWorld(guardian.Config{})
	if err := w.Register(bank.BranchDef()); err != nil {
		b.Fatal(err)
	}
	srv := w.MustAddNode("srv")
	created, err := srv.Bootstrap(bank.BranchDefName)
	if err != nil {
		b.Fatal(err)
	}
	cli := w.MustAddNode("cli")
	g, drv, err := cli.NewDriver("d")
	if err != nil {
		b.Fatal(err)
	}
	reply := g.MustNewPort(bank.ClientReplyType, 8)
	call := func(cmd string, args ...any) *guardian.Message {
		if err := drv.SendReplyTo(created.Ports[0], reply.Name(), cmd, args...); err != nil {
			b.Fatal(err)
		}
		m, st := drv.Receive(benchTimeout, reply)
		if st != guardian.RecvOK {
			b.Fatal(st)
		}
		return m
	}
	call("open", "acct")
	for i := 0; i < 500; i++ {
		call("deposit", "acct", int64(1), fmt.Sprintf("op%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Crash()
		if err := srv.Restart(); err != nil {
			b.Fatal(err)
		}
		if m := call("balance", "acct"); m.Int(0) != 500 {
			b.Fatalf("recovered balance %d", m.Int(0))
		}
	}
}

// --- E8 / §3.3: abstract value transmission ---

func BenchmarkE8ExternalRepEncode(b *testing.B) {
	h := xrep.NewHashAssocMem()
	for i := 0; i < 1000; i++ {
		h.AddItem(fmt.Sprintf("key%06d", i), xrep.Int(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := xrep.Encode(h)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.MarshalValue(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8ExternalRepDecode(b *testing.B) {
	h := xrep.NewHashAssocMem()
	for i := 0; i < 1000; i++ {
		h.AddItem(fmt.Sprintf("key%06d", i), xrep.Int(i))
	}
	v, err := xrep.Encode(h)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := wire.MarshalValue(v)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v2, err := wire.UnmarshalValue(raw)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := xrep.DecodeTreeAssocMem(v2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkWireFrameRoundTrip(b *testing.B) {
	f := &wire.Frame{
		Dest:    xrep.PortName{Node: "n", Guardian: 3, Port: 1},
		SrcNode: "m",
		Command: "reserve",
		Args:    xrep.Seq{xrep.Int(22), xrep.Str("p-100432"), xrep.Str("1979-12-10")},
		ReplyTo: xrep.PortName{Node: "m", Guardian: 9, Port: 2},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := f.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.UnmarshalFrame(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetsimSend(b *testing.B) {
	net := netsim.New(vtime.NewReal(), netsim.Config{})
	done := make(chan struct{}, 1024)
	net.Attach("a", func(netsim.Addr, []byte) {})
	net.Attach("b", func(netsim.Addr, []byte) { done <- struct{}{} })
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Send("a", "b", payload); err != nil {
			b.Fatal(err)
		}
		<-done
	}
}

// --- experiment harness smoke (ensures cmd/bench paths stay green) ---

func BenchmarkExperimentHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunE8ExternalRep(exp.Scale(0.05)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9 / extension: two-phase commit per-transaction cost ---

func BenchmarkE9TwoPhaseCommit(b *testing.B) {
	w := guardian.NewWorld(guardian.Config{})
	w.MustRegister(tpc.CoordinatorDef())
	w.MustRegister(tpc.NewParticipantDef("bench_participant", func() tpc.Resource {
		return tpc.NewSlotResource(map[string]int64{"unit": 1 << 40})
	}))
	coordNode := w.MustAddNode("coord")
	created, err := coordNode.Bootstrap(tpc.CoordinatorDefName, int64(2000), int64(2))
	if err != nil {
		b.Fatal(err)
	}
	parts := make(xrep.Seq, 3)
	for i := range parts {
		pn := w.MustAddNode(fmt.Sprintf("p%d", i))
		pc, err := pn.Bootstrap("bench_participant")
		if err != nil {
			b.Fatal(err)
		}
		parts[i] = xrep.Seq{pc.Ports[0], tpc.SlotOp("unit", 1)}
	}
	cli := w.MustAddNode("cli")
	g, drv, err := cli.NewDriver("c")
	if err != nil {
		b.Fatal(err)
	}
	reply := g.MustNewPort(tpc.ClientReplyType, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txid := fmt.Sprintf("tx%d", i)
		if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "begin", txid, parts); err != nil {
			b.Fatal(err)
		}
		m, st := drv.Receive(benchTimeout, reply)
		if st != guardian.RecvOK || m.Command != tpc.OutcomeCommitted {
			b.Fatalf("tx %s: %v %v", txid, st, m)
		}
	}
}

// --- E10 / extension: at-most-once call overhead ---

// BenchmarkE10AtMostOnceCall measures the per-call cost of the session
// layer itself — envelope, request id, dedup lookup, cached-reply
// bookkeeping — on a clean network, so the difference from a bare
// request/response round trip is the price of exactly-once.
func BenchmarkE10AtMostOnceCall(b *testing.B) {
	w := guardian.NewWorld(guardian.Config{})
	w.MustRegister(bank.BranchDef())
	branch := w.MustAddNode("branch")
	created, err := branch.Bootstrap(bank.BranchDefName)
	if err != nil {
		b.Fatal(err)
	}
	cli := w.MustAddNode("cli")
	_, drv, err := cli.NewDriver("teller")
	if err != nil {
		b.Fatal(err)
	}
	caller, err := amo.NewCaller(drv, amo.CallerOptions{Timeout: benchTimeout})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := caller.Call(created.Ports[1], "open", "acct"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := caller.Call(created.Ports[1], "deposit", "acct", int64(1))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Command != bank.OutcomeOK {
			b.Fatalf("deposit: %s", rep.Command)
		}
	}
}

// --- E12 / transport: simulator adapter vs real UDP loopback ---

// BenchmarkTransportLoopback measures one full guardian-level round trip —
// no-wait send out, sink delivery, acknowledgment back — over the three
// Transport implementations: the in-memory simulator adapter every test
// uses, real UDP sockets through the kernel's loopback, and framed
// persistent TCP connections (two transports, two listeners — a stream
// has distinct endpoints by construction). The gaps are the cost of
// actual datagrams (syscalls, copies, scheduling) and of stream framing
// relative to the simulator's direct dispatch; EXPERIMENTS.md E12/E17
// record them.
func BenchmarkTransportLoopback(b *testing.B) {
	echoDef := func() *guardian.GuardianDef {
		pt := guardian.NewPortType("echo").
			Msg("ping", xrep.KindInt, xrep.KindPortName).
			Replies("ping", "pong")
		return &guardian.GuardianDef{
			TypeName:     "echo",
			Provides:     []*guardian.PortType{pt},
			PortCapacity: 1024,
			Init: func(ctx *guardian.Ctx) {
				guardian.NewReceiver(ctx.Ports[0]).
					When("ping", func(pr *guardian.Process, m *guardian.Message) {
						_ = pr.Send(m.Port(1), "pong", m.Int(0))
					}).
					Loop(ctx.Proc, nil)
			},
		}
	}
	// run drives the round trips with the server node on wSrv and the
	// driver on wCli — the same world for the transports that carry both
	// endpoints on one instance, two worlds over two sockets for TCP.
	run := func(b *testing.B, wSrv, wCli *guardian.World) {
		wSrv.MustRegister(echoDef())
		srv := wSrv.MustAddNode("srv")
		created, err := srv.Bootstrap("echo")
		if err != nil {
			b.Fatal(err)
		}
		cli := wCli.MustAddNode("cli")
		g, drv, err := cli.NewDriver("d")
		if err != nil {
			b.Fatal(err)
		}
		reply, err := g.NewPort(guardian.NewPortType("pong_port").Msg("pong", xrep.KindInt), 64)
		if err != nil {
			b.Fatal(err)
		}
		roundTrip := func(i int) {
			if err := drv.Send(created.Ports[0], "ping", i, reply.Name()); err != nil {
				b.Fatal(err)
			}
			if _, st := drv.Receive(benchTimeout, reply); st != guardian.RecvOK {
				b.Fatalf("round trip %d: receive status %v", i, st)
			}
		}
		// One warmup round trip keeps connection dialing (TCP) and route
		// learning out of the measured loop: the steady state is what the
		// arms are being compared on.
		roundTrip(-1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			roundTrip(i)
		}
	}

	b.Run("netsim", func(b *testing.B) {
		w := guardian.NewWorld(guardian.Config{
			Transport: netsim.New(vtime.NewReal(), netsim.Config{}),
		})
		defer w.Close()
		run(b, w, w)
	})
	b.Run("udp", func(b *testing.B) {
		udp, err := transport.NewUDP(transport.UDPConfig{
			Peers: map[transport.Addr]string{
				"srv": "127.0.0.1:0",
				"cli": "127.0.0.1:0",
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		w := guardian.NewWorld(guardian.Config{Transport: udp})
		defer w.Close()
		run(b, w, w)
	})
	b.Run("tcp", func(b *testing.B) {
		srvTr, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0"})
		if err != nil {
			b.Fatal(err)
		}
		cliTr, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0"})
		if err != nil {
			b.Fatal(err)
		}
		if err := cliTr.SetPeer("srv", srvTr.ListenAddr()); err != nil {
			b.Fatal(err)
		}
		wSrv := guardian.NewWorld(guardian.Config{Transport: srvTr})
		defer wSrv.Close()
		wCli := guardian.NewWorld(guardian.Config{Transport: cliTr})
		defer wCli.Close()
		run(b, wSrv, wCli)
	})
}

// --- E13 / durable: group commit vs naive log-then-ack ---

// benchE13 measures concurrent AppendSync throughput on a real on-disk
// WAL. With group commit (the default) concurrent committers coalesce
// into one fsync per batch; the control arm forces one serialized fsync
// per call — the naive log-then-ack discipline. The reported fsyncs/op
// is the coalescing factor's inverse: well below 1.0 under concurrency
// for group commit, exactly 1.0 for the naive arm.
func benchE13(b *testing.B, noGroup bool) {
	store, err := durable.OpenWAL(b.TempDir(), durable.WALConfig{NoGroupCommit: noGroup})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	log, err := store.OpenLog("bench")
	if err != nil {
		b.Fatal(err)
	}
	rec := make([]byte, 128)
	// Force many concurrent committers even on a single-CPU runner:
	// coalescing only happens when callers pile up behind an in-flight
	// fsync, and fsync parks the goroutine, not the CPU.
	b.SetParallelism(8 * runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			log.AppendSync(rec)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(store.SyncCount())/float64(b.N), "fsyncs/op")
}

func BenchmarkE13GroupCommit(b *testing.B) { benchE13(b, false) }
func BenchmarkE13NaiveSync(b *testing.B)   { benchE13(b, true) }
