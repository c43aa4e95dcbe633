package exp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/guardian"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/xrep"
)

// The transport comparison at full size.
const (
	e17Rounds = 3_000 // timed guardian-level round trips per arm
	// e17Warmup round trips run before timing starts, so connection dialing
	// (TCP) and route learning stay out of the measured distribution.
	e17Warmup  = 50
	e17Timeout = 10 * time.Second // per round trip
)

// e17RepSizes are the external-rep payload sizes of the ceiling table.
var e17RepSizes = []int{1 << 10, 64 << 10, 1 << 20, 4 << 20}

// RunE17Transport compares one guardian-level round trip — no-wait ping
// out, echoed pong back — across the three Transport implementations: the
// in-memory simulator every test runs on, UDP datagrams through the
// kernel's loopback, and framed persistent TCP connections (two
// transports, two listeners — a stream has distinct endpoints by
// construction). The latency table is descriptive: what the experiment
// *claims* is the second table, the ceiling the stream removes. A
// datagram transport refuses any packet over its MTU, so an external rep
// bigger than ~64 KiB can never cross UDP no matter how the runtime
// fragments; over TCP the same rep rides a single frame and round-trips
// intact.
func RunE17Transport(scale Scale) (*Result, error) {
	rounds := scale.N(e17Rounds, 200)
	res := &Result{ID: "E17 (extension: stream transport)"}

	latTab := metrics.NewTable(
		fmt.Sprintf("Guardian round trip by transport: %d rounds, 64-byte payload", rounds),
		"transport", "p50", "p99", "avg", "rt/sec")
	res.Tables = append(res.Tables, latTab)

	payload := strings.Repeat("x", 64)
	arms := []struct {
		name  string
		build func() (wSrv, wCli *guardian.World, err error)
	}{
		{"netsim", func() (*guardian.World, *guardian.World, error) {
			w := guardian.NewWorld(guardian.Config{Net: netsim.Config{Seed: 17}})
			return w, w, nil
		}},
		{"udp", func() (*guardian.World, *guardian.World, error) {
			udp, err := transport.NewUDP(transport.UDPConfig{
				Peers: map[transport.Addr]string{"srv": "127.0.0.1:0", "cli": "127.0.0.1:0"},
			})
			if err != nil {
				return nil, nil, err
			}
			w := guardian.NewWorld(guardian.Config{Transport: udp})
			return w, w, nil
		}},
		{"tcp", e17TCPWorlds},
	}
	const tick = 100 * time.Nanosecond
	for _, arm := range arms {
		wSrv, wCli, err := arm.build()
		if err != nil {
			return nil, fmt.Errorf("exp: %s arm: %w", arm.name, err)
		}
		f, err := runE17RoundTrips(wSrv, wCli, rounds, payload)
		wSrv.Close()
		if wCli != wSrv {
			wCli.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("exp: %s arm: %w", arm.name, err)
		}
		latTab.AddRow(arm.name, f.Latency.P50.Round(tick), f.Latency.P99.Round(tick),
			(f.Elapsed / time.Duration(rounds)).Round(tick), fmt.Sprintf("%.0f", f.PerSecond()))
	}
	res.Notef("shape: the simulator dispatches in-process, UDP pays syscalls and copies, TCP adds stream framing on the same loopback — all three agree on the guardian semantics above them")

	repTab := metrics.NewTable(
		"External reps vs the datagram ceiling (UDP MTU 1400, absolute max 65507)",
		"rep bytes", "udp datagram", "tcp round trip")
	res.Tables = append(res.Tables, repTab)

	// The UDP column is a direct transport-level verdict: one attached
	// pair, one Send per size, the error (or its absence) recorded as-is.
	udp, err := transport.NewUDP(transport.UDPConfig{
		Peers: map[transport.Addr]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"},
	})
	if err != nil {
		return nil, err
	}
	if err := udp.Attach("a", func(from transport.Addr, payload []byte) {}); err != nil {
		return nil, err
	}
	if err := udp.Attach("b", func(from transport.Addr, payload []byte) {}); err != nil {
		return nil, err
	}
	// The TCP column round-trips the whole rep through a guardian echo:
	// one two-world pair reused across sizes, FragmentMTU raised to the
	// frame bound so each rep ships as a single frame.
	wSrv, wCli, err := e17TCPWorlds()
	if err != nil {
		return nil, err
	}
	defer wSrv.Close()
	defer wCli.Close()
	echo, drv, reply, err := e17EchoPair(wSrv, wCli)
	if err != nil {
		return nil, err
	}
	allCarried := true
	for _, size := range e17RepSizes {
		verdict := "carried"
		if err := udp.Send("a", "b", make([]byte, size)); err != nil {
			verdict = fmt.Sprintf("refused (%v)", err)
		}
		start := time.Now()
		if err := e17RoundTrip(drv, echo, reply, strings.Repeat("y", size)); err != nil {
			allCarried = false
			repTab.AddRow(size, verdict, fmt.Sprintf("FAILED: %v", err))
			continue
		}
		repTab.AddRow(size, verdict, time.Since(start).Round(10*time.Microsecond))
	}
	udp.Close()
	if allCarried {
		res.Holdsf("every rep, including those far past the 65507-byte datagram maximum, round-tripped intact over one TCP frame")
	} else {
		res.Deviatesf("a rep failed to round-trip over TCP; the stream transport did not remove the ceiling")
	}
	return res, nil
}

// e17TCPWorlds builds the two-listener TCP pair: the server world hosts
// the echo, the client world routes "srv" at the server's bound address
// and learns the reply route from inbound frames.
func e17TCPWorlds() (*guardian.World, *guardian.World, error) {
	srvTr, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		return nil, nil, err
	}
	cliTr, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		srvTr.Close()
		return nil, nil, err
	}
	if err := cliTr.SetPeer("srv", srvTr.ListenAddr()); err != nil {
		srvTr.Close()
		cliTr.Close()
		return nil, nil, err
	}
	// Streams have no MTU: let the runtime ship a whole rep as one frame.
	mtu := transport.DefaultTCPMaxFrame
	wSrv := guardian.NewWorld(guardian.Config{Transport: srvTr, FragmentMTU: mtu})
	wCli := guardian.NewWorld(guardian.Config{Transport: cliTr, FragmentMTU: mtu})
	return wSrv, wCli, nil
}

// e17EchoPair boots the echo guardian on wSrv's "srv" node and a driver
// with a reply port on wCli's "cli" node.
func e17EchoPair(wSrv, wCli *guardian.World) (echo xrep.PortName, drv *guardian.Process, reply *guardian.Port, err error) {
	pt := guardian.NewPortType("echo").
		Msg("ping", xrep.KindString, xrep.KindPortName).
		Replies("ping", "pong")
	wSrv.MustRegister(&guardian.GuardianDef{
		TypeName:     "echo",
		Provides:     []*guardian.PortType{pt},
		PortCapacity: 1024,
		Init: func(ctx *guardian.Ctx) {
			// No failure arm: a pong's round-trip timeout already charged the miss.
			guardian.NewReceiver(ctx.Ports[0]).
				When("ping", func(pr *guardian.Process, m *guardian.Message) {
					_ = pr.Send(m.Port(1), "pong", m.Str(0))
				}).
				Loop(ctx.Proc, nil)
		},
	})
	created, err := wSrv.MustAddNode("srv").Bootstrap("echo")
	if err != nil {
		return echo, nil, nil, err
	}
	g, drv, err := wCli.MustAddNode("cli").NewDriver("d")
	if err != nil {
		return echo, nil, nil, err
	}
	reply, err = g.NewPort(guardian.NewPortType("pong_port").Msg("pong", xrep.KindString), 64)
	if err != nil {
		return echo, nil, nil, err
	}
	return created.Ports[0], drv, reply, nil
}

// e17RoundTrip sends one ping and waits for its pong.
func e17RoundTrip(drv *guardian.Process, echo xrep.PortName, reply *guardian.Port, payload string) error {
	if err := drv.Send(echo, "ping", payload, reply.Name()); err != nil {
		return err
	}
	m, st := drv.Receive(e17Timeout, reply)
	if st != guardian.RecvOK {
		return fmt.Errorf("receive status %v", st)
	}
	if len(m.Str(0)) != len(payload) {
		return fmt.Errorf("echoed %d bytes, want %d", len(m.Str(0)), len(payload))
	}
	return nil
}

// runE17RoundTrips times rounds ping/pong exchanges after e17Warmup
// unmeasured ones.
func runE17RoundTrips(wSrv, wCli *guardian.World, rounds int, payload string) (Fleet, error) {
	echo, drv, reply, err := e17EchoPair(wSrv, wCli)
	if err != nil {
		return Fleet{}, err
	}
	for i := 0; i < e17Warmup; i++ {
		if err := e17RoundTrip(drv, echo, reply, payload); err != nil {
			return Fleet{}, fmt.Errorf("warmup %d: %w", i, err)
		}
	}
	f, err := runSequential(wCli.Clock(), rounds, func(int) error {
		return e17RoundTrip(drv, echo, reply, payload)
	})
	if err != nil {
		return f, err
	}
	return f, f.failedErr("round trips")
}
