package exp

import (
	"fmt"
	"time"

	"repro/internal/airline"
	"repro/internal/guardian"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// The Figure-2 experiment at full size.
const (
	e2Regions           = 4 // regional nodes in the distributed layout
	e2FlightsPerRegion  = 4
	e2ClientsPerRegion  = 4 // clerk agents per region
	e2RequestsPerClient = 25
	// e2NetLatency is the one-way latency between nodes; intra-node
	// communication pays none of it, which is what makes regional
	// placement matter.
	e2NetLatency = 2 * time.Millisecond
	e2WorkCostUS = 500 // per-request flight guardian work
	// e2LocalTenths of every ten requests go to a flight in the agent's
	// own region (geographic locality of the organization).
	e2LocalTenths = 8
	e2Timeout     = 30 * time.Second
)

// RunE2Fig2 reproduces Figure 2: the distributed airline database versus a
// single central guardian, plus the reply-bypass ablation of Figure 4. The
// paper's claims: distribution reduces contention and gives faster access
// to local units (§1 advantages 1 and 2), and replies flowing directly
// from flight guardian to requester beat relaying through the regional
// manager.
func RunE2Fig2(scale Scale) (*Result, error) {
	clientsPerRegion := scale.N(e2ClientsPerRegion, 1)
	requests := e2Regions * clientsPerRegion * scale.N(e2RequestsPerClient, 5)
	res := &Result{ID: "E2 (Figure 2 / Figure 4)"}
	tab := metrics.NewTable(
		"Figure 2 — central vs regional deployment (reserve request latency)",
		"layout", "requests", "throughput", "mean", "p95", "msgs/request")
	res.Tables = append(res.Tables, tab)

	type row struct {
		tput float64
		mean time.Duration
		msgs float64
	}
	rows := map[string]row{}
	for _, layout := range []string{"central", "regional", "regional+relay"} {
		f, msgs, err := runE2Cell(clientsPerRegion, requests, layout)
		if err != nil {
			return nil, err
		}
		tab.AddRow(layout, f.OK, f.PerSecond(), f.Latency.Mean.String(), f.Latency.P95.String(), msgs)
		rows[layout] = row{f.PerSecond(), f.Latency.Mean, msgs}
	}
	central, regional, relay := rows["central"], rows["regional"], rows["regional+relay"]
	if regional.mean < central.mean {
		res.Holdsf("regional placement cuts mean latency (%v vs %v central, %.2fx)",
			regional.mean, central.mean, float64(central.mean)/float64(regional.mean))
	} else {
		res.Deviatesf("regional (%v) not faster than central (%v)", regional.mean, central.mean)
	}
	if regional.msgs < relay.msgs {
		res.Holdsf("direct replies (bypass) save %.1f messages per request vs relaying through the manager (%.1f vs %.1f); latency %v vs %v — near-equal is expected when the manager is co-resident with its flight guardians, so the relay hop is intra-node",
			relay.msgs-regional.msgs, regional.msgs, relay.msgs, regional.mean, relay.mean)
	} else {
		res.Deviatesf("relaying (%.1f msgs/req) did not cost more messages than bypass (%.1f)",
			relay.msgs, regional.msgs)
	}
	if regional.tput > central.tput {
		res.Holdsf("regional throughput exceeds central (%.1f vs %.1f req/s)",
			regional.tput, central.tput)
	} else {
		res.Deviatesf("regional throughput (%.1f) below central (%.1f)",
			regional.tput, central.tput)
	}
	return res, nil
}

func runE2Cell(clientsPerRegion, requests int, layout string) (Fleet, float64, error) {
	w := guardian.NewWorld(guardian.Config{
		Net: netsim.Config{BaseLatency: e2NetLatency},
	})
	if err := airline.RegisterDefs(w); err != nil {
		return Fleet{}, 0, err
	}

	cfg := airline.SystemConfig{Capacity: 1 << 30, Org: airline.OrgMonitor, WorkCostUS: e2WorkCostUS}
	const totalFlights = e2Regions * e2FlightsPerRegion
	if layout == "central" {
		all := make([]int64, totalFlights)
		for i := range all {
			all[i] = int64(i + 1)
		}
		cfg.Regions = []airline.RegionConfig{{Node: "central", Flights: all}}
	} else {
		cfg.RelayReplies = layout == "regional+relay"
		for r := 0; r < e2Regions; r++ {
			flights := make([]int64, e2FlightsPerRegion)
			for i := range flights {
				flights[i] = int64(r*e2FlightsPerRegion + i + 1)
			}
			cfg.Regions = append(cfg.Regions, airline.RegionConfig{
				Node: fmt.Sprintf("region%d", r), Flights: flights,
			})
		}
	}
	sys, err := airline.Deploy(w, cfg)
	if err != nil {
		return Fleet{}, 0, err
	}
	// Agents live at their region's node, or in the central layout at one
	// office node per region — the same distance from the single guardian.
	agentNodes := make([]*guardian.Node, e2Regions)
	for r := range agentNodes {
		if layout == "central" {
			agentNodes[r], err = w.AddNode(fmt.Sprintf("office%d", r))
		} else {
			agentNodes[r], err = w.Node(fmt.Sprintf("region%d", r))
		}
		if err != nil {
			return Fleet{}, 0, err
		}
	}

	msgsBefore := w.Stats().MessagesSent.Load()
	f, err := runFleet(w.Clock(), e2Regions*clientsPerRegion, requests, func(i int) (func(int) error, error) {
		r, c := i/clientsPerRegion, i%clientsPerRegion
		agent, err := airline.NewAgent(agentNodes[r], fmt.Sprintf("a%d-%d", r, c))
		if err != nil {
			return nil, err
		}
		seed := int64(r*100 + c)
		fg := workload.NewFlightGen(seed, totalFlights)
		dg := workload.NewDateGen(seed, workload.SkewUniform, 30)
		pg := workload.NewPassengerGen(fmt.Sprintf("r%dc%d", r, c))
		return func(j int) error {
			flight := fg.Next()
			if j%10 < e2LocalTenths { // bias toward local flights
				flight = int64(r*e2FlightsPerRegion) + (flight-1)%e2FlightsPerRegion + 1
			}
			_, err := agent.Request(sys.Directory[flight], "reserve", flight, pg.Next(), dg.Next(), e2Timeout)
			return err
		}, nil
	})
	if err != nil {
		return f, 0, err
	}
	if err := f.failedErr("reserve requests"); err != nil {
		return f, 0, err
	}
	waitQuiesce(w)
	msgs := float64(w.Stats().MessagesSent.Load()-msgsBefore) / float64(requests)
	return f, msgs, nil
}
