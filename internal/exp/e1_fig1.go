package exp

import (
	"fmt"
	"time"

	"repro/internal/airline"
	"repro/internal/guardian"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// The Figure-1 experiment at full size.
const (
	e1Clients           = 8  // concurrent requesting agents
	e1RequestsPerClient = 60 // each agent's closed-loop request count
	e1Dates             = 16 // size of the date range
	// e1WorkCostUS is the simulated per-request work in microseconds; it
	// is what concurrency can overlap.
	e1WorkCostUS = 2000
	e1Capacity   = 1 << 30 // seats per date: large, so outcomes stay "ok"
	e1Timeout    = 30 * time.Second
)

// RunE1Fig1 reproduces Figure 1: the three flight-guardian organizations
// under three date skews. The paper's claim: "Organizations 2 and 3 can
// provide concurrent manipulation of the data base, while organization 1
// cannot" — so the serializer and monitor organizations should outperform
// one-at-a-time whenever requests spread over dates, and collapse to its
// throughput when every request hits a single date.
func RunE1Fig1(scale Scale) (*Result, error) {
	clients := scale.N(e1Clients, 2)
	requests := clients * scale.N(e1RequestsPerClient, 5)
	res := &Result{ID: "E1 (Figure 1)"}
	tab := metrics.NewTable(
		"Figure 1 — flight guardian organizations: throughput (req/s) and latency by date skew",
		"org", "skew", "requests", "throughput", "p50", "p95")
	res.Tables = append(res.Tables, tab)

	// tput is throughput by (org, skew).
	tput := map[[2]string]float64{}
	for _, org := range []string{airline.OrgSequential, airline.OrgSerializer, airline.OrgMonitor} {
		for _, skew := range []workload.Skew{workload.SkewUniform, workload.SkewZipf, workload.SkewSingle} {
			f, err := runE1Cell(clients, requests, org, skew)
			if err != nil {
				return nil, err
			}
			tab.AddRow(org, string(skew), requests,
				f.PerSecond(), f.Latency.P50.String(), f.Latency.P95.String())
			tput[[2]string{org, string(skew)}] = f.PerSecond()
		}
	}

	// Shape checks against the paper's claim.
	get := func(org, skew string) float64 { return tput[[2]string{org, skew}] }
	seqUni := get(airline.OrgSequential, "uniform")
	for _, org := range []string{airline.OrgSerializer, airline.OrgMonitor} {
		if u := get(org, "uniform"); u > seqUni {
			res.Holdsf("%s beats sequential under uniform skew (%.1f vs %.1f req/s, %.2fx)",
				org, u, seqUni, u/seqUni)
		} else {
			res.Deviatesf("%s did not beat sequential under uniform skew (%.1f vs %.1f)",
				org, u, seqUni)
		}
		single, uni := get(org, "single"), get(org, "uniform")
		if single < uni {
			res.Holdsf("%s degrades under single-date contention (%.1f vs %.1f req/s)",
				org, single, uni)
		} else {
			res.Deviatesf("%s did not degrade under single-date contention", org)
		}
	}
	return res, nil
}

func runE1Cell(clients, requests int, org string, skew workload.Skew) (Fleet, error) {
	w := guardian.NewWorld(guardian.Config{})
	if err := airline.RegisterDefs(w); err != nil {
		return Fleet{}, err
	}
	sys, err := airline.Deploy(w, airline.SystemConfig{
		Regions:    []airline.RegionConfig{{Node: "hub", Flights: []int64{1}}},
		Capacity:   e1Capacity,
		Org:        org,
		WorkCostUS: e1WorkCostUS,
	})
	if err != nil {
		return Fleet{}, err
	}
	cli := w.MustAddNode("clients")
	port := sys.Directory[1]

	f, err := runFleet(w.Clock(), clients, requests, func(i int) (func(int) error, error) {
		agent, err := airline.NewAgent(cli, fmt.Sprintf("agent%d", i))
		if err != nil {
			return nil, err
		}
		dates := workload.NewDateGen(int64(i+1), skew, e1Dates)
		passengers := workload.NewPassengerGen(fmt.Sprintf("c%d", i))
		return func(int) error {
			_, err := agent.Request(port, "reserve", 1, passengers.Next(), dates.Next(), e1Timeout)
			return err
		}, nil
	})
	if err != nil {
		return f, err
	}
	return f, f.failedErr("reserve requests")
}
