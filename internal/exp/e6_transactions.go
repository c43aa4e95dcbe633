package exp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/airline"
	"repro/internal/guardian"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// The transaction-robustness experiment at full size.
const (
	e6Transactions           = 30   // per scenario
	e6RequestsPerTransaction = 4    // reserves per transaction
	e6Capacity               = 1000 // per (flight, date): small enough that oversell would show
	e6DeadlineMS             = 200  // the transaction process's reply deadline
	e6Timeout                = 20 * time.Second
)

// RunE6Transactions reproduces §3.5's robustness narrative: transactions
// run while the regional node or the UI node crashes; timeouts select the
// timeout arm, clerks retry idempotent requests, crashed UI nodes forget
// their transactions, and after final recovery no acknowledged reservation
// is lost and no seat double-booked.
func RunE6Transactions(scale Scale) (*Result, error) {
	transactions := scale.N(e6Transactions, 4)
	res := &Result{ID: "E6 (Figure 5 / §3.5)"}
	tab := metrics.NewTable(
		"Figure 5 — transaction robustness under crash injection",
		"scenario", "transactions", "acked-reserves", "cant-communicate", "retries", "forgotten-trans", "lost-acked", "oversold-dates")
	res.Tables = append(res.Tables, tab)

	for _, scenario := range []string{"no-crash", "regional-crash", "ui-crash"} {
		row, err := runE6Scenario(transactions, scenario)
		if err != nil {
			return nil, err
		}
		tab.AddRow(scenario, transactions, row.acked, row.cantComm, row.retries, row.forgotten, row.lostAcked, row.oversold)
		if row.lostAcked == 0 {
			res.Holdsf("%s: every acknowledged reservation survived (permanence of effect)", scenario)
		} else {
			res.Deviatesf("%s: %d acknowledged reservations lost", scenario, row.lostAcked)
		}
		if row.oversold == 0 {
			res.Holdsf("%s: no date oversold despite retries (idempotency)", scenario)
		} else {
			res.Deviatesf("%s: %d dates oversold", scenario, row.oversold)
		}
		if scenario == "regional-crash" && row.cantComm == 0 {
			res.Notef("regional-crash: crash injected but no timeout observed — crash window may be too narrow")
		}
		if scenario == "ui-crash" {
			if row.forgotten > 0 {
				res.Holdsf("ui-crash: %d in-flight transaction(s) forgotten by the crash; the clerk redid the pending request in a fresh transaction without double booking", row.forgotten)
			} else {
				res.Deviatesf("ui-crash: crash did not forget the in-flight transaction")
			}
		}
	}
	return res, nil
}

type e6Row struct {
	acked     int
	cantComm  int
	retries   int
	forgotten int
	lostAcked int
	oversold  int
}

func runE6Scenario(transactions int, scenario string) (e6Row, error) {
	var row e6Row
	w := guardian.NewWorld(guardian.Config{
		Net: netsim.Config{Seed: 11, BaseLatency: time.Millisecond},
	})
	if err := airline.RegisterDefs(w); err != nil {
		return row, err
	}
	sys, err := airline.Deploy(w, airline.SystemConfig{
		Regions:    []airline.RegionConfig{{Node: "region", Flights: []int64{1, 2}}},
		UINodes:    []string{"office"},
		Capacity:   e6Capacity,
		Org:        airline.OrgMonitor,
		DeadlineMS: e6DeadlineMS,
	})
	if err != nil {
		return row, err
	}
	office, _ := w.Node("office")
	region, _ := w.Node("region")

	// acked tracks every (flight, passenger, date) whose reserve the clerk
	// saw acknowledged "ok" — the ground truth for the permanence audit.
	type seat struct {
		flight int64
		pid    string
		date   string
	}
	var acked []seat

	ui := sys.UIPorts["office"]
	dg := workload.NewDateGen(3, workload.SkewUniform, 8)
	for tx := 0; tx < transactions; tx++ {
		// Crash injection windows.
		if scenario == "regional-crash" && tx == transactions/3 {
			region.Crash()
		}
		if scenario == "regional-crash" && tx == transactions/3+2 {
			if err := region.Restart(); err != nil {
				return row, err
			}
		}
		clerk, err := airline.NewClerk(office, fmt.Sprintf("clerk%d", tx))
		if err != nil {
			return row, err
		}
		pid := fmt.Sprintf("cust-%03d", tx)
		if err := clerk.Begin(ui, pid, e6Timeout); err != nil {
			// UI briefly unavailable around a crash: skip this customer.
			continue
		}
		for r := 0; r < e6RequestsPerTransaction; r++ {
			flight := int64(r%2 + 1)
			date := dg.Next()
			// §3.5's second failure story: the node running the
			// transaction process fails mid-conversation. The transaction
			// is forgotten; the clerk starts a new one at the re-deployed
			// interface guardian, "beginning with the request being worked
			// on when the node failed".
			if scenario == "ui-crash" && tx == transactions/2 && r == e6RequestsPerTransaction/2 {
				office.Crash()
				if err := office.Restart(); err != nil {
					return row, err
				}
				if ui, err = sys.RedeployUI("office", e6DeadlineMS); err != nil {
					return row, err
				}
				if _, err := clerk.Reserve(flight, date, e6Timeout); err != nil {
					row.forgotten++ // old transaction port is gone
				}
				// The clerk (a driver guardian) also died with the node;
				// re-create it and redo the request in a new transaction.
				clerk, err = airline.NewClerk(office, fmt.Sprintf("clerk%db", tx))
				if err != nil {
					return row, err
				}
				if err := clerk.Begin(ui, pid, e6Timeout); err != nil {
					return row, err
				}
			}
			outcome, err := clerk.Reserve(flight, date, e6Timeout)
			if err != nil {
				break // transaction process gone (ui crash window)
			}
			if strings.Contains(outcome, "communicate") {
				row.cantComm++
				// The clerk retries the idempotent request once.
				row.retries++
				outcome, err = clerk.Reserve(flight, date, e6Timeout)
				if err != nil {
					break
				}
			}
			if outcome == airline.OutcomeOK || outcome == airline.OutcomePreReserved {
				row.acked++
				acked = append(acked, seat{flight, pid, date})
			}
		}
		_, _, _ = clerk.Done(e6Timeout) // best-effort finish
	}

	// Final recovery: bounce the regional node once more so the audit sees
	// only durable state.
	region.Crash()
	if err := region.Restart(); err != nil {
		return row, err
	}
	waitQuiesce(w)

	// Audit: every acknowledged reserve must still be present, and no
	// (flight, date) may exceed capacity.
	auditor, err := airline.NewAgent(office, "auditor")
	if err != nil {
		return row, err
	}
	checked := make(map[seat]bool)
	for _, s := range acked {
		if checked[s] {
			continue
		}
		checked[s] = true
		out, err := auditor.Request(sys.Directory[s.flight], "reserve", s.flight, s.pid, s.date, e6Timeout)
		if err != nil || out != airline.OutcomePreReserved {
			row.lostAcked++
		}
	}
	// Oversell check via guardian snapshots at the regional node.
	for _, id := range region.Guardians() {
		g, ok := region.GuardianByID(id)
		if !ok || g.DefName() != airline.FlightDefName {
			continue
		}
		for _, date := range dg.Dates() {
			snap, ok := airline.SnapshotFlight(g, date)
			if ok && int64(snap.Reserved) > e6Capacity {
				row.oversold++
			}
		}
	}
	return row, nil
}
