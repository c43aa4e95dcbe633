// Command airline runs the paper's Airline Reservation System (Figure 2)
// end to end on a simulated multi-node network and narrates the full §3.5
// robustness story: a clerk transaction with deferred cancels and undo, a
// regional node crash with timeout and idempotent retry, and a UI node
// crash after which transactions are forgotten.
//
// Usage:
//
//	airline [-regions 3] [-flights 4] [-latency 2ms] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/airline"
	"repro/internal/guardian"
	"repro/internal/netsim"
)

func main() {
	var (
		regions = flag.Int("regions", 3, "regional nodes")
		flights = flag.Int("flights", 4, "flights per region")
		latency = flag.Duration("latency", 2*time.Millisecond, "one-way network latency")
		seed    = flag.Int64("seed", 1, "network randomness seed")
		trace   = flag.Int("trace", 0, "print the last N runtime events at exit (0 = off)")
	)
	flag.Parse()
	logf := log.New(os.Stdout, "", 0).Printf

	w := guardian.NewWorld(guardian.Config{
		Net: netsim.Config{Seed: *seed, BaseLatency: *latency},
	})
	var tracer *guardian.RingTracer
	if *trace > 0 {
		tracer = guardian.NewRingTracer(*trace)
		w.SetTracer(tracer)
	}
	if err := airline.RegisterDefs(w); err != nil {
		log.Fatal(err)
	}

	cfg := airline.SystemConfig{
		Capacity:   3,
		Org:        airline.OrgMonitor,
		DeadlineMS: 400,
		UINodes:    []string{"office"},
	}
	for r := 0; r < *regions; r++ {
		rc := airline.RegionConfig{Node: fmt.Sprintf("region%d", r)}
		for f := 0; f < *flights; f++ {
			rc.Flights = append(rc.Flights, int64(r**flights+f+1))
		}
		cfg.Regions = append(cfg.Regions, rc)
	}
	sys, err := airline.Deploy(w, cfg)
	if err != nil {
		log.Fatal(err)
	}
	logf("deployed %d regions × %d flights, UI at office, %v one-way latency\n",
		*regions, *flights, *latency)

	office, _ := w.Node("office")
	clerk, err := airline.NewClerk(office, "clerk")
	if err != nil {
		log.Fatal(err)
	}
	const timeout = 10 * time.Second

	step := func(what string, outcome string, err error) {
		if err != nil {
			logf("  %-46s -> error: %v", what, err)
			return
		}
		logf("  %-46s -> %s", what, outcome)
	}

	logf("\n--- a clerk transaction (Figure 5) ---")
	if err := clerk.Begin(sys.UIPorts["office"], "ms-plum", timeout); err != nil {
		log.Fatal(err)
	}
	out, err := clerk.Reserve(1, "1979-12-10", timeout)
	step(`reserve(flight 1, dec-10)`, out, err)
	out, err = clerk.Reserve(1, "1979-12-10", timeout)
	step(`reserve again (idempotent)`, out, err)
	lastFlight := int64(*regions * *flights) // a flight in the last region
	out, err = clerk.Reserve(lastFlight, "1979-12-11", timeout)
	step(fmt.Sprintf("reserve(flight %d, dec-11) cross-region", lastFlight), out, err)
	out, err = clerk.Cancel(1, "1979-12-10", timeout)
	step(`cancel(flight 1) — deferred to end`, out, err)
	undone, err := clerk.UndoLast(timeout)
	step(`undo_last (drops the pending cancel)`, undone, err)
	r, c, err := clerk.Done(timeout)
	step(fmt.Sprintf("done: %d reserves kept, %d cancels done", r, c), "trans_done", err)

	logf("\n--- regional node crash: timeout, then idempotent retry (§3.5) ---")
	if err := clerk.Begin(sys.UIPorts["office"], "mr-green", timeout); err != nil {
		log.Fatal(err)
	}
	region0, _ := w.Node("region0")
	region0.Crash()
	logf("  [region0 crashed]")
	out, err = clerk.Reserve(2, "1979-12-12", timeout)
	step(`reserve(flight 2) with region down`, out, err)
	if err := region0.Restart(); err != nil {
		log.Fatal(err)
	}
	logf("  [region0 restarted; flight guardians recovered from their logs]")
	out, err = clerk.Reserve(2, "1979-12-12", timeout)
	step(`retry reserve(flight 2)`, out, err)
	r, c, err = clerk.Done(timeout)
	step(fmt.Sprintf("done: %d reserves, %d cancels", r, c), "trans_done", err)

	logf("\n--- UI node crash: transactions are forgotten (§3.5) ---")
	clerk2, err := airline.NewClerk(office, "clerk2")
	if err != nil {
		log.Fatal(err)
	}
	if err := clerk2.Begin(sys.UIPorts["office"], "mrs-white", timeout); err != nil {
		log.Fatal(err)
	}
	out, err = clerk2.Reserve(3, "1979-12-13", timeout)
	step(`reserve(flight 3) before the crash`, out, err)
	office.Crash()
	if err := office.Restart(); err != nil {
		log.Fatal(err)
	}
	newUI, err := sys.RedeployUI("office", 400)
	if err != nil {
		log.Fatal(err)
	}
	logf("  [office crashed and restarted: old transactions forgotten]")
	clerk3, err := airline.NewClerk(office, "clerk3")
	if err != nil {
		log.Fatal(err)
	}
	if err := clerk3.Begin(newUI, "mrs-white", timeout); err != nil {
		log.Fatal(err)
	}
	out, err = clerk3.Reserve(3, "1979-12-13", timeout)
	step(`redo reserve(flight 3) in a fresh transaction`, out, err)
	r, c, err = clerk3.Done(timeout)
	step(fmt.Sprintf("done: %d reserves, %d cancels", r, c), "trans_done", err)

	st := w.Stats()
	net := w.Net().Counts()
	logf("\n--- runtime statistics ---")
	logf("  messages sent: %d   delivered to ports: %d   system failures sent: %d",
		st.MessagesSent.Load(), st.MessagesDelivered.Load(), st.FailuresSent.Load())
	logf("  network packets: %d sent, %d delivered, %d dropped-dead-node",
		net.Sent, net.Delivered, net.DroppedDst)
	logf("  guardians created: %d, recovered after crashes: %d",
		st.GuardiansCreated.Load(), st.GuardiansRecovered.Load())

	if tracer != nil {
		logf("\n--- last %d runtime events (of %d traced) ---", len(tracer.Events()), tracer.Total())
		for _, e := range tracer.Events() {
			logf("  %s", e)
		}
	}
}
