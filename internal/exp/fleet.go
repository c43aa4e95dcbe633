package exp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bank"
	"repro/internal/metrics"
	"repro/internal/vtime"
)

// Fleet is the outcome of one closed-loop client fleet.
type Fleet struct {
	// OK and Failed count operations by whether their closure returned nil.
	OK, Failed int64
	// Failure joins each client's first failed operation, for reporting.
	Failure error
	// Elapsed spans the timed phase — after every client's set-up — on the
	// world's clock.
	Elapsed time.Duration
	// Latency summarises the successful operations.
	Latency metrics.Snapshot
}

// PerSecond is the fleet's throughput in successful operations.
func (f Fleet) PerSecond() float64 {
	if f.Elapsed <= 0 {
		return 0
	}
	return float64(f.OK) / f.Elapsed.Seconds()
}

// runFleet splits total operations over clients goroutines, the remainder
// going one each to the first clients. Each client first runs setup(i),
// which returns its per-operation closure; once every set-up has
// succeeded the clients run their operations concurrently, each in a
// closed loop. An operation that returns an error counts as failed and the
// client carries on. A set-up error aborts the fleet before anything is
// timed.
func runFleet(clock vtime.Clock, clients, total int, setup func(client int) (op func(j int) error, err error)) (Fleet, error) {
	if clients <= 0 || total <= 0 {
		return Fleet{}, fmt.Errorf("exp: fleet of %d clients over %d operations", clients, total)
	}
	ops := make([]func(int) error, clients)
	errs := make([]error, clients)
	eachClient(clients, func(i int) { ops[i], errs[i] = setup(i) })
	if err := errors.Join(errs...); err != nil {
		return Fleet{}, err
	}

	hist := metrics.NewHistogram()
	failed := make([]int64, clients)
	start := clock.Now()
	eachClient(clients, func(i int) {
		n := total / clients
		if i < total%clients {
			n++
		}
		for j := 0; j < n; j++ {
			t0 := clock.Now()
			if err := ops[i](j); err != nil {
				if failed[i] == 0 {
					errs[i] = err
				}
				failed[i]++
				continue
			}
			hist.Observe(clock.Now().Sub(t0))
		}
	})
	f := Fleet{Elapsed: clock.Now().Sub(start), Latency: hist.Snapshot(), Failure: errors.Join(errs...)}
	f.OK = f.Latency.Count
	for _, n := range failed {
		f.Failed += n
	}
	return f, nil
}

// runSequential is the one-client fleet: a timed loop of n operations.
func runSequential(clock vtime.Clock, n int, op func(j int) error) (Fleet, error) {
	return runFleet(clock, 1, n, func(int) (func(int) error, error) { return op, nil })
}

// eachClient runs f(0..n-1) concurrently and waits for all of them.
func eachClient(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// failedErr turns a fleet in which no operation may fail into an error.
func (f Fleet) failedErr(what string) error {
	if f.Failed == 0 {
		return nil
	}
	return fmt.Errorf("exp: %d %s failed: %w", f.Failed, what, f.Failure)
}

// seedFunds is what fundedPair deposits in a client's first account.
const seedFunds = int64(1_000_000)

// fundedPair opens client i's private account pair and seeds the first
// account, through whichever call path the experiment audits; call vets
// each reply with fundingOutcome.
func fundedPair(i int, call func(cmd string, args ...any) error) (a, b string, err error) {
	a, b = fmt.Sprintf("c%d-a", i), fmt.Sprintf("c%d-b", i)
	for _, op := range [][]any{{"open", a}, {"open", b}, {"deposit", a, seedFunds}} {
		if err := call(op[0].(string), op[1:]...); err != nil {
			return a, b, fmt.Errorf("exp: %v: %w", op, err)
		}
	}
	return a, b, nil
}

// fundingOutcome accepts the replies a funding call may draw: ok, or
// "exists" for a retried open whose first reply was lost.
func fundingOutcome(cmd, outcome string) error {
	if outcome == bank.OutcomeOK || (cmd == "open" && outcome == bank.OutcomeExists) {
		return nil
	}
	return fmt.Errorf("answered %s", outcome)
}

// sumBalances totals a branch's accounts for a conservation audit.
func sumBalances(accts map[string]int64) int64 {
	var total int64
	for _, bal := range accts {
		total += bal
	}
	return total
}
