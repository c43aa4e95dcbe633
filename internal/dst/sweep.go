package dst

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// SweepOptions configures a parallel seed sweep: the same run
// configuration executed once per seed, spread across worker goroutines.
// Every run is fully isolated — its own world, virtual clock, network,
// and seed-derived streams — so running seeds in parallel cannot change
// any seed's outcome, only the wall-clock of the sweep.
type SweepOptions struct {
	// Opts is the per-run configuration; its Seed field is overridden by
	// each swept seed.
	Opts Options
	// Seeds are the explicit seeds to run. When empty, the sweep runs
	// Count consecutive seeds starting at StartSeed (default 1).
	Seeds     []int64
	StartSeed int64
	Count     int
	// Parallelism is the number of concurrent runs; 0 means GOMAXPROCS.
	Parallelism int
	// Shrink minimizes each failing run's schedule before reporting it,
	// with one re-run per fault window.
	Shrink bool
	// Progress, when set, is called after each seed completes (from the
	// finishing worker's goroutine, serialized by the sweep's lock).
	Progress func(done, total int, rep *Report)
}

// SweepResult aggregates a sweep's verdicts: every report in seed order,
// plus the timing the nightly job records.
type SweepResult struct {
	// Reports holds one report per swept seed, in seed order.
	Reports []*Report
	// Parallelism is the worker count actually used.
	Parallelism int
	// Elapsed is the sweep's wall-clock time.
	Elapsed time.Duration
}

// Failed reports whether any seed violated an invariant.
func (sr *SweepResult) Failed() bool { return len(sr.Failures()) > 0 }

// Failures returns the failing reports, in seed order.
func (sr *SweepResult) Failures() []*Report {
	var out []*Report
	for _, r := range sr.Reports {
		if r.Failed() {
			out = append(out, r)
		}
	}
	return out
}

// ReproLines returns one reproduction command line per failing seed —
// the artifact the nightly job uploads.
func (sr *SweepResult) ReproLines() []string {
	var out []string
	for _, r := range sr.Failures() {
		out = append(out, r.Repro())
	}
	return out
}

// String renders the sweep verdict with per-seed timing percentiles and
// throughput; failing seeds follow with their full failure stories.
func (sr *SweepResult) String() string {
	var b strings.Builder
	status := "PASS"
	if sr.Failed() {
		status = "FAIL"
	}
	n := len(sr.Reports)
	fmt.Fprintf(&b, "sweep %s seeds=%d", status, n)
	if n > 0 {
		r0 := sr.Reports[0]
		fmt.Fprintf(&b, " workload=%s profile=%s nodes=%d", r0.Workload, r0.Profile, r0.Nodes)
	}
	fmt.Fprintf(&b, " par=%d\n", sr.Parallelism)
	if n > 0 {
		reals := make([]time.Duration, n)
		for i, r := range sr.Reports {
			reals[i] = r.RealElapsed
		}
		sort.Slice(reals, func(i, j int) bool { return reals[i] < reals[j] })
		fmt.Fprintf(&b, "  per-seed real: min=%v median=%v max=%v\n",
			reals[0].Round(time.Millisecond), reals[n/2].Round(time.Millisecond),
			reals[n-1].Round(time.Millisecond))
		if sr.Elapsed > 0 {
			fmt.Fprintf(&b, "  wall: %v (%.1f seeds/min)\n",
				sr.Elapsed.Round(time.Millisecond),
				float64(n)/sr.Elapsed.Minutes())
		}
	}
	if fails := sr.Failures(); len(fails) > 0 {
		fmt.Fprintf(&b, "  %d failing seed(s):\n", len(fails))
		for _, r := range fails {
			for _, line := range strings.Split(strings.TrimRight(r.String(), "\n"), "\n") {
				fmt.Fprintf(&b, "  %s\n", line)
			}
		}
	}
	return b.String()
}

// Sweep runs one simulated run per seed across a pool of workers and
// aggregates the verdicts. Determinism is per seed, not per sweep: a
// failing seed's report (and minimized schedule) is reproduced exactly by
// re-running that seed alone, regardless of parallelism.
func Sweep(sw SweepOptions) *SweepResult {
	seeds := sw.Seeds
	if len(seeds) == 0 {
		start := sw.StartSeed
		if start == 0 {
			start = 1
		}
		count := sw.Count
		if count <= 0 {
			count = 1
		}
		for i := 0; i < count; i++ {
			seeds = append(seeds, start+int64(i))
		}
	}
	par := sw.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(seeds) {
		par = len(seeds)
	}

	reports := make([]*Report, len(seeds))
	idx := make(chan int)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	start := time.Now()
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				opts := sw.Opts
				opts.Seed = seeds[i]
				rep := Run(opts)
				if rep.Failed() && sw.Shrink {
					rep = Shrink(opts, rep, 0)
				}
				reports[i] = rep
				if sw.Progress != nil {
					mu.Lock()
					done++
					sw.Progress(done, len(seeds), rep)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range seeds {
		idx <- i
	}
	close(idx)
	wg.Wait()

	return &SweepResult{
		Reports:     reports,
		Parallelism: par,
		Elapsed:     time.Since(start),
	}
}
