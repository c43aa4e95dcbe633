package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Operation kinds. Every op a client performs is one of these; the
// end-to-end latency metrics merge them, the bank.* and tpc.* layer
// metrics read them apart.
const (
	kindWrite    = iota // a mutating single-guardian call (or an echo)
	kindRead            // a read-only call
	kindTransfer        // a transfer served by one guardian
	kindTPC             // a transfer that crossed shards and ran 2PC
	nKinds
)

// A client performs its next pre-generated operation and reports what it
// was and whether the reply was the expected one. Clients are closed-loop:
// the harness calls again only after the previous call returned.
type client func() (kind int, ok bool)

// instance is one freshly built world of a workload, ready to be driven.
type instance struct {
	clients []client
	// audit checks the world's final state against what the clients saw
	// acknowledged. It runs after every client has stopped.
	audit func() error
	close func()
	// layers is what the traced run reads besides spans; nil fields are
	// layers the workload does not have.
	layers layerSources
}

// env is what a workload's build function gets.
type env struct {
	seed int64
	// scale shrinks preloads for the smoke tests; 1 in real runs.
	scale float64
	// tr is non-nil in the traced round: builders wrap their transport
	// and stores with it.
	tr *tracer
	// tmp is a directory private to this round, inside the working
	// directory, for on-disk state.
	tmp string
}

func (e *env) n(full int) int {
	n := int(float64(full) * e.scale)
	if n < 8 {
		n = 8
	}
	return n
}

type workload struct {
	name  string
	why   string
	build func(e *env) (*instance, error)
}

// shape is the run shape: rounds of (set-up, warm-up, windows).
type shape struct {
	rounds  int
	windows int
	warmup  time.Duration
	window  time.Duration
}

// shapeFor splits a measuring budget into the fixed 3 rounds × 3 windows.
// The warm-up is half a window but at least a second in real runs.
func shapeFor(seconds float64) shape {
	const rounds, windows = 3, 3
	win := time.Duration(seconds / (rounds * windows) * float64(time.Second))
	warm := win / 2
	if warm < time.Second && seconds >= rounds*windows {
		warm = time.Second
	}
	return shape{rounds: rounds, windows: windows, warmup: warm, window: win}
}

// windowResult is what one timed window saw.
type windowResult struct {
	seconds float64
	ops     int64
	failed  [nKinds]int64
	h       [nKinds]hist
	cpu     float64 // process user+sys seconds
	mallocs uint64
	bytes   uint64
}

func (w *windowResult) all() *hist {
	var m hist
	for k := range w.h {
		m.merge(&w.h[k])
	}
	return &m
}

type roundResult struct {
	setup   float64
	windows []windowResult
	// attempted and failed count every op of the round, warm-up included.
	attempted, failed int64
	// traced is what a traced round recorded around its traced window.
	traced *tracedRound
}

// usage is a reading of the process-wide meters a window is the delta of.
type usage struct {
	t       time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{t: time.Now(), cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// clientState is one client goroutine's private recording area. Nothing in
// it is shared while the client runs except through phase and stop.
type clientState struct {
	do                client
	win               []clientWindow
	attempted, failed int64
}

type clientWindow struct {
	h      [nKinds]hist
	failed [nKinds]int64
}

// drive runs the clients of inst closed-loop through a warm-up and the
// windows of sh, returning one windowResult per window. An op is counted in
// the window it completes in; ops completing between windows are performed
// and audited but not measured. With a traced round tw, the tracer records
// through window tracedWindow, every op there as a span of its own.
func drive(inst *instance, sh shape, tw *tracedRound) ([]windowResult, int64, int64) {
	var tr *tracer
	if tw != nil {
		tr = tw.tr
		tw.driven = tr.now()
	}
	var (
		stop  atomic.Bool
		phase atomic.Int32 // window index, -1 between windows
		wg    sync.WaitGroup
	)
	phase.Store(-1)
	states := make([]*clientState, len(inst.clients))
	for i, c := range inst.clients {
		states[i] = &clientState{do: c, win: make([]clientWindow, sh.windows)}
	}
	for i, st := range states {
		wg.Add(1)
		go func(i int, st *clientState) {
			defer wg.Done()
			var seq uint64
			for !stop.Load() {
				t0 := time.Now()
				kind, ok := st.do()
				t1 := time.Now()
				st.attempted++
				if !ok {
					st.failed++
				}
				if tr != nil {
					seq++
					tr.op(i, seq, kind, t0, t1)
				}
				if w := phase.Load(); w >= 0 {
					if ok {
						st.win[w].h[kind].add(int64(t1.Sub(t0)))
					} else {
						st.win[w].failed[kind]++
					}
				}
			}
		}(i, st)
	}

	time.Sleep(sh.warmup)
	out := make([]windowResult, sh.windows)
	for w := 0; w < sh.windows; w++ {
		// The collection runs between windows so each window starts from
		// the same heap state; its cost is not measured.
		runtime.GC()
		traced := tw != nil && w == tracedWindow
		if traced {
			tw.before = readCounters(tw.ls)
		}
		begin := readUsage()
		if traced {
			tw.w0 = tr.now()
			tr.on.Store(true)
		}
		phase.Store(int32(w))
		time.Sleep(sh.window)
		phase.Store(-1)
		if traced {
			tr.on.Store(false)
			tw.w1 = tr.now()
		}
		end := readUsage()
		if traced {
			tw.after = readCounters(tw.ls)
		}
		out[w].seconds = end.t.Sub(begin.t).Seconds()
		out[w].cpu = (end.cpu - begin.cpu).Seconds()
		out[w].mallocs = end.mallocs - begin.mallocs
		out[w].bytes = end.bytes - begin.bytes
	}
	stop.Store(true)
	wg.Wait()

	var attempted, failed int64
	for _, st := range states {
		attempted += st.attempted
		failed += st.failed
		for w := range out {
			for k := range out[w].h {
				out[w].h[k].merge(&st.win[w].h[k])
				out[w].ops += int64(st.win[w].h[k].n)
				out[w].failed[k] += st.win[w].failed[k]
			}
		}
	}
	return out, attempted, failed
}

// runRound builds a fresh world, times the build as the round's set-up,
// drives it, audits it and tears it down.
func runRound(wl *workload, e *env, sh shape) (*roundResult, *instance, error) {
	t0 := time.Now()
	inst, err := wl.build(e)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	res := &roundResult{setup: time.Since(t0).Seconds()}
	var tw *tracedRound
	if e.tr != nil {
		tw = &tracedRound{tr: e.tr, ls: &inst.layers}
	}
	res.windows, res.attempted, res.failed = drive(inst, sh, tw)
	res.traced = tw
	return res, inst, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// The end-to-end metrics, by name, with their units: the ones
// BENCHMARK.json holds a bound against. They are the ones that repeat.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
}

// The timing metrics. Every run measures them and prints them in a line of
// their own above its result, and -out records carry them, but no bound is
// held against them: on the shared host this was built on they move by a
// quarter for tens of minutes at a time, every workload alike, which no
// statistic inside a run survives (README, "Bounds"). BENCHMARK.json lists
// them per_layer, and the traced run reports them from its untraced windows.
var timing = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_op", "us"},
}

// summarize folds the rounds of one run into the end-to-end and the timing
// metrics: set-up is the median over rounds, timings are medians over all
// windows, counts are totals over totals.
func summarize(rounds []*roundResult) (gated, timed map[string]metric) {
	var setups, rate, p50, p99, cpu []float64
	var ops int64
	var mallocs, bytes uint64
	for _, r := range rounds {
		setups = append(setups, r.setup)
		for i := range r.windows {
			w := &r.windows[i]
			if w.ops == 0 {
				continue
			}
			all := w.all()
			rate = append(rate, float64(w.ops)/w.seconds)
			p50 = append(p50, all.quantile(0.50)/1e3)
			p99 = append(p99, all.quantile(0.99)/1e3)
			cpu = append(cpu, w.cpu*1e6/float64(w.ops))
			ops += w.ops
			mallocs += w.mallocs
			bytes += w.bytes
		}
	}
	perOp := func(total uint64) float64 {
		if ops == 0 {
			return 0
		}
		return float64(total) / float64(ops)
	}
	gated = make(map[string]metric, len(endToEnd))
	for i, v := range []float64{median(setups), perOp(mallocs), perOp(bytes)} {
		gated[endToEnd[i].name] = metric{Value: v, Unit: endToEnd[i].unit}
	}
	timed = make(map[string]metric, len(timing))
	for i, v := range []float64{median(rate), median(p50), median(p99), median(cpu)} {
		timed[timing[i].name] = metric{Value: v, Unit: timing[i].unit}
	}
	return gated, timed
}

// windowDetail is one window's own numbers, kept in -out records so the
// run-to-run spread can be studied window by window.
type windowDetail struct {
	OpsPerS  float64 `json:"ops_per_s"`
	P50US    float64 `json:"p50_us"`
	P99US    float64 `json:"p99_us"`
	CPUPerOp float64 `json:"cpu_us_per_op"`
}

// windowDetails lists every window in run order, for the log and the
// unbounded-state check.
func windowDetails(rounds []*roundResult) []windowDetail {
	var out []windowDetail
	for _, r := range rounds {
		for i := range r.windows {
			w := &r.windows[i]
			all := w.all()
			d := windowDetail{OpsPerS: float64(w.ops) / w.seconds, P50US: all.quantile(0.5) / 1e3, P99US: all.quantile(0.99) / 1e3}
			if w.ops > 0 {
				d.CPUPerOp = w.cpu * 1e6 / float64(w.ops)
			}
			out = append(out, d)
		}
	}
	return out
}
