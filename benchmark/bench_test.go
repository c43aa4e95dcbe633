package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	logOut = io.Discard
	os.Exit(m.Run())
}

func TestHistogramPercentilesMatchSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	vals := make([]float64, 200000)
	for i := range vals {
		// Log-normal around 20 µs with a long tail, like a call latency.
		ns := math.Exp(rng.NormFloat64()*0.8 + math.Log(20000))
		vals[i] = math.Floor(ns)
		h.add(int64(ns))
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := vals[int(math.Ceil(q*float64(len(vals))))-1]
		got := h.quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("q%.3f: histogram %.1f, sorted slice %.1f (%.2f%% off)", q, got, want, 100*rel)
		}
	}
	if got, want := h.mean(), sum(vals)/float64(len(vals)); math.Abs(got-want) > 1e-6*want {
		t.Errorf("mean %.3f, want %.3f", got, want)
	}
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

func TestBucketsRoundTrip(t *testing.T) {
	for _, ns := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 65535, 1 << 20, 1<<39 + 12345} {
		lo, hi := bucketBounds(bucketOf(ns))
		if ns < lo || ns >= hi {
			t.Errorf("%d landed in bucket [%d, %d)", ns, lo, hi)
		}
		if ns >= 128 && float64(hi-lo)/float64(lo) > 1.0/128+1e-9 {
			t.Errorf("bucket [%d, %d) wider than 1/128 of its value", lo, hi)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]: it extrapolates.
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

// window builds a window of n ops that each took ns.
func window(n int, ns int64, seconds, cpu float64, mallocs, bytes uint64) windowResult {
	w := windowResult{seconds: seconds, ops: int64(n), cpu: cpu, mallocs: mallocs, bytes: bytes}
	for i := 0; i < n; i++ {
		w.h[kindWrite].add(ns)
	}
	return w
}

func TestSummarizeArithmetic(t *testing.T) {
	rounds := []*roundResult{
		{setup: 3, windows: []windowResult{window(100, 1000, 1, 0.001, 1000, 10000), window(200, 2000, 1, 0.004, 2000, 20000)}},
		{setup: 1, windows: []windowResult{window(300, 3000, 1, 0.009, 3000, 30000)}},
		{setup: 2},
	}
	gated, timed := summarize(rounds)
	check := func(name string, want, tol float64) {
		t.Helper()
		got, ok := gated[name]
		if !ok {
			got, ok = timed[name]
		}
		if !ok || math.Abs(got.Value-want) > tol*want {
			t.Errorf("%s = %v (present %v), want %v", name, got.Value, ok, want)
		}
	}
	check("setup_s", 2, 0)              // median of 3, 1, 2
	check("ops_per_s", 200, 0)          // median of 100, 200, 300
	check("latency_p50_us", 2, 0.01)    // median over windows of 1, 2, 3 µs
	check("cpu_us_per_op", 20, 1e-9)    // median of 10, 20, 30
	check("allocs_per_op", 10, 0)       // 6000 / 600
	check("alloc_bytes_per_op", 100, 0) // 60000 / 600
	if len(gated) != len(endToEnd) || len(timed) != len(timing) {
		t.Errorf("summarize returned %d end-to-end and %d timing metrics, want %d and %d", len(gated), len(timed), len(endToEnd), len(timing))
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{start: 100, end: 200}
	kids := []span{
		{start: 110, end: 130},
		{start: 120, end: 150}, // overlaps the first: 110..150 is covered once
		{start: 90, end: 105},  // starts before the parent: only 100..105 counts
		{start: 190, end: 260}, // runs past the parent: only 190..200 counts
		{start: 300, end: 400}, // outside altogether
	}
	if got := selfTime(parent, kids); got != 100-40-5-10 {
		t.Errorf("self time = %d, want 45", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestNamesAndBenchmarkFile(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if !name.MatchString(w.name) || bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in the program, %q in BENCHMARK.json", i, w.name, bf.Workloads[i].Name)
		}
	}
	// Each section of BENCHMARK.json declares exactly the metrics the
	// program emits for it, in order, with the same units.
	same := func(section string, declared []struct{ Name, Unit string }, emitted []struct{ name, unit string }) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program emits %d", section, len(declared), len(emitted))
			return
		}
		for i, m := range emitted {
			if !name.MatchString(m.name) {
				t.Errorf("metric name %q is not well-formed", m.name)
			}
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s metric %d: %s (%s) in the program, %s (%s) in BENCHMARK.json", section, i, m.name, m.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	for i, tm := range timing {
		if perLayer[i] != tm {
			t.Errorf("per-layer metric %d is %v, want the timing metric %v", i, perLayer[i], tm)
		}
	}
}

func TestHarnessLoopDoesNotAllocate(t *testing.T) {
	inst := &instance{clients: []client{
		func() (int, bool) { return kindWrite, true },
		func() (int, bool) { return kindRead, true },
	}}
	wins, attempted, failed := drive(inst, shape{windows: 2, warmup: 10 * time.Millisecond, window: 100 * time.Millisecond}, nil)
	if failed != 0 || attempted == 0 {
		t.Fatalf("attempted %d, failed %d", attempted, failed)
	}
	for i, w := range wins {
		if w.ops < 1000 {
			t.Fatalf("window %d completed only %d no-op ops", i, w.ops)
		}
		// The window's own bookkeeping (two usage readings) allocates a
		// handful of objects; the per-op loop must add nothing to that.
		if perOp := float64(w.mallocs) / float64(w.ops); perOp > 0.01 {
			t.Errorf("window %d: %.4f allocations per no-op op (%d over %d ops)", i, perOp, w.mallocs, w.ops)
		}
	}
}

// A wrong, refused or timed-out reply must fail the run even when the
// audit of the final state has nothing to object to, and so must an audit
// that objects when every reply was right.
func TestFailedOpsAndFailedAuditsFailTheRun(t *testing.T) {
	fake := func(badReply bool, audit error) *workload {
		return &workload{name: "fake", build: func(*env) (*instance, error) {
			n := 0
			return &instance{
				clients: []client{func() (int, bool) { n++; return kindWrite, !(badReply && n == 5) }},
				audit:   func() error { return audit },
				close:   func() {},
			}, nil
		}}
	}
	sh := shape{rounds: 1, windows: 1, warmup: time.Millisecond, window: 20 * time.Millisecond}
	for _, c := range []struct {
		name     string
		wl       *workload
		failed   int64
		exitCode int
	}{
		{"all well", fake(false, nil), 0, 0},
		{"one wrong reply", fake(true, nil), 1, 1},
		{"audit objects", fake(false, errors.New("books do not balance")), 0, 1},
	} {
		recs, err := runEndToEnd([]*workload{c.wl}, 1, sh, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		res := recs[0].Result
		if res.Failed != c.failed || res.Correct != (c.exitCode == 0) {
			t.Errorf("%s: failed %d, correct %v", c.name, res.Failed, res.Correct)
		}
		if code := printResults(io.Discard, recs); code != c.exitCode {
			t.Errorf("%s: exit code %d, want %d", c.name, code, c.exitCode)
		}
	}
}

// The last line a run prints is its result and holds exactly the metrics
// BENCHMARK.json lists end_to_end; the line above it holds the other four.
func TestPrintedLines(t *testing.T) {
	gated, timed := summarize([]*roundResult{{setup: 1, windows: []windowResult{window(10, 1000, 1, 0.001, 100, 1000)}}})
	var buf bytes.Buffer
	printResults(&buf, []record{{Workload: "w", Timing: timed, Result: result{Correct: true, Attempted: 10, Metrics: gated}}})
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("%d lines printed, want 2:\n%s", len(lines), buf.Bytes())
	}
	var above struct{ Timing map[string]metric }
	var last map[string]json.RawMessage
	if err := json.Unmarshal(lines[0], &above); err != nil || len(above.Timing) != len(timing) {
		t.Errorf("line above the result: %v, %d timing metrics", err, len(above.Timing))
	}
	if err := json.Unmarshal(lines[1], &last); err != nil || len(last) != 4 {
		t.Fatalf("result line: %v, keys %v", err, last)
	}
	var ms map[string]metric
	if err := json.Unmarshal(last["metrics"], &ms); err != nil || len(ms) != len(endToEnd) {
		t.Errorf("result metrics: %v, %d of them, want %d", err, len(ms), len(endToEnd))
	}
}

// smokeShape is a round short enough for the test suite.
var smokeShape = shape{rounds: 1, windows: 1, warmup: 50 * time.Millisecond, window: 200 * time.Millisecond}

func TestSmokeRoundOfEachWorkload(t *testing.T) {
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			e := &env{seed: 7, scale: 0.02, tmp: filepath.Join(t.TempDir(), "state")}
			res, inst, err := runRound(wl, e, smokeShape)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			if err := inst.audit(); err != nil {
				t.Fatalf("audit: %v", err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("attempted %d, failed %d", res.attempted, res.failed)
			}
			gated, timed := summarize([]*roundResult{res})
			for _, ms := range []map[string]metric{gated, timed} {
				for name, m := range ms {
					if !(m.Value > 0) {
						t.Errorf("%s = %v, want a positive value", name, m.Value)
					}
				}
			}
		})
	}
}

func TestSmokeTracedRound(t *testing.T) {
	sh := smokeShape
	sh.windows = 3
	recs, err := runTraced([]*workload{findWorkload("call_small"), findWorkload("ring_mixed")}, 7, 0.02, sh, t.TempDir(), filepath.Join(t.TempDir(), "spans"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if !rec.Result.Correct || rec.Result.Failed != 0 {
			t.Errorf("%s: correct %v, failed %d", rec.Workload, rec.Result.Correct, rec.Result.Failed)
		}
		m := rec.Result.Metrics
		if len(m) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", rec.Workload, len(m), len(perLayer))
		}
		for _, name := range []string{"guardian.dispatch_ns_per_op", "netsim.transit_ns_per_op", "wire.marshal_ns_per_op",
			"guardian.send_ns_per_op", "guardian.wake_ns_per_op", "amo.call_ns_per_op", "sendprim.call_ns_per_op",
			"durable.sync_ns_per_op", "bank.write_p50_us", "trace.overhead_ratio"} {
			if !(m[name].Value > 0) {
				t.Errorf("%s: %s = %v, want a positive value", rec.Workload, name, m[name].Value)
			}
		}
		if m["amo.retries_per_op"].Value != 0 {
			t.Errorf("%s: amo.retries_per_op = %v", rec.Workload, m["amo.retries_per_op"].Value)
		}
	}
	if tpc := recs[1].Result.Metrics["tpc.msgs_per_txn"].Value; !(tpc > 0) {
		t.Errorf("ring_mixed: tpc.msgs_per_txn = %v", tpc)
	}
}

func TestAgreeFlagsSpreadAndMedians(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end":[
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
		{"name":"allocs_per_op","unit":"count","better":"lower","bound":0.10}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, setup, rate []float64) string {
		var recs []record
		for i := range rate {
			recs = append(recs, record{Workload: "w", Result: result{Correct: true, Metrics: map[string]metric{
				"setup_s": {Value: setup[i], Unit: "s"}, "allocs_per_op": {Value: rate[i], Unit: "count"}}},
				Timing: map[string]metric{"ops_per_s": {Value: 1000 * float64(i+1), Unit: "1/s"}}})
		}
		path := filepath.Join(dir, name)
		if err := appendRecords(path, recs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := write("a", []float64{1, 1.1, 0.9, 1}, []float64{100, 101, 99, 100})
	same := write("b", []float64{1, 1.5, 0.5, 1}, []float64{103, 104, 102, 103}) // set-up spread is exempt
	slower := write("c", []float64{1, 1, 1, 1}, []float64{115, 116, 114, 115})
	noisy := write("d", []float64{1, 1, 1, 1}, []float64{80, 120, 90, 110})
	if code := agreeMain(io.Discard, []string{steady, same}, bounds); code != 0 {
		t.Errorf("agreeing sets: exit code %d", code)
	}
	if code := agreeMain(io.Discard, []string{steady, slower}, bounds); code != 1 {
		t.Errorf("a set 15%% worse against a 10%% bound: exit code %d", code)
	}
	if code := agreeMain(io.Discard, []string{slower, steady}, bounds); code != 1 {
		t.Errorf("the same pair the other way round: exit code %d", code)
	}
	if code := agreeMain(io.Discard, []string{steady, noisy}, bounds); code != 1 {
		t.Errorf("a set spread wider than the bound: exit code %d", code)
	}
}
