// Command benchmark is the repository's one benchmark, guardianbench: four
// closed-loop workloads over the guardian runtime, end-to-end and timing metrics
// each, and a traced run that attributes an operation's time to the layers
// it crossed. README.md in this directory says what is measured and why.
//
//	go run -C benchmark . --workload call_small --seed 1 --seconds 18 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeed is the seed of a run that names none.
const defaultSeed = 1979

// result is the object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a -out file: a result with what produced it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	// Timing holds the timing metrics of an end-to-end run, which its
	// result leaves out because no bound is held against them.
	Timing  map[string]metric `json:"timing,omitempty"`
	Windows []windowDetail    `json:"windows,omitempty"`
	Result  result            `json:"result"`
}

func main() {
	var (
		names    = flag.String("workload", "all", "workload to run, a comma-separated list, or all")
		seed     = flag.Int64("seed", defaultSeed, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 18, "seconds measured per workload, split over 3 rounds of 3 windows")
		trace    = flag.Int("trace", 0, "1 runs the traced round and prints the per-layer metrics instead")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans to this file as JSON lines")
		out      = flag.String("out", "", "append one JSON record per workload to this file, for -agree")
		agree    = flag.Bool("agree", false, "compare two -out files (the arguments) against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if *agree {
		os.Exit(agreeMain(os.Stdout, flag.Args(), ""))
	}
	if flag.NArg() != 0 {
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	var wls []*workload
	if *names == "all" {
		wls = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			wl := findWorkload(n)
			if wl == nil {
				fail(fmt.Errorf("unknown workload %q", n))
			}
			wls = append(wls, wl)
		}
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive"))
	}

	// Clients are sized to two cores; more would only add scheduler noise
	// on the small hosts this runs on.
	procs := 2
	if runtime.NumCPU() < procs {
		procs = 1
	}
	runtime.GOMAXPROCS(procs)

	tmp, err := os.MkdirTemp(".", ".guardianbench-tmp-")
	if err != nil {
		fail(err)
	}
	logf("guardianbench: GOMAXPROCS=%d, on-disk state under %s (%s)", procs, tmp, fsName(tmp))

	var recs []record
	if *trace == 1 {
		recs, err = runTraced(wls, *seed, 1, shapeFor(*seconds), tmp, *traceOut)
	} else {
		recs, err = runEndToEnd(wls, *seed, shapeFor(*seconds), tmp)
	}
	os.RemoveAll(tmp)
	if err != nil {
		fail(err)
	}
	for i := range recs {
		recs[i].Seconds = *seconds
	}
	if *out != "" {
		if err := appendRecords(*out, recs); err != nil {
			fail(err)
		}
	}
	os.Exit(printResults(os.Stdout, recs))
}

// printResults writes each run's result, the last line of a run's output,
// and above it, for an end-to-end run, a line with the timing metrics, so
// one command prints all seven. The result itself holds exactly the metrics
// BENCHMARK.json lists for the kind of run. It returns the exit code: 1 if
// any run was not correct.
func printResults(out io.Writer, recs []record) int {
	code := 0
	enc := json.NewEncoder(out)
	for _, r := range recs {
		if r.Timing != nil {
			enc.Encode(struct {
				Workload string            `json:"workload"`
				Timing   map[string]metric `json:"timing"`
			}{r.Workload, r.Timing})
		}
		enc.Encode(r.Result)
		if !r.Result.Correct {
			code = 1
		}
	}
	return code
}

// logOut takes the run's commentary; the tests silence it.
var logOut io.Writer = os.Stderr

func logf(format string, args ...any) { fmt.Fprintf(logOut, format+"\n", args...) }

func fail(err error) {
	logf("guardianbench: %v", err)
	os.Exit(2)
}

// runEndToEnd measures every workload with tracing off. Rounds of
// different workloads are interleaved (A B C D A B C D ...) so a slow
// stretch on the host is spread over all of them.
func runEndToEnd(wls []*workload, seed int64, sh shape, tmp string) ([]record, error) {
	rounds := make([][]*roundResult, len(wls))
	correct := make([]bool, len(wls))
	for i := range correct {
		correct[i] = true
	}
	for r := 0; r < sh.rounds; r++ {
		for i, wl := range wls {
			e := &env{seed: seed, scale: 1, tmp: filepath.Join(tmp, fmt.Sprintf("%s-%d", wl.name, r))}
			res, inst, err := runRound(wl, e, sh)
			if err != nil {
				return nil, err
			}
			if !roundCorrect(wl, fmt.Sprintf("round %d", r), res, inst) {
				correct[i] = false
			}
			inst.close()
			rounds[i] = append(rounds[i], res)
		}
	}
	recs := make([]record, len(wls))
	for i, wl := range wls {
		rec := record{Workload: wl.name, Seed: seed, Windows: windowDetails(rounds[i])}
		rec.Result = result{Correct: correct[i]}
		rec.Result.Metrics, rec.Timing = summarize(rounds[i])
		for _, r := range rounds[i] {
			rec.Result.Attempted += r.attempted
			rec.Result.Failed += r.failed
		}
		recs[i] = rec
		logRun(&rec)
	}
	return recs, nil
}

// roundCorrect is the verdict on one driven round: its audit passed and not
// one operation, warm-up included, was refused, timed out or answered
// wrongly. Either failing makes the run incorrect.
func roundCorrect(wl *workload, which string, res *roundResult, inst *instance) bool {
	ok := true
	if res.failed != 0 {
		logf("%s: %s: %d of %d OPERATIONS FAILED", wl.name, which, res.failed, res.attempted)
		ok = false
	}
	if err := inst.audit(); err != nil {
		logf("%s: %s: AUDIT FAILED: %v", wl.name, which, err)
		ok = false
	}
	return ok
}

// logRun writes a run's numbers to standard error, and warns about the
// signature of state growing without bound: a window at less than half the
// run's median rate.
func logRun(rec *record) {
	logf("%s: seed %d, attempted %d, failed %d, correct %v", rec.Workload, rec.Seed, rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
	for _, m := range endToEnd {
		logf("  %-20s %14.4f %s", m.name, rec.Result.Metrics[m.name].Value, m.unit)
	}
	for _, m := range timing {
		logf("  %-20s %14.4f %s  (no bound)", m.name, rec.Timing[m.name].Value, m.unit)
	}
	var rates []float64
	for _, w := range rec.Windows {
		rates = append(rates, w.OpsPerS)
	}
	med := median(rates)
	var b strings.Builder
	for _, w := range rates {
		fmt.Fprintf(&b, " %.0f", w)
		if w < med/2 {
			logf("  WARNING: a window ran at %.0f ops/s, under half the run's median %.0f", w, med)
		}
	}
	logf("  window ops/s:%s", b.String())
}

func appendRecords(path string, recs []record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
