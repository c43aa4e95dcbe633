package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -agree reads.
type benchmarkFile struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) (*benchmarkFile, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var lastErr error
	for _, p := range candidates {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &bf, nil
	}
	return nil, lastErr
}

// readSet loads a -out file into workload → metric → values, in run order.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = make(map[string][]float64)
		}
		for _, ms := range []map[string]metric{rec.Result.Metrics, rec.Timing} {
			for name, m := range ms {
				set[rec.Workload][name] = append(set[rec.Workload][name], m.Value)
			}
		}
	}
	return set, sc.Err()
}

// setStats is one set's view of one metric on one workload.
type setStats struct {
	n           int
	med, q1, q3 float64
}

func statsOf(vals []float64) setStats {
	s := setStats{n: len(vals), med: median(vals)}
	if len(vals) >= 2 {
		s.q1, s.q3 = quartiles(vals)
	}
	return s
}

// spread is the distance between the quartiles as a share of the median.
func (s setStats) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.med
}

// worseBy is how much worse b's median is than a's, as a share of a's;
// negative when b is better.
func worseBy(a, b setStats, better string) float64 {
	if a.med == 0 {
		return 0
	}
	d := (b.med - a.med) / a.med
	if better == "higher" {
		d = -d
	}
	return d
}

// agreeMain compares two sets of runs of the same code the way the
// acceptance check does: within each set a metric's quartile spread must
// stay inside its bound (set-up time excepted), and neither set's median
// may be worse than the other's by more than the bound. It prints every
// (workload, metric) pair with both sets' numbers, marks the offenders,
// and returns the process exit code. The timing metrics, which have no
// bound, are printed the same way for the record and never offend.
func agreeMain(out io.Writer, args []string, boundsPath string) int {
	if len(args) != 2 {
		logf("usage: -agree A.jsonl B.jsonl")
		return 2
	}
	bf, err := readBounds(boundsPath)
	if err != nil {
		logf("guardianbench: reading bounds: %v", err)
		return 2
	}
	a, err := readSet(args[0])
	if err != nil {
		logf("guardianbench: %v", err)
		return 2
	}
	b, err := readSet(args[1])
	if err != nil {
		logf("guardianbench: %v", err)
		return 2
	}
	var names []string
	for wl := range a {
		if b[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		logf("guardianbench: the two sets share no workload")
		return 2
	}
	offenders := 0
	fmt.Fprintf(out, "%-13s %-19s %5s  %25s  %25s  %7s %7s %7s\n",
		"workload", "metric", "bound", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "spreadA", "spreadB", "differ")
	// The timing metrics follow the bounded ones, with no bound to offend.
	rows := bf.EndToEnd
	for _, tm := range timing {
		better := "lower"
		if tm.name == "ops_per_s" {
			better = "higher"
		}
		rows = append(rows, boundedMetric{Name: tm.name, Better: better, Bound: math.Inf(1)})
	}
	for _, wl := range names {
		for _, m := range rows {
			sa, sb := statsOf(a[wl][m.Name]), statsOf(b[wl][m.Name])
			if math.IsInf(m.Bound, 1) && (sa.n < 2 || sb.n < 2) {
				continue // records from a traced run carry no timing
			}
			if sa.n < 2 || sb.n < 2 {
				logf("guardianbench: %s %s: a set has fewer than two runs", wl, m.Name)
				return 2
			}
			differ := worseBy(sa, sb, m.Better)
			if back := worseBy(sb, sa, m.Better); back > differ {
				differ = back
			}
			var why string
			if m.Name != "setup_s" && (sa.spread() > m.Bound || sb.spread() > m.Bound) {
				why = " SPREAD"
			}
			if differ > m.Bound {
				why += " MEDIANS"
			}
			if why != "" {
				offenders++
			}
			bound := "none"
			if !math.IsInf(m.Bound, 1) {
				bound = fmt.Sprintf("%.2f", m.Bound)
			}
			fmt.Fprintf(out, "%-13s %-19s %5s  %11.4g [%.4g, %.4g] (%d)  %11.4g [%.4g, %.4g] (%d)  %6.1f%% %6.1f%% %6.1f%%%s\n",
				wl, m.Name, bound, sa.med, sa.q1, sa.q3, sa.n, sb.med, sb.q1, sb.q3, sb.n,
				100*sa.spread(), 100*sb.spread(), 100*differ, why)
		}
	}
	if offenders > 0 {
		fmt.Fprintf(out, "%d (workload, metric) pairs outside their bounds\n", offenders)
		return 1
	}
	fmt.Fprintln(out, "the two sets agree within every bound")
	return 0
}
