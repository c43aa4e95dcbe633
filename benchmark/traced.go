package main

import (
	"fmt"
	"path/filepath"
)

const (
	// tracedWindow is the window of a traced round the tracer records in;
	// the windows either side of it run untraced and give the overhead.
	tracedWindow = 1
	// spanCapacity is the tracer's buffer: two seconds of the fastest
	// workload at about eight spans an op, and the probes.
	spanCapacity = 2 << 20
	// defaultMTU is the world's fragment size, which the replay needs;
	// every workload leaves Config.FragmentMTU at its default.
	defaultMTU = 16 * 1024
)

// runTraced runs one extra round per workload with the decorators in
// place: an untraced window, a traced one, an untraced one, then the
// probes, then the audit. It reports the per-layer metrics.
func runTraced(wls []*workload, seed int64, scale float64, sh shape, tmp, traceOut string) ([]record, error) {
	var recs []record
	for _, wl := range wls {
		tr, err := newTracer(spanCapacity)
		if err != nil {
			return nil, err
		}
		e := &env{seed: seed, scale: scale, tr: tr, tmp: filepath.Join(tmp, wl.name+"-traced")}
		res, inst, err := runRound(wl, e, sh)
		if err != nil {
			return nil, err
		}
		if p := inst.layers.probe; p != nil {
			if err := p.run(); err != nil {
				return nil, fmt.Errorf("%s: probes: %w", wl.name, err)
			}
		}
		correct := roundCorrect(wl, "traced round", res, inst)
		inst.close()

		tw := res.traced
		tw.spans = tr.snapshot()
		tw.win = &res.windows[tracedWindow]
		untraced := &roundResult{}
		for w := range res.windows {
			if w != tracedWindow {
				untraced.windows = append(untraced.windows, res.windows[w])
			}
		}
		_, tw.untraced = summarize([]*roundResult{untraced})
		metrics := tw.report()
		tw.printLedger(wl.name, metrics)
		for _, pl := range perLayer {
			logf("  %-30s %14.4f %s", pl.name, metrics[pl.name].Value, pl.unit)
		}
		if traceOut != "" {
			path := traceOut
			if len(wls) > 1 {
				path += "." + wl.name
			}
			if err := tr.writeSpans(path, tw.spans); err != nil {
				return nil, err
			}
			logf("%s: %d spans written to %s", wl.name, len(tw.spans), path)
		}
		tr.release()
		recs = append(recs, record{
			Workload: wl.name, Seed: seed, Trace: 1,
			Result: result{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: metrics},
		})
	}
	return recs, nil
}
