package dst

import (
	"strings"
	"testing"

	"repro/internal/durable"
)

// TestSweepAggregates: a small parallel sweep returns one report per
// seed, in seed order, and aggregates the verdict.
func TestSweepAggregates(t *testing.T) {
	res := Sweep(SweepOptions{
		Opts: Options{
			Profile:      QuietProfile(),
			Clients:      2,
			OpsPerClient: 4,
		},
		StartSeed:   1,
		Count:       4,
		Parallelism: 4,
	})
	if len(res.Reports) != 4 {
		t.Fatalf("got %d reports, want 4", len(res.Reports))
	}
	for i, r := range res.Reports {
		if r.Seed != int64(i+1) {
			t.Fatalf("report %d has seed %d, want %d (seed order)", i, r.Seed, i+1)
		}
	}
	if res.Failed() {
		t.Fatalf("quiet sweep failed:\n%s", res)
	}
	if got := res.String(); !strings.Contains(got, "sweep PASS seeds=4") {
		t.Fatalf("sweep summary missing verdict line:\n%s", got)
	}
}

// TestSweepExplicitSeeds: an explicit seed list overrides the range.
func TestSweepExplicitSeeds(t *testing.T) {
	res := Sweep(SweepOptions{
		Opts:  Options{Profile: QuietProfile(), Clients: 1, OpsPerClient: 2},
		Seeds: []int64{42, 7},
	})
	if len(res.Reports) != 2 || res.Reports[0].Seed != 42 || res.Reports[1].Seed != 7 {
		t.Fatalf("explicit seeds not honored: %+v", res.Reports)
	}
}

// TestSweepCatchesInjectedBug: the control arm — a sweep over the
// dedup-disabled branch under a duplicating network must convict, and
// every failure must carry a usable repro line.
func TestSweepCatchesInjectedBug(t *testing.T) {
	res := Sweep(SweepOptions{
		Opts: Options{
			Profile: MixedProfile(),
			Bug:     BugDisableDedup,
		},
		StartSeed:   1,
		Count:       3,
		Parallelism: 3,
		Shrink:      true,
	})
	if !res.Failed() {
		t.Fatalf("sweep over disable-dedup found no violation")
	}
	lines := res.ReproLines()
	if len(lines) != len(res.Failures()) {
		t.Fatalf("%d repro lines for %d failures", len(lines), len(res.Failures()))
	}
	for _, l := range lines {
		if !strings.Contains(l, "-bug disable-dedup") || !strings.Contains(l, "-profile mixed") {
			t.Fatalf("repro line missing flags: %q", l)
		}
	}
	// The dedup violation reproduces without any fault window (the lossy
	// network alone duplicates), so the minimizer must strip the
	// schedule down.
	for _, r := range res.Failures() {
		if len(r.Schedule) > 0 && !r.Shrunk {
			t.Fatalf("failing seed %d kept %d events without shrinking", r.Seed, len(r.Schedule))
		}
	}
}

// TestSweepProgress: the progress callback sees every completion with a
// monotonically increasing done count.
func TestSweepProgress(t *testing.T) {
	var dones []int
	Sweep(SweepOptions{
		Opts:        Options{Profile: QuietProfile(), Clients: 1, OpsPerClient: 2},
		Count:       3,
		Parallelism: 2,
		Progress: func(done, total int, rep *Report) {
			if total != 3 || rep == nil {
				t.Errorf("progress(done=%d, total=%d, rep=%v)", done, total, rep)
			}
			dones = append(dones, done)
		},
	})
	if len(dones) != 3 {
		t.Fatalf("progress called %d times, want 3", len(dones))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("done sequence %v not monotone", dones)
		}
	}
}

// TestScaleSweep is the acceptance gate for the scale tentpole: a
// 202-node world — 67 shards, each behind a three-member quorum group —
// under the combined profile (network loss/dup/reorder, crash windows, a
// rolling 201-node crash wave, an island, an asymmetric link cut, a ring
// cut, a storage burst) with storage faults and checkpointing branches,
// swept over multiple seeds, must hold every per-shard invariant; and a
// single-seed re-run must reproduce the sweep's run exactly.
//
// ~75s per seed on one core; push CI skips it (-skip TestScaleSweep),
// the nightly job runs it.
func TestScaleSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("202-node sweep skipped in -short mode")
	}
	opts := Options{
		Profile:         CombinedProfile(),
		Topology:        &Topology{Shards: 67, ReplFactor: 3},
		Clients:         4,
		OpsPerClient:    6,
		CheckpointEvery: 4,
		StorageFaults:   &durable.FaultConfig{SyncFailRate: 0.001},
	}
	res := Sweep(SweepOptions{Opts: opts, StartSeed: 1, Count: 2})
	if res.Failed() {
		t.Fatalf("scale sweep failed:\n%s", res)
	}
	for _, r := range res.Reports {
		if r.Nodes < 200 {
			t.Fatalf("seed %d simulated %d nodes, want >= 200", r.Seed, r.Nodes)
		}
		if r.OpsAcked == 0 {
			t.Fatalf("seed %d acked no operations:\n%s", r.Seed, r)
		}
	}

	// Deterministic re-run: one seed, alone, out of the sweep context,
	// must regenerate the identical schedule and verdict.
	swept := res.Reports[0]
	opts.Seed = swept.Seed
	again := Run(opts)
	if again.Failed() != swept.Failed() {
		t.Fatalf("re-run verdict differs: %v vs %v", again.Failed(), swept.Failed())
	}
	if len(again.Schedule) != len(swept.Schedule) {
		t.Fatalf("re-run schedule length %d != swept %d", len(again.Schedule), len(swept.Schedule))
	}
	for i := range again.Schedule {
		if again.Schedule[i].String() != swept.Schedule[i].String() {
			t.Fatalf("re-run schedule diverges at %d: %s vs %s",
				i, again.Schedule[i], swept.Schedule[i])
		}
	}
}
