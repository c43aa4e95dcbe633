package dst

import (
	"strings"
	"testing"

	"repro/internal/durable"
)

// TestRingWorkloadSmoke: a three-shard ring joined by one member and
// drained of another, mid-run, under the mixed profile — conservation,
// exactly-once, single-owner-per-epoch, recovery-equals-replay, and the
// 2PC drain must all hold.
func TestRingWorkloadSmoke(t *testing.T) {
	rep := Run(Options{
		Seed:    7,
		Ring:    &RingTopology{Shards: 3, Joins: 1, Leaves: 1},
		Clients: 4,
	})
	if rep.Failed() {
		t.Fatalf("ring run failed:\n%s", rep)
	}
	if rep.Nodes != 6 {
		t.Fatalf("Nodes = %d, want 6 (3 shards + joiner + coordinator + clients)", rep.Nodes)
	}
	if rep.OpsAcked == 0 {
		t.Fatalf("no operations acked:\n%s", rep)
	}
	if rep.RingEpoch < 1 {
		t.Fatalf("ring never bootstrapped:\n%s", rep)
	}
}

// TestRingValidation rejects the configurations the workload cannot run.
func TestRingValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"too many leaves", Options{Ring: &RingTopology{Shards: 2, Leaves: 2}}},
		{"one client", Options{Ring: &RingTopology{Shards: 2}, Clients: 1}},
		{"with bug", Options{Ring: &RingTopology{Shards: 2}, Bug: BugDisableDedup}},
		{"with topology", Options{Ring: &RingTopology{Shards: 2}, Topology: &Topology{Shards: 2}}},
		{"airline", Options{Workload: "airline", Ring: &RingTopology{Shards: 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := newWorkload(tc.opts.withDefaults()); err == nil {
				t.Fatalf("newWorkload accepted invalid ring options")
			}
		})
	}
}

// TestRingScheduleDeterministic: the ring world's fault schedule is a pure
// function of (seed, profile, topology), so a failed sweep seed reproduces.
func TestRingScheduleDeterministic(t *testing.T) {
	opts := Options{
		Seed:    3,
		Profile: CombinedProfile(),
		Ring:    &RingTopology{Shards: 4, Joins: 2, Leaves: 1},
	}
	a := Schedule(opts)
	b := Schedule(opts)
	if len(a) == 0 {
		t.Fatalf("combined profile generated an empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("schedules diverge at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestRingRepro: a ring run's one-line repro carries the ring shape.
func TestRingRepro(t *testing.T) {
	rep := Run(Options{
		Seed:         21,
		Profile:      QuietProfile(),
		Ring:         &RingTopology{Shards: 3, Joins: 1, Leaves: 1},
		Clients:      3,
		OpsPerClient: 4,
	})
	if rep.Failed() {
		t.Fatalf("quiet ring run failed:\n%s", rep)
	}
	if got := rep.Repro(); !strings.Contains(got, "-ring 3,1,1") {
		t.Fatalf("repro line %q does not carry the ring shape", got)
	}
}

// TestRingRebalanceSweep is the acceptance gate for the scale-out
// tentpole: a ring of four shards, two live joins and one live drain
// mid-run, under the combined profile (loss/dup/reorder, crash and
// partition windows, an island, an asymmetric cut, a ring cut, a rolling
// crash wave over every shard and the coordinator, a storage burst) with
// storage faults injected under every node — swept over >= 20 seeds.
// Every seed must hold conservation, exactly-once, single-owner-per-epoch,
// recovery-equals-replay, and the coordinator drain; a failed seed prints
// its one-line repro via the report.
//
// A couple of minutes on one core; push CI skips it (-short), the nightly
// job runs it.
func TestRingRebalanceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("ring rebalance sweep skipped in -short mode")
	}
	opts := Options{
		Profile:       CombinedProfile(),
		Ring:          &RingTopology{Shards: 4, Joins: 2, Leaves: 1},
		Clients:       4,
		OpsPerClient:  6,
		StorageFaults: &durable.FaultConfig{SyncFailRate: 0.001},
	}
	res := Sweep(SweepOptions{Opts: opts, StartSeed: 1, Count: 20})
	if res.Failed() {
		t.Fatalf("ring rebalance sweep failed:\n%s", res)
	}
	rebalanced := 0
	for _, r := range res.Reports {
		if r.OpsAcked == 0 {
			t.Fatalf("seed %d acked no operations:\n%s", r.Seed, r)
		}
		if r.RingEpoch < 1 {
			t.Fatalf("seed %d never bootstrapped its ring:\n%s", r.Seed, r)
		}
		rebalanced += r.Rebalances
	}
	// Individual seeds may lose a membership step to an unlucky fault
	// window (the driver dies and check() only re-drives the staged
	// epoch), but across the sweep live rebalances must actually happen.
	if rebalanced < len(res.Reports) {
		t.Fatalf("only %d rebalances across %d seeds — the sweep is not exercising live handoff",
			rebalanced, len(res.Reports))
	}
}
