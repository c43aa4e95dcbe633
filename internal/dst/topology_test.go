package dst

import (
	"testing"

	"repro/internal/durable"
)

// TestShardedPlainTopology runs a small sharded world — four plain
// branches plus the clients node — under the mixed profile and expects
// every per-shard invariant to hold.
func TestShardedPlainTopology(t *testing.T) {
	rep := Run(Options{
		Seed:     7,
		Workload: "bank",
		Topology: &Topology{Shards: 4},
		Clients:  4,
	})
	if rep.Failed() {
		t.Fatalf("sharded plain run failed:\n%s", rep)
	}
	if rep.Nodes != 5 {
		t.Fatalf("Nodes = %d, want 5 (4 shards + clients)", rep.Nodes)
	}
	if rep.Replicated {
		t.Fatalf("plain topology reported Replicated")
	}
	if rep.OpsAcked == 0 {
		t.Fatalf("no operations acked:\n%s", rep)
	}
}

// TestShardedReplicatedTopology runs three shards each behind its own
// three-member quorum group (10 nodes) with checkpointing branches and
// storage faults — the combined-fault stack at small scale.
func TestShardedReplicatedTopology(t *testing.T) {
	rep := Run(Options{
		Seed:            11,
		Workload:        "bank",
		Topology:        &Topology{Shards: 3, ReplFactor: 3},
		Clients:         3,
		CheckpointEvery: 4,
		StorageFaults: &durable.FaultConfig{
			SyncFailRate: 0.002,
		},
	})
	if rep.Failed() {
		t.Fatalf("sharded replicated run failed:\n%s", rep)
	}
	if rep.Nodes != 10 {
		t.Fatalf("Nodes = %d, want 10 (3 shards x 3 members + clients)", rep.Nodes)
	}
	if !rep.Replicated {
		t.Fatalf("replicated topology not reported Replicated")
	}
	if rep.Repl.ShippedRecords == 0 {
		t.Fatalf("no records shipped between members:\n%s", rep)
	}
}

// TestTopologyValidation rejects the configurations the generator cannot
// build.
func TestTopologyValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"zero shards", Options{Topology: &Topology{Shards: 0}}},
		{"even repl factor", Options{Topology: &Topology{Shards: 2, ReplFactor: 2}}},
		{"with bug", Options{Topology: &Topology{Shards: 2, ReplFactor: 3}, Bug: BugDisableDedup}},
		{"airline", Options{Workload: "airline", Topology: &Topology{Shards: 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := newWorkload(tc.opts.withDefaults()); err == nil {
				t.Fatalf("newWorkload accepted invalid topology options")
			}
		})
	}
}

// TestTopologySchedulesDeterministic: the sharded world's schedule is a
// pure function of (seed, profile, topology), like every other workload's.
func TestTopologySchedulesDeterministic(t *testing.T) {
	opts := Options{
		Seed:     3,
		Profile:  CombinedProfile(),
		Topology: &Topology{Shards: 5, ReplFactor: 3},
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
	// A combined-profile schedule over a replicated topology must place
	// every fault class it promises.
	kinds := make(map[EventKind]int)
	for _, ev := range a {
		kinds[ev.Kind]++
	}
	for _, k := range []EventKind{EvCrash, EvPartition, EvCutLink, EvStorageBurst} {
		if kinds[k] == 0 {
			t.Fatalf("combined schedule has no %v events:\n%v", k, a)
		}
	}
	// The rolling wave crashes every crashable node once: 16 members from
	// the wave + 1 standalone crash window.
	if kinds[EvCrash] < 16 {
		t.Fatalf("rolling wave missing: only %d crashes", kinds[EvCrash])
	}
}

// elapsedBudget guards against the virtual clock stalling: the combined
// profile's 4 s horizon must complete, not hang.
func TestCombinedProfileSmallTopology(t *testing.T) {
	rep := Run(Options{
		Seed:            5,
		Profile:         CombinedProfile(),
		Topology:        &Topology{Shards: 3, ReplFactor: 3},
		Clients:         3,
		CheckpointEvery: 4,
	})
	if rep.Failed() {
		t.Fatalf("combined profile run failed:\n%s", rep)
	}
	// The run drains after the last scheduled fault, not at the full
	// horizon; the long-horizon placement must still have been driven.
	sched := rep.Schedule
	if last := sched[len(sched)-1].At; rep.VirtualElapsed < last {
		t.Fatalf("virtual clock stopped at %v, before the last scheduled fault at %v",
			rep.VirtualElapsed, last)
	}
}
