package dst

import "testing"

// TestForkHealLifecycle drives the replication layer's fork rule from a
// schedule instead of a hand-built unit test: the fork window partitions
// the initial primary TOGETHER with the clients away from its group's
// majority, so client traffic keeps landing on the old primary — locally
// durable appends that never reach quorum — while the majority elects
// past it. On heal the deposed member truncates its forked suffix and
// takes the new leader's records, here with a branch that checkpoints
// every 2 ops. The verdict is asserted from the run's replication
// counters; the usual invariant checkers must stay green throughout — a
// forked record must never surface as acknowledged state, and every live
// member's log must equal the leader's.
func TestForkHealLifecycle(t *testing.T) {
	rep := Run(Options{
		Seed:            1,
		Profile:         ForkHealProfile(),
		Topology:        oneGroup(),
		CheckpointEvery: 2,
	})
	if rep.Failed() {
		t.Fatalf("fork-heal run failed:\n%s", rep)
	}
	if rep.Repl.ForksDetected == 0 {
		t.Fatalf("fork window forced no fork:\n%s", rep)
	}
	if rep.Repl.Takeovers == 0 {
		t.Fatalf("majority never took over the branch:\n%s", rep)
	}
}

// TestForkWithoutCheckpointsStaysQuarantined is the same fork without a
// checkpointing branch (the name is from when such a fork could not
// heal): with no checkpoint to ship, the fork heals by truncation alone,
// and the run's follower audit demands that the deposed primary, live
// again after the window, ends up holding exactly the leader's log.
func TestForkWithoutCheckpointsStaysQuarantined(t *testing.T) {
	rep := Run(Options{Seed: 1, Profile: ForkHealProfile(), Topology: oneGroup()})
	if rep.Failed() {
		t.Fatalf("fork run failed:\n%s", rep)
	}
	if rep.Repl.ForksDetected == 0 {
		t.Fatalf("fork window forced no fork:\n%s", rep)
	}
	if rep.Repl.CheckpointsShipped != 0 {
		t.Fatalf("a checkpoint was shipped, so truncation alone is not what healed:\n%s", rep)
	}
}
