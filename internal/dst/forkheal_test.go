package dst

import "testing"

// TestForkHealLifecycle drives the replication layer's quarantine→heal
// lifecycle from a schedule instead of a hand-built unit test: the fork
// window partitions the initial primary TOGETHER with the clients away
// from its group's majority, so client traffic keeps landing on the old
// primary — locally durable appends that never reach quorum — while the
// majority elects past it. On heal the deposed member detects the fork,
// quarantines itself, and (because the branch checkpoints every 2 ops)
// heals by wholesale checkpoint supersession from the new leader. The
// verdict is asserted from the run's replication counters; the usual
// invariant checkers must stay green throughout — a healed member's
// forked records must never surface as acknowledged state.
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
	requireAudited(t, rep)
	if rep.Repl.ForksDetected == 0 {
		t.Fatalf("fork window forced no fork:\n%s", rep)
	}
	if rep.Repl.Heals == 0 {
		t.Fatalf("quarantined member never healed:\n%s", rep)
	}
	if rep.Repl.CheckpointsShipped == 0 {
		t.Fatalf("no checkpoint shipped — heal cannot have superseded the fork:\n%s", rep)
	}
	if rep.Repl.Takeovers == 0 {
		t.Fatalf("majority never took over the branch:\n%s", rep)
	}
}

// TestForkWithoutCheckpointsStaysQuarantined is the negative control:
// the same fork without a checkpointing branch leaves the deposed member
// quarantined forever — its forked tail can never log-match and no
// superseding checkpoint exists to replace it. Safety must still hold;
// permanence of the quarantine is the documented availability cost.
func TestForkWithoutCheckpointsStaysQuarantined(t *testing.T) {
	rep := Run(Options{
		Seed:     1,
		Profile:  ForkHealProfile(),
		Topology: oneGroup(),
	})
	if rep.Failed() {
		t.Fatalf("fork run failed:\n%s", rep)
	}
	requireAudited(t, rep)
	if rep.Repl.ForksDetected == 0 {
		t.Fatalf("fork window forced no fork:\n%s", rep)
	}
	if rep.Repl.Heals != 0 {
		t.Fatalf("member healed without any checkpoint to supersede the fork:\n%s", rep)
	}
}
