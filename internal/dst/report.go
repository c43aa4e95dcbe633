package dst

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/netsim"
	"repro/internal/replica"
)

// Violation is one invariant breach found by a checker.
type Violation struct {
	// Invariant names the checker: "conservation", "exactly-once",
	// "balance", "no-overbooking", "recovery", "failover", "replication",
	// "single-owner", "rebalance", "drain", "setup".
	Invariant string
	// Detail is the human-readable evidence.
	Detail string
}

// Report is the outcome of one simulated run: identity (seed, workload,
// profile, bug), the fault schedule that ran, the violations found, and
// workload/network counters for the experiment tables.
type Report struct {
	Seed     int64
	Workload string
	Profile  string
	Bug      string
	// Nodes is the number of simulated nodes the workload's topology
	// placed in the world.
	Nodes    int
	Schedule []Event
	// Shrunk is true when Schedule was minimized after the original run
	// failed.
	Shrunk bool

	// opts is the exact (defaults-applied) configuration of the run,
	// kept for Repro.
	opts Options

	Violations []Violation

	// Workload counters: logical operations issued by clients, acked with
	// a definite outcome, and abandoned (timeout/failure — outcome
	// unknown).
	OpsIssued int64
	OpsAcked  int64
	OpsFailed int64
	// Retries counts re-send attempts beyond each call's first.
	Retries int64
	// Ring-workload counters (Options.Ring): membership flips that
	// committed and the final committed epoch.
	Rebalances int
	RingEpoch  int64

	Net netsim.Counts
	// Storage aggregates injected storage-fault counters across all
	// nodes; zero unless Options.StorageFaults was set.
	Storage durable.FaultStats
	// Replicated marks a replica-group run (Topology.ReplFactor >= 3);
	// Repl then aggregates the members' replication counters and Leader
	// names the member serving shard 0 at the end of the run.
	Replicated     bool
	Repl           replica.Stats
	Leader         string
	VirtualElapsed time.Duration
	RealElapsed    time.Duration
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

func (r *Report) addViolation(invariant, format string, args ...any) {
	r.Violations = append(r.Violations,
		Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// String renders the report; for a failed run it is the full failure
// story: seed, violations, the (possibly minimized) schedule, and the
// command line that reproduces it.
func (r *Report) String() string {
	var b strings.Builder
	status := "PASS"
	if r.Failed() {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "dst %s seed=%d workload=%s profile=%s", status, r.Seed, r.Workload, r.Profile)
	if r.Bug != "" {
		fmt.Fprintf(&b, " bug=%s", r.Bug)
	}
	fmt.Fprintf(&b, "\n  ops: issued=%d acked=%d failed=%d retries=%d\n",
		r.OpsIssued, r.OpsAcked, r.OpsFailed, r.Retries)
	fmt.Fprintf(&b, "  net: sent=%d delivered=%d lost=%d dup=%d reordered=%d partition-dropped=%d\n",
		r.Net.Sent, r.Net.Delivered, r.Net.Lost, r.Net.Duplicated, r.Net.Reordered, r.Net.Partition)
	if r.Storage.Syncs > 0 {
		fmt.Fprintf(&b, "  storage: syncs=%d sync-failed=%d short-writes=%d corrupted-tails=%d records-dropped=%d\n",
			r.Storage.Syncs, r.Storage.SyncsFailed, r.Storage.ShortWrites,
			r.Storage.CorruptedTails, r.Storage.RecordsDropped)
	}
	if r.RingEpoch > 0 {
		fmt.Fprintf(&b, "  ring: epoch=%d rebalances=%d\n", r.RingEpoch, r.Rebalances)
	}
	if r.Replicated {
		fmt.Fprintf(&b, "  repl: leader=%s shipped=%d applied=%d checkpoints=%d fenced=%d elections=%d takeovers=%d forks=%d\n",
			r.Leader, r.Repl.ShippedRecords, r.Repl.AppliedRecords, r.Repl.CheckpointsShipped,
			r.Repl.FencedStale, r.Repl.Elections, r.Repl.Takeovers, r.Repl.ForksDetected)
	}
	fmt.Fprintf(&b, "  time: %v virtual in %v real\n",
		r.VirtualElapsed.Round(time.Millisecond), r.RealElapsed.Round(time.Millisecond))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION %s: %s\n", v.Invariant, v.Detail)
	}
	if len(r.Schedule) > 0 {
		label := "schedule"
		if r.Shrunk {
			label = "schedule (minimized)"
		}
		fmt.Fprintf(&b, "  %s:\n", label)
		for _, ev := range r.Schedule {
			fmt.Fprintf(&b, "    %s\n", ev)
		}
	}
	if r.Failed() {
		fmt.Fprintf(&b, "  reproduce: %s\n", r.Repro())
	}
	return b.String()
}

// Repro returns the one-line command reproducing this run exactly: the
// same seed under the same (defaults-applied) configuration regenerates
// the same schedule, workload, and fate streams. Sweeps collect these
// lines for failed seeds; the nightly CI job uploads them as its
// failure artifact.
func (r *Report) Repro() string {
	var b strings.Builder
	fmt.Fprintf(&b, "go run ./cmd/dst -seed %d -workload %s -profile %s",
		r.Seed, r.Workload, r.Profile)
	o := r.opts
	if h := o.Profile.Horizon; h > 0 && profileHorizonDiffers(o.Profile) {
		fmt.Fprintf(&b, " -horizon %v", h)
	}
	if o.Clients > 0 {
		fmt.Fprintf(&b, " -clients %d", o.Clients)
	}
	if o.OpsPerClient > 0 {
		fmt.Fprintf(&b, " -ops %d", o.OpsPerClient)
	}
	if r.Bug != "" {
		fmt.Fprintf(&b, " -bug %s", r.Bug)
	}
	if t := o.Topology; t != nil {
		fmt.Fprintf(&b, " -shards %d", t.Shards)
		if t.ReplFactor > 1 {
			fmt.Fprintf(&b, " -replfactor %d", t.ReplFactor)
		}
	}
	if rt := o.Ring; rt != nil {
		fmt.Fprintf(&b, " -ring %d,%d,%d", rt.Shards, rt.Joins, rt.Leaves)
	}
	if o.CheckpointEvery > 0 {
		fmt.Fprintf(&b, " -cpevery %d", o.CheckpointEvery)
	}
	if sf := o.StorageFaults; sf != nil {
		fmt.Fprintf(&b, " -storage %g,%g,%g",
			sf.SyncFailRate, sf.ShortWriteRate, sf.CorruptTailRate)
	}
	return b.String()
}

// profileHorizonDiffers reports whether p's horizon deviates from the
// stock profile of the same name (a -horizon flag override); custom
// profiles always report false — their horizon is part of the profile.
func profileHorizonDiffers(p Profile) bool {
	stock, err := ProfileByName(p.Name)
	if err != nil {
		return false
	}
	return stock.Horizon != p.Horizon
}
