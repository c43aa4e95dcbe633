package dst

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/amo"
	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/sendprim"
	"repro/internal/vtime"
)

// clientsNode hosts every client session (and any name service): it never
// crashes, so the paper's "user" side survives to observe outcomes.
// serverNode is the airline workload's one crashable server.
const (
	serverNode  = "server"
	clientsNode = "clients"
)

// workload is one application under test. An instance is built per run
// and owns its ledgers; the run engine calls setup once, client
// concurrently per session, and check after the world quiesces.
type workload interface {
	// crashNodes are the nodes the schedule generator may crash.
	crashNodes() []string
	// killNodes are the nodes eligible for permanent kills (Profile.Kills)
	// and isolation windows (Profile.Isolations); empty for workloads that
	// cannot survive permanent node loss.
	killNodes() []string
	// setup registers definitions and bootstraps the server guardian.
	setup(w *guardian.World) error
	// client runs session i to completion, drawing every decision from
	// crng.
	client(i int, crng *rand.Rand)
	// check audits the final state; crashed tells it whether the schedule
	// contained crash events (some invariants are volatile-state-based and
	// only sound crash-free).
	check(w *guardian.World, rep *Report, crashed bool)
}

// storeWrapper is implemented by workloads that need to interpose on each
// node's durable store (a replicated topology wraps member stores in a
// replica.Store). The run engine composes it under any storage-fault
// wrapper: sim disk → fault wrapper → workload wrapper.
type storeWrapper interface {
	wrapStore(node string, inner durable.Store) (durable.Store, error)
}

// allNodes are the partition-eligible nodes: every crashable node plus
// the clients node.
func allNodes(wl workload) []string { return append(wl.crashNodes(), clientsNode) }

// checker creates the auditor's own driver process on the clients node.
func checker(w *guardian.World, rep *Report, name string) *guardian.Process {
	cnode, err := w.Node(clientsNode)
	if err == nil {
		var pr *guardian.Process
		if _, pr, err = cnode.NewDriver(name); err == nil {
			return pr
		}
	}
	rep.addViolation("setup", "checker driver: %v", err)
	return nil
}

// revive returns node, restarted if the schedule left it down.
func revive(w *guardian.World, rep *Report, node string) *guardian.Node {
	n, err := w.Node(node)
	if err != nil {
		rep.addViolation("recovery", "node %s missing: %v", node, err)
		return nil
	}
	if !n.Alive() {
		if err := n.Restart(); err != nil {
			rep.addViolation("recovery", "restart of %s failed: %v", node, err)
			return nil
		}
	}
	return n
}

// serving returns guardian id on node once it is provably serving. The
// node is revived, and ping — a synchronizing call to the guardian — must
// be answered: the reply proves the receiver loop is running, which in
// turn proves any recovery replay has completed. Only then is it safe to
// read the guardian's state directly.
func serving(w *guardian.World, rep *Report, node string, id uint64, ping func() error) *guardian.Guardian {
	n := revive(w, rep, node)
	if n == nil {
		return nil
	}
	if err := ping(); err != nil {
		rep.addViolation("recovery", "guardian %d on %s unreachable: %v", id, node, err)
		return nil
	}
	g, ok := n.GuardianByID(id)
	if !ok {
		rep.addViolation("recovery", "guardian %d on %s missing", id, node)
		return nil
	}
	return g
}

// attemptTimeout bounds each call attempt (virtual time); retries is a
// client call's re-send budget.
const (
	attemptTimeout = 25 * time.Millisecond
	retries        = 8
)

// callerOptions is the at-most-once caller configuration every client
// session uses; seed comes from the session's own stream.
func callerOptions(met *amo.Metrics, seed int64) amo.CallerOptions {
	return amo.CallerOptions{
		Timeout: attemptTimeout,
		Retries: retries,
		Backoff: amo.BackoffPolicy{Base: 2 * time.Millisecond, Jitter: 0.5},
		Seed:    seed,
		Metrics: met,
	}
}

// auditCallOptions is the patient retry budget of the checker's own
// synchronizing calls.
func auditCallOptions() sendprim.CallOptions {
	return sendprim.CallOptions{
		Timeout: attemptTimeout,
		Retries: 30,
		Backoff: 2 * time.Millisecond,
	}
}

// waitUntil polls cond every 5 ms of virtual time until it holds or limit
// has passed.
func waitUntil(clock vtime.Clock, limit time.Duration, cond func() bool) bool {
	for waited := time.Duration(0); waited < limit; waited += 5 * time.Millisecond {
		if cond() {
			return true
		}
		clock.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// pace spreads a client's operations across roughly three quarters of the
// profile horizon. Without it the whole workload drains in the first few
// hundred virtual milliseconds and the fault windows — placed between 10 %
// and 65 % of the horizon — fire into an idle network, testing nothing.
// The gap is drawn from the client's own stream, so it stays a
// deterministic function of the seed.
func pace(pr *guardian.Process, crng *rand.Rand, opts Options) {
	mean := opts.Profile.Horizon * 3 / 4 / time.Duration(opts.OpsPerClient+2)
	if mean <= 0 {
		return
	}
	pr.Pause(time.Duration(float64(mean) * (0.5 + crng.Float64())))
}

// branchArgs builds the bank branch bootstrap arguments implied by the
// run options: "raw" to disable dedup (the seeded bug), and a checkpoint
// interval when the run exercises checkpointing. Shared by every bank
// workload so the branch under test is configured identically whether it
// is bootstrapped directly, by a replica takeover, or as a ring member.
func branchArgs(opts Options) []any {
	var args []any
	if opts.Bug == BugDisableDedup {
		args = append(args, "raw")
	}
	if opts.CheckpointEvery > 0 {
		args = append(args, int64(opts.CheckpointEvery))
	}
	return args
}

func newWorkload(opts Options) (workload, error) {
	switch opts.Workload {
	case "bank":
		if opts.Ring == nil {
			return newShardedWorkload(opts)
		}
		if opts.Bug != "" {
			return nil, fmt.Errorf("dst: bug %q needs a static topology, not a ring", opts.Bug)
		}
		if opts.Topology != nil {
			return nil, fmt.Errorf("dst: Ring and Topology are exclusive")
		}
		return newRingWorkload(opts)
	case "airline":
		if opts.Bug != "" {
			return nil, fmt.Errorf("dst: bug %q is bank-only", opts.Bug)
		}
		if opts.Topology != nil || opts.Ring != nil {
			return nil, fmt.Errorf("dst: topologies and rings are bank-only")
		}
		return newAirlineWorkload(opts), nil
	default:
		return nil, fmt.Errorf("dst: unknown workload %q", opts.Workload)
	}
}
