// Package dst is a deterministic simulation testing harness for the
// guardian runtime: whole multi-node programs — the bank and airline
// applications, their at-most-once sessions, the lossy network, crashes
// and partitions — run to completion on a virtual clock, in milliseconds
// of real time, with every random decision derived from one master seed.
//
// The paper argues informally that its primitives survive "crashes of the
// physical nodes" and an unreliable network (§1.1, §3.4); this package
// turns that argument into a checked property. Each run derives, from the
// seed (fault.NewRun), (1) the network's fate decisions (loss,
// duplication, reordering — internal/netsim), (2) a fault schedule of
// node crash/restart and partition/heal windows placed in virtual time,
// and (3) the client workload. Invariant checkers then audit the
// surviving state:
// conservation of money and exactly-once application for the bank,
// no-overbooking for the airline, and a recovery checker asserting the
// post-crash state equals the stable-log replay.
//
// A failed run prints its seed, its fault schedule (minimized by Shrink),
// and the violated invariants; re-running the same seed regenerates the
// identical schedule and workload, so red runs reproduce by pasting the
// report's "reproduce:" line (Report.Repro):
//
//	go run ./cmd/dst -seed N -workload bank -profile mixed [-shards ...]
//
// What is and is not deterministic here — virtual time is driven by
// vtime.Sim.Drive, but goroutine interleaving within one virtual instant
// is the Go scheduler's — is discussed in DESIGN.md §7; the invariants are
// written to be schedule-independent, so a violation is a real bug
// regardless of interleaving.
package dst

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/guardian"
	"repro/internal/netsim"
	"repro/internal/vtime"
)

// sendUnsyncedCrashRate is the share of send-unsynced windows a crashing
// profile crashes the sender at.
const sendUnsyncedCrashRate = 0.25

// Injectable bugs: each disables one protection the harness exists to
// audit, as a self-test that the checkers actually have teeth.
const (
	// BugDisableDedup runs the bank branch in its "raw" control-arm mode:
	// the at-most-once filter is removed, so duplicated or retried deposits
	// apply more than once and conservation of money breaks.
	BugDisableDedup = "disable-dedup"
)

// Profile bundles the fault intensity of a run: the network's standing
// fate rates plus how many crash and partition windows the schedule
// generator places inside the horizon.
type Profile struct {
	Name string

	// Net is the network's standing fault and delay model, handed to the
	// world as is but for its Seed, which the run derives. Zero BaseLatency
	// means 500µs.
	Net netsim.Config

	// Crashes is the number of crash→restart windows over the workload's
	// crashable nodes.
	Crashes int
	// Partitions is the number of partition→heal windows.
	Partitions int
	// Kills is the number of permanent node kills, placed over the
	// workload's kill-eligible nodes (each replicated shard's initial
	// primary). A killed node is never restarted; only a replicated
	// Topology survives one.
	Kills int
	// Isolations is the number of partition→heal windows that cut exactly
	// the first kill-eligible node off from the rest of the world — the
	// split-brain shape: the old primary keeps believing it leads while
	// the majority elects past it.
	Isolations int

	// The composite-fault vocabulary (see genSchedule for the shapes).
	// Islands is the number of island windows: a random minority group
	// (up to a third of the nodes) loses its uplink together.
	Islands int
	// Asymmetries is the number of one-way link-cut windows: one
	// direction of one link dies while the reverse keeps flowing.
	Asymmetries int
	// RingCuts is the number of ring-cut windows: the nodes as a cycle
	// lose two edges and split into two contiguous arcs.
	RingCuts int
	// Waves is the number of rolling crash waves: every crashable node
	// crashes once, staggered in a random order.
	Waves int
	// StorageBursts is the number of windows multiplying the injected
	// storage-fault rates (no-ops unless Options.StorageFaults is set).
	StorageBursts int
	// Forks is the number of fork windows: the initial primary is
	// partitioned together with the clients away from its group's
	// majority, so client appends fork its log while the majority
	// elects past it. Replicated workloads only.
	Forks int

	// Horizon is the virtual window fault events are placed in.
	Horizon time.Duration
}

func (p Profile) withDefaults() Profile {
	if p.Name == "" {
		p.Name = "custom"
	}
	if p.Net.BaseLatency == 0 {
		p.Net.BaseLatency = 500 * time.Microsecond
	}
	if p.Horizon == 0 {
		p.Horizon = 2 * time.Second
	}
	return p
}

// The stock profiles, in increasing order of hostility.
func QuietProfile() Profile {
	return Profile{Name: "quiet", Net: netsim.Config{Jitter: 200 * time.Microsecond}}.withDefaults()
}
func LossyProfile() Profile {
	return Profile{Name: "lossy", Net: netsim.Config{LossRate: 0.25, DupRate: 0.25, ReorderRate: 0.20,
		Jitter: 300 * time.Microsecond}}.withDefaults()
}
func PartitionedProfile() Profile {
	return Profile{Name: "partitioned", Net: netsim.Config{LossRate: 0.05, DupRate: 0.05,
		Jitter: 300 * time.Microsecond}, Partitions: 2}.withDefaults()
}
func CrashyProfile() Profile {
	return Profile{Name: "crashy", Net: netsim.Config{LossRate: 0.05, DupRate: 0.05,
		Jitter: 300 * time.Microsecond}, Crashes: 2, Partitions: 1}.withDefaults()
}

// MixedProfile is the default seed-sweep profile: every fault class at
// once, at moderate rates.
func MixedProfile() Profile {
	return Profile{Name: "mixed", Net: netsim.Config{LossRate: 0.10, DupRate: 0.10, ReorderRate: 0.10,
		Jitter: 300 * time.Microsecond}, Crashes: 1, Partitions: 1}.withDefaults()
}

// ReplicaProfile is the failover gate: a lossy network plus one permanent
// kill of the initial primary mid-transfer. Only meaningful on a
// replicated Topology — a plain shard cannot survive it.
func ReplicaProfile() Profile {
	return Profile{Name: "replica", Net: netsim.Config{LossRate: 0.05, DupRate: 0.05,
		Jitter: 300 * time.Microsecond}, Kills: 1}.withDefaults()
}

// SplitBrainProfile isolates the initial primary behind a partition long
// enough for the majority to elect past it, then heals: the deposed
// primary's stale-term traffic must be fenced, not applied.
func SplitBrainProfile() Profile {
	return Profile{Name: "splitbrain", Net: netsim.Config{LossRate: 0.05, DupRate: 0.05,
		Jitter: 300 * time.Microsecond}, Isolations: 1}.withDefaults()
}

// ForkHealProfile drives the fork rule end to end: a fork window keeps
// client traffic flowing into the isolated primary while the majority
// elects past it, so the primary's log truly forks; after the heal the
// deposed member must truncate its forked suffix and converge on the new
// leader's log. Meaningful on a replicated Topology. The longer horizon
// leaves room for the post-heal traffic.
func ForkHealProfile() Profile {
	return Profile{Name: "forkheal", Net: netsim.Config{LossRate: 0.03, DupRate: 0.03,
		Jitter: 300 * time.Microsecond}, Forks: 1,
		Horizon: 4 * time.Second}.withDefaults()
}

// CombinedProfile is the scale-sweep profile: every fault class the
// vocabulary knows — loss/dup/reorder, crash and partition windows, an
// island, an asymmetric link cut, a ring cut, a rolling crash wave, and
// a storage burst — in one schedule, over a longer horizon. With
// Options.StorageFaults and a replicated topology it drives network,
// storage, and replication faults simultaneously.
func CombinedProfile() Profile {
	return Profile{Name: "combined", Net: netsim.Config{LossRate: 0.05, DupRate: 0.05, ReorderRate: 0.05,
		Jitter: 300 * time.Microsecond},
		Crashes: 1, Partitions: 1, Islands: 1, Asymmetries: 1,
		RingCuts: 1, Waves: 1, StorageBursts: 1,
		Horizon: 4 * time.Second}.withDefaults()
}

// Profiles returns the stock profiles.
func Profiles() []Profile {
	return []Profile{QuietProfile(), LossyProfile(), PartitionedProfile(),
		CrashyProfile(), MixedProfile(), ReplicaProfile(), SplitBrainProfile(),
		ForkHealProfile(), CombinedProfile()}
}

// ProfileByName resolves a stock profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("dst: unknown profile %q", name)
}

// Options configures one simulated run.
type Options struct {
	// Seed is the master seed; every random decision of the run derives
	// from it.
	Seed int64
	// Workload selects the application under test: "bank" (default) or
	// "airline".
	Workload string
	// Profile is the fault intensity. Zero value means MixedProfile.
	Profile Profile
	// Clients is the number of concurrent client sessions. Zero means 3.
	Clients int
	// OpsPerClient is the number of operations each client issues after
	// setup. Zero means 12.
	OpsPerClient int
	// Bug optionally disables a protection (see the Bug* constants), as a
	// harness self-test: the checkers must catch it.
	Bug string
	// Topology is the shape of the bank world (see Topology). Nil means
	// Topology{Shards: 1}: one branch on one crashable node. Bank-only;
	// Bug needs a plain topology.
	Topology *Topology
	// Ring, when non-nil, replaces the workload's fixed node set with a
	// consistent-hash ring of shard-mode bank branches behind a
	// nameserver-hosted membership view: client session 0 becomes the
	// rebalance driver (bootstrap, then live joins and leaves mid-run)
	// while the rest route traffic through bank.Router, with cross-shard
	// transfers on a 2PC coordinator node. Bank-only; exclusive with
	// Topology and Bug; needs Clients >= 2.
	Ring *RingTopology
	// CheckpointEvery, when positive, makes every bank branch checkpoint
	// its state each N mutating operations — exercising the
	// checkpoint-shipping path of the replication layer, and log
	// compaction everywhere else.
	CheckpointEvery int
	// StorageFaults, when non-nil, injects storage faults under every
	// node: each node's in-memory disk draws fates at the given rates,
	// from dice seeded by fault.Run.Storage — derived, not drawn from the
	// master stream, so enabling storage faults does not perturb the
	// network or workload streams of the same seed. A
	// faulted node is fail-stopped before the sync returns (no
	// acknowledgment of unsynced state can escape) and restarted a moment
	// later, driving the recovery path through the damage. The config's
	// Seed is owned by the harness and overwritten.
	StorageFaults *durable.FaultConfig
}

func (o Options) withDefaults() Options {
	if o.Workload == "" {
		o.Workload = "bank"
	}
	if o.Profile.Name == "" && o.Profile == (Profile{}) {
		o.Profile = MixedProfile()
	} else {
		o.Profile = o.Profile.withDefaults()
	}
	if o.Clients <= 0 {
		o.Clients = 3
	}
	if o.OpsPerClient <= 0 {
		o.OpsPerClient = 12
	}
	return o
}

// Schedule generates (without running) the fault schedule opts would run
// under — the deterministic function of (seed, profile, workload nodes)
// that makes reproduction possible.
func Schedule(opts Options) []Event {
	opts = opts.withDefaults()
	wl, err := newWorkload(opts)
	if err != nil {
		return nil
	}
	return genSchedule(fault.NewRun(opts.Seed).Schedule(), opts.Profile, wl.crashNodes(), allNodes(wl), wl.killNodes())
}

// Run executes one simulated run: schedule generation, then
// RunWithSchedule.
func Run(opts Options) *Report {
	opts = opts.withDefaults()
	return RunWithSchedule(opts, Schedule(opts))
}

// RunWithSchedule executes one simulated run under an explicit fault
// schedule (the shrinker's entry point: same seed, fewer events). The
// network and workload streams still derive from opts.Seed exactly as in
// Run, so removing a schedule event is the ONLY difference between the
// two runs.
func RunWithSchedule(opts Options, schedule []Event) *Report {
	return run(opts, schedule, workload.check)
}

// run is RunWithSchedule with the audit phase as a parameter, so a test
// can doctor the finished workload's books before auditing it.
func run(opts Options, schedule []Event, audit func(workload, *guardian.World, *Report, bool)) *Report {
	opts = opts.withDefaults()
	rep := &Report{
		Seed:       opts.Seed,
		Workload:   opts.Workload,
		Profile:    opts.Profile.Name,
		Bug:        opts.Bug,
		Replicated: opts.Topology != nil && opts.Topology.replicated(),
		Schedule:   schedule,
		opts:       opts,
	}
	wl, err := newWorkload(opts)
	if err != nil {
		rep.addViolation("setup", err.Error())
		return rep
	}
	rep.Nodes = len(allNodes(wl))

	streams := fault.NewRun(opts.Seed)
	clock := vtime.NewSim(time.Unix(0, 0))
	cfg := guardian.Config{Clock: clock, Net: opts.Profile.Net}
	cfg.Net.Seed = streams.Net()

	var (
		w       *guardian.World
		storeMu sync.Mutex
		faulty  []*durable.Mem
	)
	// crashAndRestart fail-stops node where a window fired and restarts it
	// a moment later, forcing recovery through what the crash left.
	crashAndRestart := func(node string) {
		n, err := w.Node(node)
		if err != nil || !n.Alive() {
			return
		}
		n.Crash()
		go func() {
			clock.Sleep(15 * time.Millisecond)
			if !n.Alive() {
				_ = n.Restart()
			}
		}()
	}

	// A profile that crashes nodes also crashes one, now and then, where a
	// guardian's message has left ahead of its log's Sync: the instant an
	// acknowledged effect is lost if the guardian acked too early. The
	// decisions come from their own stream, so every other draw keeps its
	// place; the window closes when the clients finish, before the audit.
	var windowsOpen atomic.Bool
	if opts.Profile.Crashes > 0 {
		var windowMu sync.Mutex
		windows := streams.Windows()
		windowsOpen.Store(true)
		cfg.Crash = func(node string) fault.Hook {
			return func(point, _ string) {
				if point != fault.SendUnsynced || !windowsOpen.Load() {
					return
				}
				windowMu.Lock()
				fire := windows.Float64() < sendUnsyncedCrashRate
				windowMu.Unlock()
				if fire {
					crashAndRestart(node)
				}
			}
		}
	}

	// Storage fault injection: every node's in-memory disk draws seeded
	// fates at Sync. A fault fail-stops the node before its Sync
	// returns — no acknowledgment of unsynced state can escape — and a
	// restart a moment later forces recovery through the damage.
	sw, wrapsStores := wl.(storeWrapper)
	cfg.Store = func(node string) (durable.Store, error) {
		var mcfg durable.MemConfig
		if sf := opts.StorageFaults; sf != nil {
			mcfg.FaultConfig = *sf
			mcfg.Seed = streams.Storage(node)
			mcfg.Crash = func(point, _ string) {
				if point != fault.MidCheckpoint {
					crashAndRestart(node)
				}
			}
		}
		mem := durable.NewMem(clock, mcfg)
		if opts.StorageFaults != nil {
			storeMu.Lock()
			faulty = append(faulty, mem)
			storeMu.Unlock()
		}
		if wrapsStores {
			return sw.wrapStore(node, mem)
		}
		return mem, nil
	}
	w = guardian.NewWorld(cfg)

	start := clock.Now()
	realStart := time.Now()
	if err := wl.setup(w); err != nil {
		rep.addViolation("setup", err.Error())
		return rep
	}

	// Client sessions: each drives its own sequence of calls from its own
	// seed-derived stream.
	var clients sync.WaitGroup
	for i := 0; i < opts.Clients; i++ {
		i := i
		crng := streams.Client(i)
		clients.Add(1)
		go func() {
			defer clients.Done()
			wl.client(i, crng)
		}()
	}

	// Storage bursts scale every node's injected fault rates for a
	// window; a no-op when StorageFaults is unset.
	setStorageScale := func(f float64) {
		storeMu.Lock()
		defer storeMu.Unlock()
		for _, wr := range faulty {
			wr.SetFaultScale(f)
		}
	}

	// Fault executor: sleeps on the virtual clock to each event's offset
	// and applies it, so faults land at exactly their scheduled virtual
	// times relative to the workload's own timers. Kills are permanent:
	// a later EvRestart of a killed node (an overlapping crash window) is
	// suppressed, so "killed" really means never coming back.
	execDone := make(chan struct{})
	go func() {
		defer close(execDone)
		killed := make(map[string]bool)
		for _, ev := range schedule {
			if d := ev.At - clock.Since(start); d > 0 {
				clock.Sleep(d)
			}
			if ev.Kind == EvKill {
				killed[ev.Node] = true
			}
			if ev.Kind == EvRestart && killed[ev.Node] {
				continue
			}
			applyEvent(w, ev, setStorageScale)
		}
	}()

	crashed := false
	for _, ev := range schedule {
		if ev.Kind == EvCrash || ev.Kind == EvKill {
			crashed = true
		}
	}

	// The audit phase runs while the clock is still driven: the recovery
	// checker crashes and restarts the server once more, and recovery —
	// like the checker's own synchronizing calls — needs network timers to
	// fire.
	var done atomic.Bool
	go func() {
		defer done.Store(true)
		clients.Wait()
		windowsOpen.Store(false)
		<-execDone
		w.Quiesce()
		// Quiesce covers network deliveries; give same-node dispatch
		// goroutines a moment of real time too.
		time.Sleep(2 * time.Millisecond)
		rep.VirtualElapsed = clock.Since(start)
		rep.Net = w.Net().Counts()
		storeMu.Lock()
		for _, wr := range faulty {
			s := wr.InjectedStats()
			rep.Storage.Syncs += s.Syncs
			rep.Storage.SyncsFailed += s.SyncsFailed
			rep.Storage.ShortWrites += s.ShortWrites
			rep.Storage.CorruptedTails += s.CorruptedTails
			rep.Storage.RecordsDropped += s.RecordsDropped
		}
		storeMu.Unlock()
		// A storage fault fail-stops its node outside the schedule; the
		// volatile-counter audits must treat that as a crash too.
		if rep.Storage.SyncsFailed+rep.Storage.ShortWrites+rep.Storage.CorruptedTails > 0 {
			crashed = true
		}
		audit(wl, w, rep, crashed)
	}()
	clock.Drive(done.Load)
	rep.RealElapsed = time.Since(realStart)
	return rep
}

// applyEvent performs one schedule event against the world. Crashing a
// dead node or restarting a live one (overlapping windows) is a no-op.
// setStorageScale applies a burst factor to every node's faulty Mem.
func applyEvent(w *guardian.World, ev Event, setStorageScale func(float64)) {
	switch ev.Kind {
	case EvCrash, EvKill:
		if n, err := w.Node(ev.Node); err == nil && n.Alive() {
			n.Crash()
		}
	case EvRestart:
		if n, err := w.Node(ev.Node); err == nil && !n.Alive() {
			_ = n.Restart()
		}
	case EvPartition:
		groups := make([][]netsim.Addr, len(ev.Groups))
		for i, g := range ev.Groups {
			groups[i] = make([]netsim.Addr, len(g))
			for j, name := range g {
				groups[i][j] = netsim.Addr(name)
			}
		}
		w.Net().Partition(groups...)
	case EvHeal:
		w.Net().Heal()
	case EvCutLink:
		w.Net().CutDirected(netsim.Addr(ev.Node), netsim.Addr(ev.Peer))
	case EvRestoreLink:
		w.Net().RestoreDirected(netsim.Addr(ev.Node), netsim.Addr(ev.Peer))
	case EvStorageBurst:
		setStorageScale(ev.Factor)
	case EvStorageCalm:
		setStorageScale(1)
	}
}
