package dst

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/netsim"
)

// EventKind classifies one fault-schedule event.
type EventKind int

// Fault-schedule event kinds.
const (
	// EvCrash kills a node: every guardian's processes die, volatile state
	// is lost, the disk survives (guardian.Node.Crash).
	EvCrash EventKind = iota
	// EvRestart brings a crashed node back; guardians with Recover are
	// re-created from the catalog and replay their stable logs.
	EvRestart
	// EvPartition splits the network into the event's groups.
	EvPartition
	// EvHeal removes any active partition.
	EvHeal
	// EvKill kills a node permanently: like EvCrash, but the node is never
	// restarted — the run engine suppresses any later EvRestart of it. This
	// is the replicated topology's fault: permanent loss of a primary, which
	// only failover (not recovery) can survive.
	EvKill
	// EvCutLink severs the single directed link Node→Peer (the asymmetric
	// shape: Peer still reaches Node, Node never reaches Peer). Restored
	// by the paired EvRestoreLink; EvHeal does not touch directed cuts.
	EvCutLink
	// EvRestoreLink restores the directed link cut by its paired EvCutLink.
	EvRestoreLink
	// EvStorageBurst multiplies every node's injected storage-fault rates
	// by Factor until the paired EvStorageCalm — a cluster-wide window of
	// dying disks. A no-op unless Options.StorageFaults is set.
	EvStorageBurst
	// EvStorageCalm restores storage-fault rates to their standing values.
	EvStorageCalm
)

// String returns the kind's schedule-trace name.
func (k EventKind) String() string {
	switch k {
	case EvCrash:
		return "crash"
	case EvRestart:
		return "restart"
	case EvPartition:
		return "partition"
	case EvHeal:
		return "heal"
	case EvKill:
		return "kill"
	case EvCutLink:
		return "cut-link"
	case EvRestoreLink:
		return "restore-link"
	case EvStorageBurst:
		return "storage-burst"
	case EvStorageCalm:
		return "storage-calm"
	default:
		return "unknown"
	}
}

// Event is one entry of a fault schedule: an action applied to the world
// at a virtual-time offset from the run's start. A schedule is a pure
// function of (seed, profile, node set), which is what makes a red run
// reproducible: re-running the seed replays exactly these events at
// exactly these virtual times.
type Event struct {
	// At is the virtual-time offset from the run's start.
	At time.Duration
	// Kind is the action.
	Kind EventKind
	// Node is the target of a crash/restart, or the source of a directed
	// link cut.
	Node string
	// Peer is the destination of a directed link cut (EvCutLink,
	// EvRestoreLink).
	Peer string
	// Groups are the partition groups of an EvPartition.
	Groups [][]string
	// Factor is the fault-rate multiplier of an EvStorageBurst.
	Factor float64
	// Pair links the events of one fault window (crash/restart,
	// partition/heal, cut/restore, burst/calm — a rolling wave's whole
	// crash sequence shares one id) so the shrinker removes whole
	// windows, never leaving a node down or a partition unhealed by
	// accident.
	Pair int
}

// String renders one schedule line.
func (e Event) String() string {
	switch e.Kind {
	case EvCrash, EvRestart, EvKill:
		return fmt.Sprintf("@%-8v %s %s", e.At, e.Kind, e.Node)
	case EvPartition:
		parts := make([]string, len(e.Groups))
		for i, g := range e.Groups {
			parts[i] = "{" + strings.Join(g, ",") + "}"
		}
		return fmt.Sprintf("@%-8v partition %s", e.At, strings.Join(parts, " | "))
	case EvCutLink, EvRestoreLink:
		return fmt.Sprintf("@%-8v %s %s->%s", e.At, e.Kind, e.Node, e.Peer)
	case EvStorageBurst:
		return fmt.Sprintf("@%-8v storage-burst x%.1f", e.At, e.Factor)
	case EvStorageCalm:
		return fmt.Sprintf("@%-8v storage-calm", e.At)
	default:
		return fmt.Sprintf("@%-8v heal", e.At)
	}
}

// sameSchedule reports whether two schedules are event-for-event equal —
// the reproducibility assertion a re-run of a printed seed must satisfy.
func sameSchedule(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// genSchedule derives the fault schedule from its own random stream:
// Crashes crash→restart windows over the crashable nodes, Partitions
// partition→heal windows over all nodes, Kills permanent kills of the
// killable nodes, and Isolations partition→heal windows that cut exactly
// the first killable node (shard 0's initial primary) off
// from everyone else — the split-brain shape. All are placed inside the
// profile's horizon and sorted by offset. Windows may overlap;
// application order at equal times follows schedule order, and
// overlapping partitions resolve to last-writer-wins (Heal removes every
// active partition), matching netsim's semantics. New fault classes draw
// after the old ones, so profiles that use none of them generate the
// same schedules they always did.
func genSchedule(rng *rand.Rand, p Profile, crashable, all, killable []string) []Event {
	var evs []Event
	pair := 0
	h := p.Horizon
	for i := 0; i < p.Crashes && len(crashable) > 0; i++ {
		node := crashable[rng.Intn(len(crashable))]
		at := time.Duration(float64(h) * (0.10 + 0.55*rng.Float64()))
		down := time.Duration(float64(h) * (0.05 + 0.10*rng.Float64()))
		evs = append(evs,
			Event{At: at, Kind: EvCrash, Node: node, Pair: pair},
			Event{At: at + down, Kind: EvRestart, Node: node, Pair: pair})
		pair++
	}
	for i := 0; i < p.Partitions && len(all) > 1; i++ {
		perm := rng.Perm(len(all))
		cut := 1 + rng.Intn(len(all)-1)
		groups := [][]string{{}, {}}
		for j, idx := range perm {
			side := 0
			if j >= cut {
				side = 1
			}
			groups[side] = append(groups[side], all[idx])
		}
		for _, g := range groups {
			sort.Strings(g)
		}
		at := time.Duration(float64(h) * (0.10 + 0.55*rng.Float64()))
		dur := time.Duration(float64(h) * (0.05 + 0.15*rng.Float64()))
		evs = append(evs,
			Event{At: at, Kind: EvPartition, Groups: groups, Pair: pair},
			Event{At: at + dur, Kind: EvHeal, Pair: pair})
		pair++
	}
	// Kills land mid-horizon — after clients have in-flight work (the
	// "mid-transfer" window) and early enough that failover and the
	// retried calls complete inside the run.
	for i := 0; i < p.Kills && len(killable) > 0; i++ {
		node := killable[rng.Intn(len(killable))]
		at := time.Duration(float64(h) * (0.25 + 0.35*rng.Float64()))
		evs = append(evs, Event{At: at, Kind: EvKill, Node: node, Pair: pair})
		pair++
	}
	for i := 0; i < p.Isolations && len(killable) > 0 && len(all) > 1; i++ {
		iso := killable[0]
		groups := [][]string{{iso}, {}}
		for _, n := range all {
			if n != iso {
				groups[1] = append(groups[1], n)
			}
		}
		sort.Strings(groups[1])
		at := time.Duration(float64(h) * (0.20 + 0.25*rng.Float64()))
		dur := time.Duration(float64(h) * (0.15 + 0.15*rng.Float64()))
		evs = append(evs,
			Event{At: at, Kind: EvPartition, Groups: groups, Pair: pair},
			Event{At: at + dur, Kind: EvHeal, Pair: pair})
		pair++
	}

	// The composite-fault vocabulary. Every class draws strictly after
	// the ones above, preserving the schedules of every seed recorded
	// before it existed (internal/dst/testdata/seeds.txt).

	// Islands: a random minority island (up to a third of the nodes,
	// its internal connectivity intact) loses its uplink — the
	// rack-partition shape.
	for i := 0; i < p.Islands && len(all) > 2; i++ {
		perm := rng.Perm(len(all))
		size := 1 + rng.Intn(max(1, len(all)/3))
		island := make([]string, size)
		for j := 0; j < size; j++ {
			island[j] = all[perm[j]]
		}
		sort.Strings(island)
		mainland := make([]string, 0, len(all)-size)
		for j := size; j < len(perm); j++ {
			mainland = append(mainland, all[perm[j]])
		}
		sort.Strings(mainland)
		at := time.Duration(float64(h) * (0.10 + 0.50*rng.Float64()))
		dur := time.Duration(float64(h) * (0.10 + 0.15*rng.Float64()))
		evs = append(evs,
			Event{At: at, Kind: EvPartition, Groups: [][]string{island, mainland}, Pair: pair},
			Event{At: at + dur, Kind: EvHeal, Pair: pair})
		pair++
	}

	// Asymmetric link cuts: one direction of one link dies while the
	// reverse keeps flowing — the shape a half-broken firewall rule
	// produces, which symmetric partitions can never generate.
	for i := 0; i < p.Asymmetries && len(all) > 1; i++ {
		from := all[rng.Intn(len(all))]
		to := from
		for to == from {
			to = all[rng.Intn(len(all))]
		}
		at := time.Duration(float64(h) * (0.10 + 0.50*rng.Float64()))
		dur := time.Duration(float64(h) * (0.10 + 0.20*rng.Float64()))
		evs = append(evs,
			Event{At: at, Kind: EvCutLink, Node: from, Peer: to, Pair: pair},
			Event{At: at + dur, Kind: EvRestoreLink, Node: from, Peer: to, Pair: pair})
		pair++
	}

	// Ring cuts: the nodes arranged as a cycle lose two edges, splitting
	// into two contiguous arcs — every node keeps live neighbors, yet the
	// system is partitioned.
	for i := 0; i < p.RingCuts && len(all) > 2; i++ {
		ci := rng.Intn(len(all))
		cj := ci
		for cj == ci {
			cj = rng.Intn(len(all))
		}
		arcs := ringCutStrings(all, ci, cj)
		for _, a := range arcs {
			sort.Strings(a)
		}
		at := time.Duration(float64(h) * (0.10 + 0.50*rng.Float64()))
		dur := time.Duration(float64(h) * (0.10 + 0.15*rng.Float64()))
		evs = append(evs,
			Event{At: at, Kind: EvPartition, Groups: arcs, Pair: pair},
			Event{At: at + dur, Kind: EvHeal, Pair: pair})
		pair++
	}

	// Rolling crash waves: every crashable node crashes once, in a
	// random order, staggered so a few are down at any moment — the
	// rolling-restart deployment shape. The whole wave is one shrink
	// window.
	for i := 0; i < p.Waves && len(crashable) > 0; i++ {
		start := time.Duration(float64(h) * (0.10 + 0.25*rng.Float64()))
		span := time.Duration(float64(h) * (0.25 + 0.20*rng.Float64()))
		step := span / time.Duration(len(crashable))
		down := 2 * step
		if minDown := time.Duration(float64(h) * 0.02); down < minDown {
			down = minDown
		}
		for _, idx := range rng.Perm(len(crashable)) {
			at := start + time.Duration(idx)*step
			evs = append(evs,
				Event{At: at, Kind: EvCrash, Node: crashable[idx], Pair: pair},
				Event{At: at + down, Kind: EvRestart, Node: crashable[idx], Pair: pair})
		}
		pair++
	}

	// Storage bursts: a window in which every node's injected
	// storage-fault rates are multiplied — disks cluster-wide going bad
	// at once. No-ops unless the run has Options.StorageFaults.
	for i := 0; i < p.StorageBursts; i++ {
		at := time.Duration(float64(h) * (0.10 + 0.50*rng.Float64()))
		dur := time.Duration(float64(h) * (0.10 + 0.10*rng.Float64()))
		factor := 4 + 6*rng.Float64()
		evs = append(evs,
			Event{At: at, Kind: EvStorageBurst, Factor: factor, Pair: pair},
			Event{At: at + dur, Kind: EvStorageCalm, Pair: pair})
		pair++
	}

	// Fork windows: the first kill-eligible node (shard 0's initial
	// primary) is partitioned TOGETHER WITH the never-crashing
	// nodes (the clients and their name service) away from the rest of
	// its group. Client traffic keeps landing on the old primary, whose
	// appends become locally durable but can never reach a quorum, while
	// the majority elects past it — the recipe for a true fork, which the
	// replication layer's fork rule must then truncate away.
	for i := 0; i < p.Forks && len(killable) > 0 && len(all) > 2; i++ {
		iso := killable[0]
		crash := make(map[string]bool, len(crashable))
		for _, n := range crashable {
			crash[n] = true
		}
		primarySide := []string{iso}
		rest := []string{}
		for _, n := range all {
			if n == iso {
				continue
			}
			if crash[n] {
				rest = append(rest, n)
			} else {
				primarySide = append(primarySide, n)
			}
		}
		sort.Strings(primarySide)
		sort.Strings(rest)
		at := time.Duration(float64(h) * (0.15 + 0.15*rng.Float64()))
		dur := time.Duration(float64(h) * (0.20 + 0.10*rng.Float64()))
		evs = append(evs,
			Event{At: at, Kind: EvPartition, Groups: [][]string{primarySide, rest}, Pair: pair},
			Event{At: at + dur, Kind: EvHeal, Pair: pair})
		pair++
	}

	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// ringCutStrings applies netsim.RingCutGroups to node names: the cycle
// in slice order loses its edges after positions i and j, yielding two
// contiguous arcs.
func ringCutStrings(ring []string, i, j int) [][]string {
	addrs := make([]netsim.Addr, len(ring))
	for k, n := range ring {
		addrs[k] = netsim.Addr(n)
	}
	arcs := netsim.RingCutGroups(addrs, i, j)
	out := make([][]string, len(arcs))
	for k, arc := range arcs {
		out[k] = make([]string, len(arc))
		for l, a := range arc {
			out[k][l] = string(a)
		}
	}
	return out
}
