package netsim

// Partition shapes. The Kurtosis testing SDK treats named network
// topologies — total splits, isolated islands, one-way degradation — as
// first-class test vocabulary; this file gives the simulator the same
// vocabulary as pure group-computation helpers plus one new primitive,
// the directed (one-way) link cut. Group helpers only COMPUTE the
// partition; apply them with Network.Partition. Directed cuts are their
// own mechanism because group-based partitions are always symmetric.

// CutDirected severs the single directed link from→to: datagrams from
// `from` to `to` are dropped (accounted as Counts.Partition) while the
// reverse direction keeps flowing — the asymmetric-failure shape a
// misconfigured firewall or a saturated uplink produces, in which A can
// hear B but B never hears A. Restore with RestoreDirected; Heal does
// not touch directed cuts (they are not a partition).
func (n *Network) CutDirected(from, to Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[linkKey{from, to}] = struct{}{}
}

// RestoreDirected restores a link severed by CutDirected. Restoring a
// link that was never cut is a no-op. Note that Disconnect(a,b) cuts
// both directions; restoring only one of them leaves the other severed.
func (n *Network) RestoreDirected(from, to Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, linkKey{from, to})
}

// SplitBrainGroups computes the split-brain shape: victim alone on one
// side, everyone else on the other. The canonical replication fault — a
// primary that keeps believing it leads while the majority elects past
// it.
func SplitBrainGroups(all []Addr, victim Addr) [][]Addr {
	groups := [][]Addr{{victim}, {}}
	for _, a := range all {
		if a != victim {
			groups[1] = append(groups[1], a)
		}
	}
	return groups
}

// IslandGroups computes the island shape: the given minority island is
// cut off together, keeping its internal connectivity — a rack losing
// its uplink. Addresses in all but not in island form the mainland.
func IslandGroups(all []Addr, island []Addr) [][]Addr {
	in := make(map[Addr]bool, len(island))
	for _, a := range island {
		in[a] = true
	}
	groups := [][]Addr{append([]Addr{}, island...), {}}
	for _, a := range all {
		if !in[a] {
			groups[1] = append(groups[1], a)
		}
	}
	return groups
}

// RingCutGroups arranges ring as a cycle (ring[0] adjacent to
// ring[len-1]) and cuts the two edges after positions i and j, splitting
// the cycle into two contiguous arcs: ring[i+1..j] and ring[j+1..i]
// (indices mod len). This is the shape a ring-structured overlay or a
// chain-replication deployment degrades into when two links die: every
// node still has live neighbors, yet the system is partitioned. Requires
// i != j (mod len); with len < 2 or i == j the single full arc is
// returned.
func RingCutGroups(ring []Addr, i, j int) [][]Addr {
	n := len(ring)
	if n == 0 {
		return nil
	}
	i, j = ((i%n)+n)%n, ((j%n)+n)%n
	if n < 2 || i == j {
		return [][]Addr{append([]Addr{}, ring...)}
	}
	arc := func(from, to int) []Addr {
		var out []Addr
		for k := (from + 1) % n; ; k = (k + 1) % n {
			out = append(out, ring[k])
			if k == to {
				return out
			}
		}
	}
	return [][]Addr{arc(i, j), arc(j, i)}
}
