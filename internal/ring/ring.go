// Package ring implements consistent hashing with virtual nodes: the
// scale-out layer that shards millions of accounts across many branch
// guardians. A Ring is a versioned (epoch-stamped) placement function from
// string keys to members; the nameserver serves the current ring (package
// nameserv's ring_* messages), branch guardians enforce it (package bank's
// shard mode), and the Router (router.go) resolves account → shard
// guardian through it.
//
// Placement is deterministic and stdlib-only: every member contributes
// VNodes points to the circle at fnv64a(name + "#" + i), and a key is
// owned by the member whose point follows fnv64a(key) clockwise. The same
// members and vnode count always produce the same ring, so any two
// parties holding the same epoch agree on every key's owner without
// talking to each other.
package ring

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/wire"
	"repro/internal/xrep"
)

// Member is one shard guardian on the ring: its stable name plus the two
// ports a client or peer needs — the at-most-once port ops travel on and
// the native port the migration and 2PC protocols use.
type Member struct {
	Name   string
	Amo    xrep.PortName
	Native xrep.PortName
}

// DefaultVNodes is the virtual-node count used when a ring is built with
// vnodes <= 0. 64 points per member keeps the expected load imbalance
// under ~15% for small clusters while a lookup stays one binary search;
// see DESIGN.md §14 for the trade-off.
const DefaultVNodes = 64

// MaxVNodes and MaxMembers bound what FromValue accepts: four times the
// default spread, and more shards than one nameserver blob has carried.
const (
	MaxVNodes  = 4 * DefaultVNodes
	MaxMembers = 1024
)

// Ring is one epoch of the placement function. Members are kept sorted by
// name; the point table is derived, never serialized.
type Ring struct {
	Name    string
	Epoch   int64
	VNodes  int
	Members []Member

	points []point
}

// point is one virtual node: a position on the hash circle owned by a
// member (indexed into Members).
type point struct {
	pos    uint64
	member int
}

// Hash places a key on the circle: fnv64a with a splitmix64 finalizer.
// Bare FNV avalanches poorly on short, similar keys ("s1#0", "s1#1", …)
// and clumps the virtual nodes; the finalizer spreads them. Exported so
// invariant checkers can reason about placement without a Ring in hand.
func Hash(key string) uint64 {
	z := uint64(14695981039346656037) // fnv64a's offset basis, then its rounds
	for i := 0; i < len(key); i++ {
		z = (z ^ uint64(key[i])) * 1099511628211
	}
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New builds epoch-1 of a named ring. vnodes <= 0 means DefaultVNodes.
func New(name string, vnodes int, members ...Member) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{Name: name, Epoch: 1, VNodes: vnodes, Members: append([]Member(nil), members...)}
	r.normalize()
	return r
}

// normalize sorts members and rebuilds the point table.
func (r *Ring) normalize() {
	sort.Slice(r.Members, func(i, j int) bool { return r.Members[i].Name < r.Members[j].Name })
	r.points = r.points[:0]
	for mi, m := range r.Members {
		for v := 0; v < r.VNodes; v++ {
			r.points = append(r.points, point{pos: Hash(m.Name + "#" + strconv.Itoa(v)), member: mi})
		}
	}
	// Ties (hash collisions between vnodes) break by member order so the
	// table is a pure function of the member set.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		return r.points[i].member < r.points[j].member
	})
}

// Member returns the member with the given name.
func (r *Ring) Member(name string) (Member, bool) {
	for _, m := range r.Members {
		if m.Name == name {
			return m, true
		}
	}
	return Member{}, false
}

// Owner returns the member owning key: the first virtual node at or after
// the key's position, wrapping at the top of the circle. ok is false only
// for an empty ring.
func (r *Ring) Owner(key string) (Member, bool) {
	if len(r.points) == 0 {
		return Member{}, false
	}
	pos := Hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	return r.Members[r.points[i%len(r.points)].member], true
}

// Owners returns up to n distinct members for key, in successor order:
// the owner first, then the members whose virtual nodes follow — the
// replica set for a replication factor of n. Configurable replication of
// key ranges rides this; the bank's shard mode serves with n = 1 and
// delegates intra-shard durability to internal/replica.
func (r *Ring) Owners(key string, n int) []Member {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.Members) {
		n = len(r.Members)
	}
	pos := Hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	out := make([]Member, 0, n)
	seen := make(map[int]bool, n)
	for k := 0; k < len(r.points) && len(out) < n; k++ {
		p := r.points[(i+k)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.Members[p.member])
		}
	}
	return out
}

// WithJoin returns the next epoch: the same ring with m added.
func (r *Ring) WithJoin(m Member) (*Ring, error) {
	if _, dup := r.Member(m.Name); dup {
		return nil, fmt.Errorf("ring: member %q already on ring %q", m.Name, r.Name)
	}
	next := &Ring{Name: r.Name, Epoch: r.Epoch + 1, VNodes: r.VNodes,
		Members: append(append([]Member(nil), r.Members...), m)}
	next.normalize()
	return next, nil
}

// WithLeave returns the next epoch: the same ring with the named member
// removed.
func (r *Ring) WithLeave(name string) (*Ring, error) {
	if _, ok := r.Member(name); !ok {
		return nil, fmt.Errorf("ring: member %q not on ring %q", name, r.Name)
	}
	if len(r.Members) == 1 {
		return nil, fmt.Errorf("ring: cannot remove the last member of ring %q", r.Name)
	}
	next := &Ring{Name: r.Name, Epoch: r.Epoch + 1, VNodes: r.VNodes}
	for _, m := range r.Members {
		if m.Name != name {
			next.Members = append(next.Members, m)
		}
	}
	next.normalize()
	return next, nil
}

// Move is one leg of a rebalance plan: every key range that member From
// owns under the old epoch and member To owns under the new one.
type Move struct {
	From, To string
}

// Plan computes the member-to-member handoffs a flip from old to next
// requires, in deterministic order. Consistent hashing keeps the plan
// minimal: a join only pulls ranges into the joiner, a leave only pushes
// the leaver's ranges out — unrelated ranges never appear.
func Plan(old, next *Ring) []Move {
	type pair struct{ from, to string }
	seen := make(map[pair]bool)
	var moves []Move
	// Walk the arc boundaries of both rings: between two adjacent
	// boundary positions the owner is constant in both epochs, so
	// sampling each arc once covers every key.
	var cuts []uint64
	for _, p := range old.points {
		cuts = append(cuts, p.pos)
	}
	for _, p := range next.points {
		cuts = append(cuts, p.pos)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for _, pos := range cuts {
		a, okA := old.ownerAt(pos)
		b, okB := next.ownerAt(pos)
		if !okA || !okB || a.Name == b.Name {
			continue
		}
		p := pair{a.Name, b.Name}
		if !seen[p] {
			seen[p] = true
			moves = append(moves, Move{From: a.Name, To: b.Name})
		}
	}
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].From != moves[j].From {
			return moves[i].From < moves[j].From
		}
		return moves[i].To < moves[j].To
	})
	return moves
}

// ownerAt is Owner for a raw circle position.
func (r *Ring) ownerAt(pos uint64) (Member, bool) {
	if len(r.points) == 0 {
		return Member{}, false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	return r.Members[r.points[i%len(r.points)].member], true
}

// ringRec names the external representation of a Ring.
const ringRec = "ring/ring"

// Value renders the ring as an xrep value, the transmissible form rings
// take inside nameserver blobs, handoff messages, and durable records.
func (r *Ring) Value() xrep.Value {
	members := make(xrep.Seq, 0, len(r.Members))
	for _, m := range r.Members {
		members = append(members, xrep.Seq{xrep.Str(m.Name), m.Amo, m.Native})
	}
	return xrep.Rec{Name: ringRec, Fields: xrep.Seq{
		xrep.Str(r.Name), xrep.Int(r.Epoch), xrep.Int(r.VNodes), members,
	}}
}

// FromValue is Value's inverse. The value may come from another guardian
// (ring_update, handoff_pull, migrate_cut, the nameserver's blob), and
// the point table it implies is len(Members) × VNodes entries, so both are
// bounded and a member may appear once.
func FromValue(v xrep.Value) (*Ring, error) {
	f := xrep.ReadRec(v, ringRec, 4)
	r := &Ring{Name: f.Str(), Epoch: f.Int()}
	vnodes, members := f.Int(), f.Seq()
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("ring: %w", err)
	}
	if vnodes < 1 || vnodes > MaxVNodes || len(members) > MaxMembers {
		return nil, fmt.Errorf("ring: %d members × %d vnodes is outside 0..%d × 1..%d",
			len(members), vnodes, MaxMembers, MaxVNodes)
	}
	r.VNodes = int(vnodes)
	for _, mv := range members {
		e := xrep.ReadSeq(mv, 3)
		m := Member{Name: e.Str(), Amo: e.Port(), Native: e.Port()}
		if err := e.Err(); err != nil {
			return nil, fmt.Errorf("ring: member entry: %w", err)
		}
		if _, dup := r.Member(m.Name); dup {
			return nil, fmt.Errorf("ring: member %q appears twice", m.Name)
		}
		r.Members = append(r.Members, m)
	}
	r.normalize()
	return r, nil
}

// Marshal renders the ring as bytes (the opaque blob the nameserver
// versions without parsing).
func (r *Ring) Marshal() []byte {
	b, err := wire.MarshalValue(r.Value())
	if err != nil {
		panic(fmt.Errorf("ring: marshal: %v", err))
	}
	return b
}

// Unmarshal is Marshal's inverse.
func Unmarshal(data []byte) (*Ring, error) {
	v, err := wire.UnmarshalValue(data)
	if err != nil {
		return nil, fmt.Errorf("ring: unmarshal: %w", err)
	}
	return FromValue(v)
}
