// Package fault is where every seeded fault is decided. The paper's failure
// model is one sentence — messages may be lost, duplicated or reordered,
// and nodes crash (§1.1, §3.4) — and this package rolls it: the simulated
// network (internal/netsim), the fault wrapper around real sockets
// (transport.Wrapper) and the in-memory disk (durable.Mem) each hold a Dice
// and execute what it draws, and a simulated run (internal/dst) derives
// every stream it needs from its master seed with NewRun.
//
// A decision is a pure function of the seed and of the draws before it, so
// the order of the draws inside each method is part of its contract:
// recorded traces (netsim's and durable's testdata/fate_*.txt) and the dst
// seed corpus depend on it.
package fault

import (
	"hash/fnv"
	"math/rand"
	"time"
)

// stream returns a seeded random stream: the package's one rand.New.
func stream(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Dice is a seeded stream of fault decisions. It has no lock: every
// executor draws under its own mutex, in the order it decides.
type Dice struct{ r *rand.Rand }

// NewDice returns the dice seeded with seed.
func NewDice(seed int64) Dice { return Dice{r: stream(seed)} }

// PacketRates is the per-packet fault model of one link; Jitter bounds the
// uniformly random extra delay of each copy.
type PacketRates struct {
	Loss, Dup, Reorder, Corrupt float64
	Jitter                      time.Duration
}

// PacketFate is the fate of one packet: N copies delivered (0 when lost, 2
// when duplicated), described by Copies[:N]; a Corrupt copy has bit Bit
// flipped.
type PacketFate struct {
	N      int
	Copies [2]struct {
		Jitter           time.Duration
		Reorder, Corrupt bool
	}
	Bit int
}

// Packet draws the fate of a packet of size bytes: loss; duplication only
// if not lost; then per copy its jitter (only when r.Jitter > 0), reorder
// and corruption; then, once per corrupt copy, the bit to flip — the last
// draw wins for both copies.
func (d Dice) Packet(r PacketRates, size int) PacketFate {
	var f PacketFate
	if d.r.Float64() < r.Loss {
		return f
	}
	f.N = 1
	if d.r.Float64() < r.Dup {
		f.N = 2
	}
	for i := 0; i < f.N; i++ {
		c := &f.Copies[i]
		if r.Jitter > 0 {
			c.Jitter = time.Duration(d.r.Int63n(int64(r.Jitter) + 1))
		}
		c.Reorder = d.r.Float64() < r.Reorder
		c.Corrupt = d.r.Float64() < r.Corrupt
	}
	for i := 0; i < f.N; i++ {
		if f.Copies[i].Corrupt {
			f.Bit = d.r.Intn(size * 8)
		}
	}
	return f
}

// SyncRates is the fault model of a forced write: lose the batch whole,
// keep only a strict prefix of it, or keep it damaged in place.
type SyncRates struct{ Fail, Short, Corrupt float64 }

// The faults Sync draws.
const (
	SyncFail    = "sync_fail"
	ShortWrite  = "short_write"
	CorruptTail = "corrupt_tail"
)

// Sync draws the fate of forcing batch records with every rate multiplied
// by scale: the fault ("" for none) and how many records reach the device.
// An empty batch draws nothing; any other draws one value whatever the
// rates, plus a short write's cut, so a changed scale never shifts the
// stream.
func (d Dice) Sync(r SyncRates, scale float64, batch int) (fault string, kept int) {
	if batch == 0 {
		return "", 0
	}
	fail, short := r.Fail*scale, r.Short*scale
	switch f := d.r.Float64(); {
	case f < fail:
		return SyncFail, 0
	case f < fail+short:
		return ShortWrite, d.r.Intn(batch)
	case f < fail+short+r.Corrupt*scale:
		return CorruptTail, batch
	}
	return "", batch
}

// Hook hears a component reach a named crash window: point is one of the
// window constants below (or, from durable.Mem, the name of a storage
// fault it just applied) and subject is what the window is about — a log,
// a handoff id or a transaction id. A hook that exits the process, panics
// or snapshots storage models a crash at exactly that instant; DESIGN §11
// tables what each window leaves behind. A hook must not call back into
// the component that fired it.
type Hook func(point, subject string)

// At calls h with point and subject; a nil h does nothing.
func (h Hook) At(point, subject string) {
	if h != nil {
		h(point, subject)
	}
}

// The crash windows, spelled as cmd/node's -crash flag spells them.
const (
	// durable.WAL, subject the log.
	BeforeSync    = "before-sync"    // a Sync batch is claimed, nothing of it on disk
	AfterSync     = "after-sync"     // the batch is durable, Sync has not returned
	MidCheckpoint = "mid-checkpoint" // the checkpoint is installed, older records still on disk (durable.Mem too)
	MidTruncate   = "mid-truncate"   // Truncate removed later segments, the cut segment not yet renamed
	// replica, on the leader, subject the log.
	BeforeShip  = "before-ship"  // the batch is locally durable, not yet handed to the network
	AfterShip   = "after-ship"   // the batch is sent, no ack counted
	AfterQuorum = "after-quorum" // a quorum holds the batch, Sync has not returned
	// bank shard branch, subject the handoff id (AfterPrepare: the txid).
	BeforeCut     = "before-cut"     // the source is about to log bank/moved_out
	AfterCut      = "after-cut"      // the cut is durable, cut_done not yet sent
	BeforeInstall = "before-install" // the destination is about to log the received range
	AfterInstall  = "after-install"  // the install is durable, installed not yet sent
	AfterPrepare  = "after-prepare"  // an escrow hold is durable, the yes vote not yet sent
)

// Stream draws the stream faults of one send: reset its connection, stall
// its writes.
func (d Dice) Stream(reset, stall float64) (bool, bool) {
	return d.r.Float64() < reset, d.r.Float64() < stall
}

// Run is the streams of one simulated run, all derived from its master
// seed: the master stream's first three draws seed the network's dice, the
// fault schedule and the workload; client i's stream is the workload seed
// plus 7919·i; a node's storage dice are the master seed xor the FNV-1a
// hash of its name — derived, not drawn, so storage faults move no other
// stream.
type Run struct{ seed, net, schedule, work int64 }

// NewRun derives the streams of the run with master seed seed.
func NewRun(seed int64) Run {
	m := stream(seed)
	return Run{seed: seed, net: m.Int63(), schedule: m.Int63(), work: m.Int63()}
}

// Net is the seed of the network's dice.
func (r Run) Net() int64 { return r.net }

// Schedule returns the fault schedule's stream.
func (r Run) Schedule() *rand.Rand { return stream(r.schedule) }

// Client returns client session i's stream.
func (r Run) Client(i int) *rand.Rand { return stream(r.work + 7919*int64(i)) }

// Storage is the seed of node's storage dice.
func (r Run) Storage(node string) int64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	return r.seed ^ int64(h.Sum64())
}
