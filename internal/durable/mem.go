package durable

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/vtime"
)

// MemConfig tunes the in-memory device.
type MemConfig struct {
	// SyncDelay is charged (by sleeping on the clock) per Sync call,
	// modeling the latency of a forced write. Zero means instant.
	SyncDelay time.Duration
	// Crash, when set, hears fault.MidCheckpoint during Checkpoint, after
	// the new checkpoint is durably installed but before the records it
	// supersedes are truncated — the crash window every
	// write-new-then-rename implementation has: a hook that panics there
	// leaves the checkpoint on disk and the stale records too. It also
	// hears each storage fault Sync applies, under the fault's name
	// (fault.SyncFail, ShortWrite or CorruptTail), after SyncDelay is
	// charged and before Sync returns. A harness uses that to fail-stop
	// the faulted node immediately — the post-fsyncgate discipline: a
	// storage error must crash the process BEFORE any acknowledgment
	// escapes, or acked-implies-durable is lost. The subject is the log;
	// the hook runs outside the store's lock.
	Crash fault.Hook
	// FaultConfig is the seeded storage-fault model; zero means none.
	FaultConfig
}

// FaultConfig is the storage fault model of Mem. Fates are drawn by
// fault.Dice.Sync, a pure function of the seed and the sync order, so a
// failing run reproduces from its seed.
type FaultConfig struct {
	// Seed initializes the fault dice.
	Seed int64
	// SyncFailRate is the probability in [0,1] that a Sync loses its
	// entire batch: the fsync "succeeded" from the device's point of
	// view never happened. Models a power cut before the platter write.
	SyncFailRate float64
	// ShortWriteRate is the probability that only a strict prefix of
	// the batch reaches the device and the torn remainder is detected
	// and discarded at recovery.
	ShortWriteRate float64
	// CorruptTailRate is the probability that the batch reaches the
	// device but is damaged in place, so recovery's checksum scan
	// rejects the whole batch.
	CorruptTailRate float64
}

// FaultStats counts the faults a Mem has injected.
type FaultStats struct {
	Syncs          int64 // Sync calls observed
	SyncsFailed    int64 // whole batches lost
	ShortWrites    int64 // batches committed only as a prefix
	CorruptedTails int64 // batches committed then damaged
	RecordsDropped int64 // records recovery will never see
}

// Mem is one node's in-memory storage device — the default backend. It
// survives simulated Node.Crash calls but not process death, and
// Persistent is accordingly false: the guardian runtime keeps
// re-creation metadata in process memory for it.
//
// The log that owns the volatile tail also executes its faults: at Sync
// the store's dice draw the batch's fate — commit clean, lose it whole,
// commit a torn prefix, or commit then damage it. Damaged records stay
// on the device (they consume sequence numbers and LastDurableSeq,
// exactly as torn bytes occupy the tail of a real log until truncated)
// but are marked, so Recover presents the post-scan view a WAL recovery
// would: torn and corrupted batches are dropped and reported, never
// replayed. Records that never reach the device give their sequence
// numbers back, as after a crash.
type Mem struct {
	clock vtime.Clock
	cfg   MemConfig

	mu        sync.Mutex // guards the fields below and every log's state
	logs      map[string]*memLog
	syncCount int64
	dice      fault.Dice
	scale     float64 // fault-rate multiplier; 1 outside burst windows
	stats     FaultStats
}

// NewMem creates an empty device using the given clock for
// write-latency accounting.
func NewMem(clock vtime.Clock, cfg MemConfig) *Mem {
	return &Mem{
		clock: clock,
		cfg:   cfg,
		logs:  make(map[string]*memLog),
		dice:  fault.NewDice(cfg.Seed),
		scale: 1,
	}
}

// NewSim returns its argument: the simulated disk is the store. It
// exists only because the benchmark constructs
// durable.NewSim(stable.NewDisk(...)).
func NewSim(disk *Mem) *Mem { return disk }

// SetFaultScale multiplies the configured fault rates by f until the
// next call — the storage-burst primitive: a harness raises the scale
// for a window (a dying disk, a battery-backed cache losing power) and
// drops it back to 1. Exactly one fate value is drawn per non-empty
// Sync regardless of the rates in force, so changing the scale
// mid-run never desynchronizes the seeded fate stream: the same seed
// under the same Sync order draws the same values, burst or no burst.
// Negative f is treated as 0 (faults off).
func (m *Mem) SetFaultScale(f float64) {
	if f < 0 {
		f = 0
	}
	m.mu.Lock()
	m.scale = f
	m.mu.Unlock()
}

// OpenLog implements Store, creating the log if absent; it cannot fail.
// Logs persist across crashes, so a recovery process re-opening its
// guardian's log sees every record that was durable at the crash.
func (m *Mem) OpenLog(name string) (Log, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.logs[name]
	if !ok {
		l = &memLog{m: m, name: name}
		m.logs[name] = l
	}
	return l, nil
}

// LogNames implements Store.
func (m *Mem) LogNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.logs))
	for n := range m.logs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Persistent implements Store: simulated storage dies with the process.
func (m *Mem) Persistent() bool { return false }

// Crash implements Store. The next sequence number falls back to the
// last durable one, exactly as a real log reopened after a crash would
// continue from its durable tail — replication peers depend on the two
// sides agreeing about sequence numbering after a crash.
func (m *Mem) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, l := range m.logs {
		l.volatile = nil
		l.nextSeq = l.lastDurableSeq()
	}
}

// SyncCount implements Store; checkpoints count as forced writes.
func (m *Mem) SyncCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncCount
}

// Close implements Store: the simulated disk holds no OS resources.
func (m *Mem) Close() error { return nil }

// InjectedStats reports the faults injected so far.
func (m *Mem) InjectedStats() FaultStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Report implements Reporter for opened logs.
func (m *Mem) Report(name string) (RecoveryReport, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.logs[name]
	if !ok {
		return RecoveryReport{}, false
	}
	rep := RecoveryReport{TornTail: len(l.torn) > 0, TornBytes: l.tornBytes}
	for _, r := range l.durable {
		if l.live(r) {
			rep.Records++
		}
	}
	return rep, true
}

// charge sleeps out one forced write's latency. Callers have released
// the lock, so a slow device never stalls Appends it is not forcing.
func (m *Mem) charge() {
	if m.cfg.SyncDelay > 0 {
		m.clock.Sleep(m.cfg.SyncDelay)
	}
}

// memLog is one append-only record log with an optional checkpoint. The
// checkpoint write is atomic (a real implementation would write-new-
// then-rename); records with Seq <= the checkpoint's watermark are
// discarded. All state is guarded by the store's lock.
type memLog struct {
	m    *Mem
	name string

	nextSeq      uint64
	durable      []Record
	volatile     []Record
	torn         map[uint64]bool // seqs in durable that recovery's checksum scan would reject
	tornBytes    int             // bytes ever torn, for the recovery report
	checkpoint   []byte
	checkpointAt uint64 // watermark: highest seq folded into the checkpoint
	hasCP        bool
}

// live reports whether recovery replays r: above the checkpoint
// watermark and not damaged.
func (l *memLog) live(r Record) bool {
	return !l.torn[r.Seq] && !(l.hasCP && r.Seq <= l.checkpointAt)
}

func (l *memLog) lastDurableSeq() uint64 {
	if n := len(l.durable); n > 0 {
		return l.durable[n-1].Seq
	}
	return l.checkpointAt
}

// Append implements Log.
func (l *memLog) Append(data []byte) uint64 {
	buf := make([]byte, len(data))
	copy(buf, data)
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	l.nextSeq++
	l.volatile = append(l.volatile, Record{Seq: l.nextSeq, Data: buf})
	return l.nextSeq
}

// Sync implements Log: the fate is decided and the records moved under
// the lock, the write latency charged outside it, the Crash hook called last.
func (l *memLog) Sync() {
	m := l.m
	m.mu.Lock()
	batch := l.volatile
	l.volatile = nil
	m.stats.Syncs++
	rates := fault.SyncRates{Fail: m.cfg.SyncFailRate, Short: m.cfg.ShortWriteRate, Corrupt: m.cfg.CorruptTailRate}
	kind, kept := m.dice.Sync(rates, m.scale, len(batch))
	switch kind {
	case fault.SyncFail:
		m.stats.SyncsFailed++
	case fault.ShortWrite:
		m.stats.ShortWrites++
	case fault.CorruptTail:
		m.stats.CorruptedTails++
	}
	if kind != "" {
		// What reaches the device is torn — for a short write too: the
		// surviving prefix belongs to a batch whose frame checksum can no
		// longer verify, so recovery rejects the batch whole and the Sync
		// batch stays the atomicity unit. What does not reach it gives
		// its sequence numbers back.
		m.stats.RecordsDropped += int64(len(batch))
		l.nextSeq -= uint64(len(batch) - kept)
		batch = batch[:kept]
		if l.torn == nil {
			l.torn = make(map[uint64]bool)
		}
		for _, r := range batch {
			l.torn[r.Seq] = true
			l.tornBytes += len(r.Data)
		}
	}
	l.durable = append(l.durable, batch...)
	m.syncCount++
	m.mu.Unlock()

	m.charge()
	if kind != "" {
		m.cfg.Crash.At(kind, l.name)
	}
}

// AppendSync implements Log.
func (l *memLog) AppendSync(data []byte) uint64 {
	seq := l.Append(data)
	l.Sync()
	return seq
}

// Checkpoint implements Log. Torn records folded under the watermark
// are discarded with the rest and forgotten.
func (l *memLog) Checkpoint(state []byte, upTo uint64) {
	m := l.m
	m.mu.Lock()
	l.checkpoint = append([]byte(nil), state...)
	l.checkpointAt = upTo
	l.hasCP = true
	if m.cfg.Crash != nil {
		m.mu.Unlock()
		m.cfg.Crash(fault.MidCheckpoint, l.name)
		m.mu.Lock()
	}
	kept := l.durable[:0]
	for _, r := range l.durable {
		if r.Seq > upTo {
			kept = append(kept, r)
		} else {
			delete(l.torn, r.Seq)
		}
	}
	l.durable = kept
	m.syncCount++
	m.mu.Unlock()
	m.charge()
}

// Recover implements Log. Records at or below the checkpoint's
// watermark are filtered out: a crash between checkpoint install and log
// truncation leaves such records on disk, and replaying them on top of
// the checkpoint that already contains their effects would double-apply.
func (l *memLog) Recover() (checkpoint []byte, records []Record, err error) {
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	records = make([]Record, 0, len(l.durable))
	for _, r := range l.durable {
		if l.live(r) {
			records = append(records, Record{Seq: r.Seq, Data: append([]byte{}, r.Data...)})
		}
	}
	if !l.hasCP {
		return nil, records, ErrNoCheckpoint
	}
	return append([]byte{}, l.checkpoint...), records, nil
}

// DurableLen implements Log, counting records on the device that
// recovery's scan would accept.
func (l *memLog) DurableLen() int {
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	return len(l.durable) - len(l.torn)
}

// VolatileLen implements Log.
func (l *memLog) VolatileLen() int {
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	return len(l.volatile)
}

// SkipTo implements Log.
func (l *memLog) SkipTo(seq uint64) {
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	if seq > l.nextSeq {
		l.nextSeq = seq
	}
}

// Truncate implements Log. It draws no fate: like Checkpoint, it is a
// forced write the fault model leaves alone.
func (l *memLog) Truncate(from uint64) {
	m := l.m
	m.mu.Lock()
	if l.hasCP && from <= l.checkpointAt || from == 0 {
		m.mu.Unlock()
		panic(fmt.Sprintf("durable: truncate %s from %d at or below checkpoint %d", l.name, from, l.checkpointAt))
	}
	kept := recordsBelow(l.durable, from)
	for _, r := range l.durable[len(kept):] {
		delete(l.torn, r.Seq)
	}
	l.durable = kept
	l.volatile = recordsBelow(l.volatile, from)
	l.nextSeq = min(l.nextSeq, from-1)
	m.syncCount++
	m.mu.Unlock()
	m.charge()
}

// recordsBelow returns the prefix of rs, ascending by Seq, below from.
func recordsBelow(rs []Record, from uint64) []Record {
	return rs[:sort.Search(len(rs), func(i int) bool { return rs[i].Seq >= from })]
}

// LastDurableSeq implements Log; torn records still advance it.
func (l *memLog) LastDurableSeq() uint64 {
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	return l.lastDurableSeq()
}
