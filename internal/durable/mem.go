package durable

import (
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
// Under the shared log it is the device that executes the faults: at
// each Sync the store's dice draw the batch's fate — commit clean, lose it whole,
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
	logs      map[string]*log
	syncCount int64
	dice      fault.Dice
	scale     float64 // fault-rate multiplier; 1 outside burst windows
	stats     FaultStats
	tornBytes map[string]int // per log, bytes ever torn, for the recovery report
}

// NewMem creates an empty device using the given clock for
// write-latency accounting.
func NewMem(clock vtime.Clock, cfg MemConfig) *Mem {
	return &Mem{
		clock:     clock,
		cfg:       cfg,
		logs:      make(map[string]*log),
		dice:      fault.NewDice(cfg.Seed),
		scale:     1,
		tornBytes: make(map[string]int),
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
		l = newLog(name, &m.mu, m)
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
		l.drop()
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
	rep := RecoveryReport{TornTail: len(l.torn) > 0, TornBytes: m.tornBytes[name]}
	for _, r := range l.durable {
		if l.live(r) {
			rep.Records++
		}
	}
	return rep, true
}

// groupCommit implements device: every Sync call is one forced write
// with one fate, so the fate stream and the counters follow the calls.
func (m *Mem) groupCommit() bool { return false }

// force implements device without releasing the store's lock, so the
// fate draw, the records' move and the give-back are atomic with Append.
func (m *Mem) force(l *log, batch []Record) ([]Record, string, error) {
	m.stats.Syncs++
	m.syncCount++
	rates := fault.SyncRates{Fail: m.cfg.SyncFailRate, Short: m.cfg.ShortWriteRate, Corrupt: m.cfg.CorruptTailRate}
	kind, kept := m.dice.Sync(rates, m.scale, len(batch))
	switch kind {
	case "":
		return batch, "", nil
	case fault.SyncFail:
		m.stats.SyncsFailed++
	case fault.ShortWrite:
		m.stats.ShortWrites++
	case fault.CorruptTail:
		m.stats.CorruptedTails++
	}
	// What reaches the device is torn — for a short write too: the
	// surviving prefix belongs to a batch whose frame checksum can no
	// longer verify, so recovery rejects the batch whole and the Sync
	// batch stays the atomicity unit.
	m.stats.RecordsDropped += int64(len(batch))
	batch = batch[:kept]
	if l.torn == nil {
		l.torn = make(map[uint64]bool)
	}
	for _, r := range batch {
		l.torn[r.Seq] = true
		m.tornBytes[l.name] += len(r.Data)
	}
	return batch, kind, nil
}

// checkpoint implements device. The install is atomic (a real device
// would write-new-then-rename); the mid-checkpoint window runs outside
// the store's lock.
func (m *Mem) checkpoint(l *log, _ []byte, _ uint64) error {
	m.syncCount++
	if m.cfg.Crash != nil {
		l.mu.Unlock()
		m.cfg.Crash(fault.MidCheckpoint, l.name)
		l.mu.Lock()
	}
	return nil
}

// cut implements device. Like a checkpoint, a truncation is a forced
// write the fault model leaves alone.
func (m *Mem) cut(*log, uint64) error {
	m.syncCount++
	return nil
}

// forced implements device: the write latency is charged with the lock
// released, so a slow device never stalls Appends it is not forcing,
// and a fault is announced last.
func (m *Mem) forced(l *log, point string) {
	if m.cfg.SyncDelay > 0 {
		m.clock.Sleep(m.cfg.SyncDelay)
	}
	if point != "" {
		m.cfg.Crash.At(point, l.name)
	}
}
