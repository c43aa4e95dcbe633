// Package durable is the storage seam: the interface between the
// guardian runtime and the per-node storage that "will survive a node
// crash" (§2.2). The paper requires that each guardian provide
// permanence of effect for the resource it guards by logging recovery
// data in such storage and interpreting it from a recovery process
// started after the crash. The seam mirrors the transport seam —
// transport.Transport made the network pluggable, durable.Store does the
// same for storage. One log implementation keeps the records, the
// volatile tail and the checkpoint over either of two devices:
//
//   - Mem is the in-memory device — the default, so every in-process
//     test keeps its instant, deterministic disk. It also owns the seeded
//     storage-fault model (failed syncs, short writes, corrupted tails),
//     so recovery paths can be exercised in dst and unit tests;
//   - WAL is a real on-disk write-ahead log (segmented, checksummed,
//     fsync-backed) that makes permanence of effect survive kill -9 of
//     the hosting OS process.
//
// A Store belongs to one node and survives Node crashes (but not node
// destruction). Each guardian opens named Logs on its node's store. An
// appended record is volatile until Sync is called: a crash between
// Append and Sync loses the record, exactly like a real buffered disk
// write. This distinction is load-bearing — experiment E7 shows that a
// guardian which acknowledges an atomic operation before syncing its log
// record violates permanence, while the paper's log-then-ack protocol
// survives every crash point.
package durable

import (
	"errors"
	"sync"
)

// Record is one durable log entry.
type Record struct {
	Seq  uint64
	Data []byte
}

// ErrNoCheckpoint is returned by Recover when the log has no checkpoint.
var ErrNoCheckpoint = errors.New("durable: no checkpoint")

// ErrCorrupt reports storage damage recovery must not silently repair: a
// checksum failure in the interior of a log (not the final, possibly
// torn batch) or an unreadable checkpoint. A torn tail — the suffix a
// crash mid-write legitimately leaves behind — is NOT corruption; it is
// truncated away and reported via RecoveryReport.
var ErrCorrupt = errors.New("durable: log corrupt")

// Log is a guardian's append-only record log with an optional
// checkpoint. The contract is the paper's §2.2 protocol, with one
// sharpened clause learned from E7: a record is volatile until Sync
// returns, and everything forced by ONE Sync call becomes durable
// atomically — a crash never exposes a strict prefix of a Sync batch.
// That atomicity is what lets a guardian commit an operation record and
// its at-most-once dedup record in one forced write with no crash
// window between them.
//
// Implementations are fail-stop: an I/O error on the durability path
// panics rather than returning, because a guardian that keeps running
// after its stable storage failed would acknowledge effects it cannot
// make permanent.
type Log interface {
	// Append adds a record to the volatile tail and returns its sequence
	// number. The record becomes durable only on the next Sync. The log
	// copies data before returning, so a caller may encode every record
	// into one reused buffer.
	Append(data []byte) uint64
	// Sync forces every appended record to durable storage.
	Sync()
	// AppendSync appends and immediately syncs — log-then-ack in one call.
	AppendSync(data []byte) uint64
	// Checkpoint atomically replaces the log's checkpoint with state,
	// folding in every durable record with Seq <= upTo. The log is done
	// with state when Checkpoint returns, so a caller may write every
	// checkpoint into one reused buffer.
	Checkpoint(state []byte, upTo uint64)
	// Recover returns the checkpoint (or ErrNoCheckpoint) and every
	// durable record after it, in sequence order. Implementations reject
	// interior corruption with ErrCorrupt rather than replaying it.
	Recover() (checkpoint []byte, records []Record, err error)
	// DurableLen reports durable records not yet folded into the checkpoint.
	DurableLen() int
	// VolatileLen reports appended-but-unsynced records.
	VolatileLen() int
	// LastDurableSeq returns the highest durable sequence number,
	// counting the checkpoint watermark.
	LastDurableSeq() uint64
	// SkipTo raises the sequence counter (never lowers it) so the next
	// Append returns seq+1, without writing anything. A replica
	// installing a shipped checkpoint at watermark W calls SkipTo(W) so
	// records applied after it continue the primary's numbering.
	SkipTo(seq uint64)
	// Truncate drops every record with Seq >= from, durable and volatile
	// alike, and is durable when it returns; the next Append returns from
	// (a from past the end drops nothing). from must lie above the
	// checkpoint watermark: a folded record cannot be taken back. A
	// replica follower truncates the suffix that conflicts with its leader.
	Truncate(from uint64)
}

// Store is one node's storage device: a namespace of Logs that survives
// whatever "crash" means for the backend — a simulated Node.Crash for
// Mem, SIGKILL of the OS process for WAL.
type Store interface {
	// OpenLog returns the named log, creating it if absent. Opening an
	// existing log performs recovery scanning on backends that need it,
	// so corruption surfaces here rather than mid-operation.
	OpenLog(name string) (Log, error)
	// LogNames returns the names of all logs on the store, sorted.
	LogNames() []string
	// Persistent reports whether the store outlives the OS process. The
	// guardian runtime keeps its catalog of recoverable guardians on
	// persistent stores so a restarted process can re-create them.
	Persistent() bool
	// Crash simulates the node failing: volatile tails are lost, durable
	// records and checkpoints survive. On persistent backends this only
	// drops buffered state; real process death needs no help.
	Crash()
	// SyncCount reports how many forced writes the store has performed —
	// the cost metric group commit exists to reduce.
	SyncCount() int64
	// Close releases OS resources (file handles). The simulated store
	// has none; worlds on a WAL must Close.
	Close() error
}

// RecoveryReport describes what open-time scanning of one log found.
// Reporter is implemented by both devices; Mem has something to report
// only after an injected fault.
type RecoveryReport struct {
	// Records is the number of live records recovered (after the
	// checkpoint watermark).
	Records int
	// Skipped counts stale records at or below the checkpoint watermark
	// left behind by a crash between checkpoint install and truncation.
	Skipped int
	// TornTail is true when the final batch was incomplete or failed its
	// checksum — the legitimate residue of a crash mid-write. The torn
	// bytes were truncated, not replayed.
	TornTail bool
	// TornBytes is the number of bytes the torn tail occupied.
	TornBytes int
}

// Reporter exposes per-log recovery reports.
type Reporter interface {
	// Report returns the recovery report for the named log and whether
	// the log has been opened/scanned.
	Report(name string) (RecoveryReport, bool)
}

// Null returns an inert Log that accepts and discards everything. It is
// what a DEAD guardian's straggling processes write to when their store
// is already closed: their appends were volatile the moment the guardian
// was killed, so discarding them is exactly the simulated-crash
// semantics. It must never back a live guardian — that would be the
// silent-loss sin the fail-stop discipline exists to prevent.
func Null() Log { return &nullLog{} }

type nullLog struct {
	mu   sync.Mutex
	next uint64
}

func (l *nullLog) Append(data []byte) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}
func (l *nullLog) Sync()                         {}
func (l *nullLog) AppendSync(data []byte) uint64 { return l.Append(data) }
func (l *nullLog) Checkpoint(_ []byte, _ uint64) {}
func (l *nullLog) Recover() ([]byte, []Record, error) {
	return nil, nil, ErrNoCheckpoint
}
func (l *nullLog) DurableLen() int        { return 0 }
func (l *nullLog) VolatileLen() int       { return 0 }
func (l *nullLog) LastDurableSeq() uint64 { return 0 }
func (l *nullLog) SkipTo(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.next {
		l.next = seq
	}
}
func (l *nullLog) Truncate(from uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next = min(l.next, from-1)
}

// SkipTo calls log.SkipTo(seq). It predates SkipTo joining the Log
// interface and stays because the benchmark calls it.
func SkipTo(log Log, seq uint64) bool {
	log.SkipTo(seq)
	return true
}
