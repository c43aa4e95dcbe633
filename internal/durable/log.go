package durable

import (
	"fmt"
	"sort"
	"sync"
)

// device is what differs between the two stores under one log: how a
// Sync batch, a checkpoint and a truncation reach storage. Every method
// but forced is entered and left with l.mu held; a device may release
// the lock in between (the WAL writes outside it, Mem runs its crash
// hook outside it). An error wedges the log: fail-stop.
type device interface {
	// groupCommit selects the Sync loop: true coalesces concurrent
	// callers behind one leader's write and skips an empty Sync; false
	// forces once per call, empty or not.
	groupCommit() bool
	// force writes batch, everything one Sync claimed, and returns the
	// prefix that reached the device plus the point forced announces
	// ("" for none). Numbers past the prefix are given back.
	force(l *log, batch []Record) (kept []Record, point string, err error)
	// checkpoint installs state at watermark upTo (l's checkpoint fields
	// are already set), fires the mid-checkpoint window and removes from
	// the device what the watermark folds in; l.durable is folded after.
	checkpoint(l *log, state []byte, upTo uint64) error
	// cut removes every record at or past from from the device, durably;
	// l.durable still holds them.
	cut(l *log, from uint64) error
	// forced runs after each forced write, with l.mu released.
	forced(l *log, point string)
}

// log is the one implementation of Log: the sequence counter, the
// volatile tail, a mirror of the durable records and the checkpoint,
// kept identically over either device. A record is volatile until a
// Sync forces it; a crash drops the volatile tail and numbering resumes
// after LastDurableSeq — on Mem's Crash, on the WAL's, and on a WAL
// reopen alike.
type log struct {
	name string
	dev  device
	mu   *sync.Mutex // Mem's store-wide lock, or the WAL log's own
	cond *sync.Cond  // on mu: a write in flight finished or the log wedged

	nextSeq    uint64
	volatile   []Record
	spare      []Record        // the last forced batch's array, emptied: the next volatile tail
	durable    []Record        // on the device past the checkpoint, ascending
	block      []byte          // record bytes are copied into block[len:cap]; it never rewinds
	torn       map[uint64]bool // seqs in durable that recovery's checksum scan would reject
	checkpoint []byte
	cpAt       uint64 // watermark: highest seq folded into the checkpoint
	hasCP      bool

	syncing bool  // a device write is in flight with mu released
	wedged  error // a device failure (fail-stop) or errWALClosed
}

func newLog(name string, mu *sync.Mutex, dev device) *log {
	return &log{name: name, dev: dev, mu: mu, cond: sync.NewCond(mu)}
}

// live reports whether recovery replays r: above the checkpoint
// watermark and not damaged.
func (l *log) live(r Record) bool {
	return !l.torn[r.Seq] && !(l.hasCP && r.Seq <= l.cpAt)
}

func (l *log) lastDurableSeq() uint64 {
	if n := len(l.durable); n > 0 {
		return l.durable[n-1].Seq
	}
	return l.cpAt
}

// drop is the crash rule: the volatile tail is lost and numbering
// resumes after the durable tail. Called with mu held. The block keeps
// its place: a batch in flight may still be reading the bytes before it.
// That batch (the WAL forces with mu released, so a crash hook in its
// window lands here) will still become durable, so numbering resumes
// after it instead: below the first record appended since it was
// claimed, or where the counter stands if there is none.
func (l *log) drop() {
	switch {
	case !l.syncing:
		l.nextSeq = l.lastDurableSeq()
	case len(l.volatile) > 0:
		l.nextSeq = l.volatile[0].Seq - 1
	}
	clear(l.volatile)
	l.volatile = l.volatile[:0]
}

// stopped reports whether the store was closed: a straggling process's
// write is provably volatile, so it becomes a no-op rather than a
// spurious crash. A log a device failure wedged panics instead. Called
// with mu held; on a panic mu is released.
func (l *log) stopped() bool {
	if l.wedged != nil && l.wedged != errWALClosed {
		l.mu.Unlock()
		panic(fmt.Errorf("durable: wal log %s: %w", l.name, l.wedged))
	}
	return l.wedged != nil
}

// ready waits out a write in flight and reports whether the log still
// takes writes. Called and left with mu held.
func (l *log) ready() bool {
	for !l.stopped() {
		if !l.syncing {
			return true
		}
		l.cond.Wait()
	}
	return false
}

// wedge records a device failure and panics: fail-stop. Called with mu
// held; does not return.
func (l *log) wedge(err error) {
	l.wedged = err
	l.syncing = false
	l.cond.Broadcast()
	l.mu.Unlock()
	panic(fmt.Errorf("durable: wal log %s: %w", l.name, err))
}

// blockSize is the size of the blocks Append copies records into; a
// record over a quarter of it gets an allocation of its own.
const blockSize = 4 << 10

// Append implements Log.
func (l *log) Append(data []byte) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextSeq++
	l.volatile = append(l.volatile, Record{Seq: l.nextSeq, Data: l.own(data)})
	return l.nextSeq
}

// own copies data into log-owned memory, called with mu held. Records
// share a block but never its spare capacity, and the block only moves
// forward, so bytes a device is writing with mu released are never
// overwritten: a dropped, given-back or truncated record's bytes stay
// dead until the block is collected.
func (l *log) own(data []byte) []byte {
	if len(data) > blockSize/4 {
		return append(make([]byte, 0, len(data)), data...)
	}
	if cap(l.block)-len(l.block) < len(data) {
		l.block = make([]byte, 0, blockSize)
	}
	off := len(l.block)
	l.block = append(l.block, data...)
	return l.block[off:len(l.block):len(l.block)]
}

// Sync implements Log. Without group commit every call claims the whole
// volatile tail and forces it. With it, the first caller in becomes the
// leader and forces the tail; callers arriving meanwhile wait, and
// whichever wakes first with its records still volatile leads the next
// batch, so a follower the leader's write covered returns without
// touching the device.
func (l *log) Sync() {
	l.mu.Lock()
	if !l.dev.groupCommit() {
		if !l.ready() {
			l.mu.Unlock()
			return
		}
		l.flush() // unlocks
		return
	}
	target := l.nextSeq
	for !l.stopped() && l.lastDurableSeq() < target {
		if l.syncing {
			l.cond.Wait()
			continue
		}
		if len(l.volatile) == 0 {
			// This caller's records were dropped by a crash or a
			// truncation between Append and Sync; nothing to force.
			break
		}
		l.flush() // unlocks
		l.mu.Lock()
	}
	l.mu.Unlock()
}

// flush forces the volatile tail, entered with mu held and no write in
// flight; it returns with mu released. Appends meanwhile fill the spare;
// the forced batch becomes the next spare once the device is done with it.
func (l *log) flush() {
	batch := l.volatile
	l.volatile, l.spare = l.spare, nil
	kept, point, err := l.dev.force(l, batch)
	if err != nil {
		l.wedge(err) // panics
	}
	l.nextSeq -= uint64(len(batch) - len(kept))
	l.durable = append(l.durable, kept...)
	clear(batch)
	l.spare = batch[:0]
	l.cond.Broadcast()
	l.mu.Unlock()
	l.dev.forced(l, point)
}

// AppendSync implements Log.
func (l *log) AppendSync(data []byte) uint64 {
	seq := l.Append(data)
	l.Sync()
	return seq
}

// Checkpoint implements Log. The device installs the checkpoint
// atomically before it removes the records the watermark folds in, so a
// crash between the two leaves both, and Recover filters the stale
// records out. Torn records folded under the watermark are forgotten.
func (l *log) Checkpoint(state []byte, upTo uint64) {
	l.mu.Lock()
	if !l.ready() {
		l.mu.Unlock()
		return
	}
	l.checkpoint = append(l.checkpoint[:0], state...)
	l.cpAt, l.hasCP = upTo, true
	if err := l.dev.checkpoint(l, state, upTo); err != nil {
		l.wedge(err) // panics
	}
	kept := l.durable[:0]
	for _, r := range l.durable {
		if r.Seq > upTo {
			kept = append(kept, r)
		} else {
			delete(l.torn, r.Seq)
		}
	}
	clear(l.durable[len(kept):])
	l.durable = kept
	l.mu.Unlock()
	l.dev.forced(l, "")
}

// Recover implements Log. Records at or below the checkpoint's
// watermark are filtered out: a crash between checkpoint install and log
// truncation leaves such records on disk, and replaying them on top of
// the checkpoint that already contains their effects would double-apply.
// The records are copied into one fresh block, the caller's to keep.
func (l *log) Recover() (checkpoint []byte, records []Record, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := 0
	for _, r := range l.durable {
		size += len(r.Data)
	}
	block := make([]byte, 0, size)
	records = make([]Record, 0, len(l.durable))
	for _, r := range l.durable {
		if l.live(r) {
			off := len(block)
			block = append(block, r.Data...)
			records = append(records, Record{Seq: r.Seq, Data: block[off:len(block):len(block)]})
		}
	}
	if !l.hasCP {
		return nil, records, ErrNoCheckpoint
	}
	return append([]byte{}, l.checkpoint...), records, nil
}

// DurableLen implements Log, counting records on the device that
// recovery's scan would accept.
func (l *log) DurableLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.durable) - len(l.torn)
}

// VolatileLen implements Log.
func (l *log) VolatileLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.volatile)
}

// LastDurableSeq implements Log; torn records still advance it.
func (l *log) LastDurableSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastDurableSeq()
}

// SkipTo implements Log: only the counter moves, so a crash before the
// next Sync takes the skip back.
func (l *log) SkipTo(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextSeq = max(l.nextSeq, seq)
}

// Truncate implements Log.
func (l *log) Truncate(from uint64) {
	l.mu.Lock()
	if !l.ready() {
		l.mu.Unlock()
		return
	}
	if l.hasCP && from <= l.cpAt || from == 0 {
		l.mu.Unlock()
		panic(fmt.Sprintf("durable: truncate %s from %d at or below checkpoint %d", l.name, from, l.cpAt))
	}
	if err := l.dev.cut(l, from); err != nil {
		l.wedge(err) // panics
	}
	kept := recordsBelow(l.durable, from)
	for _, r := range l.durable[len(kept):] {
		delete(l.torn, r.Seq)
	}
	clear(l.durable[len(kept):])
	l.durable = kept
	l.volatile = recordsBelow(l.volatile, from)
	l.nextSeq = min(l.nextSeq, from-1)
	l.mu.Unlock()
	l.dev.forced(l, "")
}

// recordsBelow returns the prefix of rs, ascending by Seq, below from.
func recordsBelow(rs []Record, from uint64) []Record {
	return rs[:sort.Search(len(rs), func(i int) bool { return rs[i].Seq >= from })]
}
