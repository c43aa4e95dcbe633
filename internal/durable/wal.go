package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// WAL is the real backend: one directory per node holding one
// subdirectory per log, each a sequence of segment files of
// CRC-checksummed batch frames plus an atomically-replaced checkpoint
// file. It provides exactly the semantics the simulated disk promises —
// Append is volatile, Sync is the durability point, everything one Sync
// forces becomes durable atomically — against storage that survives
// kill -9 of the hosting process.
//
// On-disk format, little-endian throughout:
//
//	segment file  wal-<first seq, %016x>.seg:
//	    batch frame*
//	batch frame:  u32 payload length | u32 crc32c(payload) | payload
//	payload:      ( u32 data length | u64 seq | data )*
//	checkpoint:   u64 watermark | u32 crc32c(state) | state
//
// The batch — all records forced by one Sync — is the unit of both
// checksumming and atomicity: recovery either replays a batch whole or
// (when the final frame is short or fails its CRC — a torn write)
// truncates it away whole. A Sync that covered an operation record and
// its at-most-once dedup record therefore never resurrects one without
// the other. A bad frame anywhere but the tail of the final segment is
// not a legal crash residue and fails recovery with ErrCorrupt instead
// of being silently skipped.
//
// Sync uses group commit: concurrent callers coalesce behind one
// leader's fsync, so the fsync rate is decoupled from the operation
// rate (experiment E13 measures the difference against the naive
// one-fsync-per-op discipline, selectable with NoGroupCommit).
//
// The WAL is fail-stop: any I/O error on the durability path wedges the
// log and panics, because acknowledging effects that can no longer be
// made permanent is the one unforgivable storage sin (§2.2).
type WAL struct {
	dir string
	cfg WALConfig

	syncs atomic.Int64

	mu     sync.Mutex
	logs   map[string]*walLog
	closed bool
}

// WALConfig tunes a WAL.
type WALConfig struct {
	// SegmentSize is the size at which the active segment is sealed and
	// a new one started. Zero means 1 MiB.
	SegmentSize int
	// NoGroupCommit disables commit coalescing: every Sync call performs
	// its own fsync, serialized — the naive log-then-ack discipline E13
	// uses as its control arm.
	NoGroupCommit bool
	// Hooks, when set, are called at crash-window points so tests can
	// kill the process (or snapshot the directory) at exactly the
	// instants a real crash is most interesting. Hooks must not call
	// back into the log.
	Hooks WALHooks
}

// WALHooks are the crash-point injection hooks.
type WALHooks struct {
	// BeforeSync fires after a Sync batch is claimed but before any of
	// it reaches the disk: a crash here loses the whole batch.
	BeforeSync func(log string)
	// AfterSync fires once the batch is durable but before Sync
	// returns: a crash here leaves a durable-but-unacked tail.
	AfterSync func(log string)
	// MidCheckpoint fires between checkpoint install (the atomic rename)
	// and log compaction: a crash here leaves records at or below the
	// new watermark still on disk.
	MidCheckpoint func(log string)
	// MidTruncate fires once Truncate has removed the wholly-later
	// segments and forced the cut segment's prefix to its temporary file,
	// before the rename replaces the segment.
	MidTruncate func(log string)
}

const (
	defaultSegmentSize = 1 << 20
	maxFramePayload    = 1 << 30
	batchHeaderSize    = 8
	recordHeaderSize   = 12
	checkpointName     = "checkpoint"
	checkpointTmpName  = "checkpoint.tmp"
	truncateTmpName    = "truncate.tmp"
	segPrefix          = "wal-"
	segSuffix          = ".seg"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var errWALClosed = errors.New("durable: wal closed")

// OpenWAL opens (creating if needed) a WAL rooted at dir.
func OpenWAL(dir string, cfg WALConfig) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open wal: %w", err)
	}
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = defaultSegmentSize
	}
	return &WAL{dir: dir, cfg: cfg, logs: make(map[string]*walLog)}, nil
}

// Dir returns the WAL's root directory.
func (w *WAL) Dir() string { return w.dir }

// OpenLog implements Store. Opening an existing log scans and verifies
// every segment: a torn tail is truncated and reported, interior
// damage fails with ErrCorrupt.
func (w *WAL) OpenLog(name string) (Log, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, errWALClosed
	}
	if l, ok := w.logs[name]; ok {
		return l, nil
	}
	l, err := openWalLog(w, name)
	if err != nil {
		return nil, err
	}
	w.logs[name] = l
	return l, nil
}

// LogNames implements Store, listing every log directory on disk —
// including logs written by a previous incarnation of the process and
// not yet opened by this one.
func (w *WAL) LogNames() []string {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, unescapeLogName(e.Name()))
		}
	}
	sort.Strings(names)
	return names
}

// Persistent implements Store: this is the backend that outlives the
// process, so the guardian runtime keeps its catalog here.
func (w *WAL) Persistent() bool { return true }

// Crash implements Store for in-process simulated crashes (dst runs a
// WAL-backed world in one process): volatile tails are dropped, exactly
// as process death would drop them.
func (w *WAL) Crash() {
	w.mu.Lock()
	logs := make([]*walLog, 0, len(w.logs))
	for _, l := range w.logs {
		logs = append(logs, l)
	}
	w.mu.Unlock()
	for _, l := range logs {
		l.mu.Lock()
		l.volatile = nil
		l.nextSeq = l.durableSeq
		l.mu.Unlock()
	}
}

// SyncCount implements Store, counting actual fsync system calls — the
// quantity group commit exists to amortize.
func (w *WAL) SyncCount() int64 { return w.syncs.Load() }

// Close implements Store: file handles are released and the logs are
// wedged, so a straggling Sync fails stop instead of writing to a
// store the owner has relinquished.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	logs := make([]*walLog, 0, len(w.logs))
	for _, l := range w.logs {
		logs = append(logs, l)
	}
	w.mu.Unlock()
	var first error
	for _, l := range logs {
		l.mu.Lock()
		for l.syncing {
			l.cond.Wait()
		}
		if l.wedged == nil {
			l.wedged = errWALClosed
		}
		if l.active != nil {
			if err := l.active.Close(); err != nil && first == nil {
				first = err
			}
			l.active = nil
		}
		l.cond.Broadcast()
		l.mu.Unlock()
	}
	return first
}

// Report implements Reporter.
func (w *WAL) Report(name string) (RecoveryReport, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	l, ok := w.logs[name]
	if !ok {
		return RecoveryReport{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.report, true
}

// segment is one on-disk segment file.
type segment struct {
	path     string
	firstSeq uint64
	lastSeq  uint64
}

// walLog is one log within a WAL.
type walLog struct {
	wal  *WAL
	name string
	dir  string

	mu     sync.Mutex
	cond   *sync.Cond
	wedged error

	nextSeq    uint64
	durableSeq uint64
	volatile   []Record
	durable    []Record // mirror of on-disk records past the checkpoint
	checkpoint []byte
	cpAt       uint64
	hasCP      bool

	syncing    bool
	segs       []*segment
	active     *os.File
	activeSize int64

	report RecoveryReport
}

// failIfWedged panics if a previous I/O error wedged the log. A log
// wedged by Close is different: the owner shut the store down (process
// exit), so a straggling process's write is provably volatile and the
// operation becomes a no-op — reported by the return value — rather than
// a spurious crash. Called with mu held; on a panic mu is released.
func (l *walLog) failIfWedged() (closed bool) {
	if l.wedged == errWALClosed {
		return true
	}
	if l.wedged != nil {
		err := l.wedged
		l.mu.Unlock()
		panic(fmt.Errorf("durable: wal log %s: %w", l.name, err))
	}
	return false
}

// wedge records a durability-path failure and panics: fail-stop.
// Called with mu held; does not return.
func (l *walLog) wedge(err error) {
	l.wedged = err
	l.syncing = false
	l.cond.Broadcast()
	l.mu.Unlock()
	panic(fmt.Errorf("durable: wal log %s: %w", l.name, err))
}

func (l *walLog) fire(h func(string)) {
	if h != nil {
		h(l.name)
	}
}

// Append implements Log.
func (l *walLog) Append(data []byte) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextSeq++
	buf := make([]byte, len(data))
	copy(buf, data)
	l.volatile = append(l.volatile, Record{Seq: l.nextSeq, Data: buf})
	return l.nextSeq
}

// Sync implements Log with group commit: the first caller in becomes
// the leader, claims the entire volatile tail and writes it as one
// checksummed batch with one fsync; callers arriving during that write
// wait, and whichever wakes first with records still unflushed leads
// the next batch. A follower whose records were covered by the
// leader's fsync returns without touching the disk at all.
func (l *walLog) Sync() {
	l.mu.Lock()
	if l.failIfWedged() {
		l.mu.Unlock()
		return
	}
	if l.wal.cfg.NoGroupCommit {
		// Naive log-then-ack: serialized, one fsync per caller, no
		// sharing — the E13 control arm.
		for l.syncing {
			l.cond.Wait()
			if l.failIfWedged() {
				l.mu.Unlock()
				return
			}
		}
		batch := l.volatile
		l.volatile = nil
		l.flushAsLeader(batch) // unlocks
		return
	}
	target := l.nextSeq
	for l.durableSeq < target {
		if l.syncing {
			l.cond.Wait()
			if l.failIfWedged() {
				break
			}
			continue
		}
		if len(l.volatile) == 0 {
			// The records this caller appended were discarded by a
			// simulated crash between Append and Sync; nothing to force.
			break
		}
		batch := l.volatile
		l.volatile = nil
		l.flushAsLeader(batch) // unlocks
		l.mu.Lock()
		if l.failIfWedged() {
			break
		}
	}
	l.mu.Unlock()
}

// flushAsLeader writes one batch and fsyncs, entered with mu held and
// syncing false; it leaves with mu released. Exclusive access to the
// segment files is guaranteed by the syncing flag, not the mutex, so
// appenders are never blocked behind the disk.
func (l *walLog) flushAsLeader(batch []Record) {
	l.syncing = true
	l.mu.Unlock()
	l.fire(l.wal.cfg.Hooks.BeforeSync)
	err := l.writeAndSync(batch)
	l.mu.Lock()
	l.syncing = false
	if err != nil {
		l.wedge(err) // panics
	}
	if n := len(batch); n > 0 {
		l.durable = append(l.durable, batch...)
		l.durableSeq = batch[n-1].Seq
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	l.fire(l.wal.cfg.Hooks.AfterSync)
}

// writeAndSync appends batch as one frame to the active segment
// (rotating first if it is full) and forces it. Runs without mu but
// under the syncing flag's exclusion.
func (l *walLog) writeAndSync(batch []Record) error {
	if len(batch) > 0 {
		if l.active != nil && l.activeSize >= int64(l.wal.cfg.SegmentSize) {
			if err := l.sealActive(); err != nil {
				return err
			}
		}
		if l.active == nil {
			if err := l.newSegment(batch[0].Seq); err != nil {
				return err
			}
		}
		buf := encodeBatch(batch)
		if _, err := l.active.Write(buf); err != nil {
			return err
		}
		l.activeSize += int64(len(buf))
		l.segs[len(l.segs)-1].lastSeq = batch[len(batch)-1].Seq
	}
	if l.active == nil {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return err
	}
	l.wal.syncs.Add(1)
	return nil
}

// sealActive closes the active segment (its data is already synced
// batch by batch).
func (l *walLog) sealActive() error {
	err := l.active.Close()
	l.active = nil
	l.activeSize = 0
	return err
}

// newSegment creates the next segment file and makes its directory
// entry durable before any record is acknowledged out of it.
func (l *walLog) newSegment(firstSeq uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := fsyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.active = f
	l.activeSize = 0
	l.segs = append(l.segs, &segment{path: path, firstSeq: firstSeq, lastSeq: firstSeq})
	return nil
}

// AppendSync implements Log.
func (l *walLog) AppendSync(data []byte) uint64 {
	seq := l.Append(data)
	l.Sync()
	return seq
}

// Checkpoint implements Log: the new checkpoint is written to a
// temporary file, forced, and atomically renamed over the old one, so a
// crash at any instant leaves either the old checkpoint or the new —
// never a partial mix. Only after the install is the log compacted;
// recovery skips (and reports) any records at or below the watermark
// that a crash in that window left behind.
func (l *walLog) Checkpoint(state []byte, upTo uint64) {
	l.mu.Lock()
	if l.failIfWedged() {
		l.mu.Unlock()
		return
	}
	for l.syncing {
		l.cond.Wait()
		if l.failIfWedged() {
			l.mu.Unlock()
			return
		}
	}
	if err := l.installCheckpoint(state, upTo); err != nil {
		l.wedge(err) // panics
	}
	buf := make([]byte, len(state))
	copy(buf, state)
	l.checkpoint = buf
	l.cpAt = upTo
	l.hasCP = true
	kept := make([]Record, 0, len(l.durable))
	for _, r := range l.durable {
		if r.Seq > upTo {
			kept = append(kept, r)
		}
	}
	l.durable = kept

	l.fire(l.wal.cfg.Hooks.MidCheckpoint)

	if err := l.compact(upTo); err != nil {
		l.wedge(err) // panics
	}
	l.mu.Unlock()
}

// installCheckpoint performs the write-force-rename-force dance.
func (l *walLog) installCheckpoint(state []byte, upTo uint64) error {
	tmp := filepath.Join(l.dir, checkpointTmpName)
	buf := make([]byte, 12+len(state))
	binary.LittleEndian.PutUint64(buf[0:], upTo)
	binary.LittleEndian.PutUint32(buf[8:], crc32.Checksum(state, crcTable))
	copy(buf[12:], state)
	if err := writeFileSync(tmp, buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, checkpointName)); err != nil {
		return err
	}
	if err := fsyncDir(l.dir); err != nil {
		return err
	}
	l.wal.syncs.Add(2)
	return nil
}

// compact deletes segments wholly covered by the checkpoint watermark.
func (l *walLog) compact(upTo uint64) error {
	var last *segment
	if n := len(l.segs); n > 0 {
		last = l.segs[n-1]
	}
	kept := l.segs[:0]
	for _, s := range l.segs {
		if s.lastSeq > upTo {
			kept = append(kept, s)
			continue
		}
		if s == last && l.active != nil {
			if err := l.sealActive(); err != nil {
				return err
			}
		}
		if err := os.Remove(s.path); err != nil {
			return err
		}
	}
	l.segs = kept
	return nil
}

// Recover implements Log, returning the in-memory mirror of the
// verified on-disk state — the same data a fresh process's open-time
// scan of the directory yields.
func (l *walLog) Recover() (checkpoint []byte, records []Record, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	records = make([]Record, len(l.durable))
	for i, r := range l.durable {
		data := make([]byte, len(r.Data))
		copy(data, r.Data)
		records[i] = Record{Seq: r.Seq, Data: data}
	}
	if !l.hasCP {
		return nil, records, ErrNoCheckpoint
	}
	cp := make([]byte, len(l.checkpoint))
	copy(cp, l.checkpoint)
	return cp, records, nil
}

// DurableLen implements Log.
func (l *walLog) DurableLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.durable)
}

// VolatileLen implements Log.
func (l *walLog) VolatileLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.volatile)
}

// LastDurableSeq implements Log.
func (l *walLog) LastDurableSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.durable); n > 0 {
		return l.durable[n-1].Seq
	}
	return l.cpAt
}

// SkipTo implements Log: it raises the sequence counter (never
// lowering it) so records applied after an installed replica checkpoint
// continue the primary's numbering. Only the counter moves; nothing is
// written until the next Append/Sync.
func (l *walLog) SkipTo(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.nextSeq {
		l.nextSeq = seq
	}
	if seq > l.durableSeq {
		l.durableSeq = seq
	}
}

// Truncate implements Log. The crash order keeps every record below
// from: the wholly-later segments go first, newest first, and the
// directory is forced; then the segment holding from is replaced by its
// prefix (written to a temporary file, forced, renamed over it) and the
// directory forced again. A crash before the rename leaves that segment
// whole, so at worst records at or past from survive, never fewer below.
func (l *walLog) Truncate(from uint64) {
	l.mu.Lock()
	if l.failIfWedged() {
		l.mu.Unlock()
		return
	}
	for l.syncing {
		l.cond.Wait()
		if l.failIfWedged() {
			l.mu.Unlock()
			return
		}
	}
	if l.hasCP && from <= l.cpAt || from == 0 {
		l.mu.Unlock()
		panic(fmt.Sprintf("durable: truncate %s from %d at or below checkpoint %d", l.name, from, l.cpAt))
	}
	if err := l.cutSegments(from); err != nil {
		l.wedge(err) // panics
	}
	l.durable = recordsBelow(l.durable, from)
	l.volatile = recordsBelow(l.volatile, from)
	l.nextSeq = min(l.nextSeq, from-1)
	l.durableSeq = min(l.durableSeq, from-1)
	l.mu.Unlock()
}

// cutSegments is Truncate's disk half, run under mu with no flush in
// flight. It leaves the last surviving segment open for appending.
func (l *walLog) cutSegments(from uint64) error {
	n := len(l.segs)
	for n > 0 && l.segs[n-1].firstSeq >= from {
		n--
	}
	if n == len(l.segs) && (n == 0 || l.segs[n-1].lastSeq < from) {
		return nil // nothing on disk at or past from
	}
	if l.active != nil {
		if err := l.sealActive(); err != nil {
			return err
		}
	}
	for i := len(l.segs) - 1; i >= n; i-- {
		if err := os.Remove(l.segs[i].path); err != nil {
			return err
		}
	}
	l.segs = l.segs[:n]
	if err := fsyncDir(l.dir); err != nil {
		return err
	}
	l.wal.syncs.Add(1)
	if n == 0 {
		return nil
	}
	s := l.segs[n-1]
	if s.lastSeq >= from {
		var prefix []Record
		for _, r := range l.durable {
			if r.Seq >= s.firstSeq && r.Seq < from {
				prefix = append(prefix, r)
			}
		}
		tmp := filepath.Join(l.dir, truncateTmpName)
		if err := writeFileSync(tmp, encodeBatch(prefix)); err != nil {
			return err
		}
		l.fire(l.wal.cfg.Hooks.MidTruncate)
		if err := os.Rename(tmp, s.path); err != nil {
			return err
		}
		if err := fsyncDir(l.dir); err != nil {
			return err
		}
		l.wal.syncs.Add(2)
		s.lastSeq = from - 1
	}
	return l.openActive(s)
}

// openActive reopens segment s for appending as the active segment.
func (l *walLog) openActive(s *segment) error {
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.active, l.activeSize = f, info.Size()
	return nil
}

// --- open-time recovery scan ---

// openWalLog opens one log directory, scanning and verifying its
// checkpoint and every segment.
func openWalLog(w *WAL, name string) (*walLog, error) {
	dir := filepath.Join(w.dir, escapeLogName(name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &walLog{wal: w, name: name, dir: dir}
	l.cond = sync.NewCond(&l.mu)

	// A leftover checkpoint.tmp is an uninstalled checkpoint from a
	// crash mid-write: the rename never happened, so the old checkpoint
	// (or none) is still the truth. A leftover truncate.tmp is likewise a
	// segment prefix never renamed into place. Discard both.
	for _, tmp := range []string{checkpointTmpName, truncateTmpName} {
		if err := os.Remove(filepath.Join(dir, tmp)); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	if err := l.readCheckpoint(); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	lastSeen := uint64(0)
	for i, s := range segs {
		if err := l.scanSegment(s, i == len(segs)-1, &lastSeen); err != nil {
			return nil, err
		}
	}
	l.segs = segs
	l.durableSeq = lastSeen
	if l.durableSeq < l.cpAt {
		l.durableSeq = l.cpAt
	}
	l.nextSeq = l.durableSeq
	l.report.Records = len(l.durable)

	// Finish any compaction a crash interrupted: segments wholly at or
	// below the watermark are stale.
	if l.hasCP {
		kept := l.segs[:0]
		for _, s := range l.segs {
			if s.lastSeq > l.cpAt {
				kept = append(kept, s)
				continue
			}
			if err := os.Remove(s.path); err != nil {
				return nil, err
			}
		}
		l.segs = kept
	}
	// Reopen the final surviving segment for appending.
	if n := len(l.segs); n > 0 {
		if err := l.openActive(l.segs[n-1]); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// readCheckpoint loads and verifies the installed checkpoint, if any.
// Damage here is real corruption — the file was installed by an atomic
// rename after an fsync, so no crash can legally tear it.
func (l *walLog) readCheckpoint() error {
	buf, err := os.ReadFile(filepath.Join(l.dir, checkpointName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(buf) < 12 {
		return fmt.Errorf("%w: log %s: checkpoint file truncated (%d bytes)", ErrCorrupt, l.name, len(buf))
	}
	state := buf[12:]
	if crc32.Checksum(state, crcTable) != binary.LittleEndian.Uint32(buf[8:]) {
		return fmt.Errorf("%w: log %s: checkpoint checksum mismatch", ErrCorrupt, l.name)
	}
	l.checkpoint = append([]byte(nil), state...)
	l.cpAt = binary.LittleEndian.Uint64(buf[0:])
	l.hasCP = true
	return nil
}

// listSegments returns the log's segment files ordered by first
// sequence number.
func listSegments(dir string) ([]*segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []*segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		first, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: unparseable segment name %s", ErrCorrupt, name)
		}
		segs = append(segs, &segment{path: filepath.Join(dir, name), firstSeq: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// scanSegment parses one segment's batch frames into the in-memory
// mirror. A bad frame at the tail of the FINAL segment is the residue
// of a torn write: the frame (the whole batch — the atomicity unit) is
// truncated away and reported. A bad frame anywhere else cannot have
// been produced by any crash of a correct writer and fails the open
// with ErrCorrupt.
func (l *walLog) scanSegment(s *segment, final bool, lastSeen *uint64) error {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return err
	}
	off := 0
	tear := func(reason string) error {
		if !final {
			return fmt.Errorf("%w: log %s: segment %s: %s at offset %d (not in the final segment)",
				ErrCorrupt, l.name, filepath.Base(s.path), reason, off)
		}
		if err := os.Truncate(s.path, int64(off)); err != nil {
			return err
		}
		if err := fsyncFile(s.path); err != nil {
			return err
		}
		l.report.TornTail = true
		l.report.TornBytes = len(data) - off
		return nil
	}
	for off < len(data) {
		if len(data)-off < batchHeaderSize {
			return tear("short batch header")
		}
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if plen > maxFramePayload {
			return tear("implausible batch length")
		}
		if off+batchHeaderSize+plen > len(data) {
			return tear("short batch payload")
		}
		payload := data[off+batchHeaderSize : off+batchHeaderSize+plen]
		if crc32.Checksum(payload, crcTable) != crc {
			return tear("batch checksum mismatch")
		}
		// The frame is intact; its interior is covered by the checksum,
		// so malformation inside is a writer bug, never a torn write.
		p := 0
		for p < len(payload) {
			if len(payload)-p < recordHeaderSize {
				return fmt.Errorf("%w: log %s: malformed record header inside a valid batch", ErrCorrupt, l.name)
			}
			dlen := int(binary.LittleEndian.Uint32(payload[p:]))
			seq := binary.LittleEndian.Uint64(payload[p+4:])
			if p+recordHeaderSize+dlen > len(payload) {
				return fmt.Errorf("%w: log %s: record overruns its batch", ErrCorrupt, l.name)
			}
			if seq <= *lastSeen {
				return fmt.Errorf("%w: log %s: sequence numbers not strictly increasing (%d after %d)",
					ErrCorrupt, l.name, seq, *lastSeen)
			}
			*lastSeen = seq
			if l.hasCP && seq <= l.cpAt {
				// Stale: a crash between checkpoint install and
				// compaction left it behind.
				l.report.Skipped++
			} else {
				rec := make([]byte, dlen)
				copy(rec, payload[p+recordHeaderSize:])
				l.durable = append(l.durable, Record{Seq: seq, Data: rec})
			}
			p += recordHeaderSize + dlen
		}
		s.lastSeq = *lastSeen
		off += batchHeaderSize + plen
	}
	return nil
}

// --- encoding helpers ---

// encodeBatch frames a batch: header (length, checksum) then each
// record.
func encodeBatch(batch []Record) []byte {
	plen := 0
	for _, r := range batch {
		plen += recordHeaderSize + len(r.Data)
	}
	buf := make([]byte, batchHeaderSize+plen)
	off := batchHeaderSize
	for _, r := range batch {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(r.Data)))
		binary.LittleEndian.PutUint64(buf[off+4:], r.Seq)
		copy(buf[off+recordHeaderSize:], r.Data)
		off += recordHeaderSize + len(r.Data)
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(plen))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(buf[batchHeaderSize:], crcTable))
	return buf
}

// writeFileSync creates (or empties) path, writes buf and forces it.
func writeFileSync(path string, buf []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fsyncDir forces a directory's entries, making file creations,
// renames and removals durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// fsyncFile forces one file by path (used after truncating a torn
// tail).
func fsyncFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	serr := f.Sync()
	cerr := f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// escapeLogName maps an arbitrary log name to a safe directory name:
// bytes outside [A-Za-z0-9_-] become %XX.
func escapeLogName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// unescapeLogName inverts escapeLogName; malformed escapes pass
// through verbatim.
func unescapeLogName(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			if v, err := strconv.ParseUint(s[i+1:i+3], 16, 8); err == nil {
				b.WriteByte(byte(v))
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
