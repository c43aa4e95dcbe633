package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// WAL is the real backend: one directory per node holding one
// subdirectory per log, each a sequence of segment files of
// CRC-checksummed batch frames plus an atomically-replaced checkpoint
// file. It is a device under the same log as Mem, so it keeps the same
// promises — Append is volatile, Sync is the durability point, everything
// one Sync forces becomes durable atomically — against storage that
// survives kill -9 of the hosting process.
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
	logs   map[string]*log
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
	// Crash, when set, hears the WAL's crash windows (fault.BeforeSync,
	// AfterSync, MidCheckpoint, MidTruncate) with the log's name, so tests
	// can kill the process — or snapshot the directory — at exactly the
	// instants a real crash is most interesting. It must not call back
	// into the log.
	Crash fault.Hook
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
	return &WAL{dir: dir, cfg: cfg, logs: make(map[string]*log)}, nil
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

// Crash implements Store for in-process simulated crashes: volatile
// tails are dropped and numbering resumes after each log's durable tail,
// exactly as process death and a reopen would leave them.
func (w *WAL) Crash() {
	w.mu.Lock()
	logs := make([]*log, 0, len(w.logs))
	for _, l := range w.logs {
		logs = append(logs, l)
	}
	w.mu.Unlock()
	for _, l := range logs {
		l.mu.Lock()
		l.drop()
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
	logs := make([]*log, 0, len(w.logs))
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
		if d := l.dev.(*walDir); d.active != nil {
			if err := d.active.Close(); err != nil && first == nil {
				first = err
			}
			d.active = nil
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
	return l.dev.(*walDir).report, true
}

// segment is one on-disk segment file.
type segment struct {
	path     string
	firstSeq uint64
	lastSeq  uint64
}

// walDir is one log's device: its directory of segment files and its
// checkpoint file. The active segment and frame are written only by the
// Sync leader (under the log's syncing flag, not its mutex) or with the
// mutex held and no write in flight.
type walDir struct {
	wal        *WAL
	dir        string
	segs       []*segment
	active     *os.File
	activeSize int64
	frame      []byte // the last file image written, reused by the next

	report RecoveryReport
}

// groupCommit implements device.
func (d *walDir) groupCommit() bool { return !d.wal.cfg.NoGroupCommit }

// force implements device: the batch becomes one checksummed frame and
// one fsync, written with l.mu released so appenders are never blocked
// behind the disk.
func (d *walDir) force(l *log, batch []Record) ([]Record, string, error) {
	l.syncing = true
	l.mu.Unlock()
	d.wal.cfg.Crash.At(fault.BeforeSync, l.name)
	err := d.writeAndSync(batch)
	l.mu.Lock()
	l.syncing = false
	return batch, fault.AfterSync, err
}

// forced implements device.
func (d *walDir) forced(l *log, point string) {
	if point != "" {
		d.wal.cfg.Crash.At(point, l.name)
	}
}

// writeAndSync appends batch as one frame to the active segment
// (rotating first if it is full) and forces it.
func (d *walDir) writeAndSync(batch []Record) error {
	if len(batch) > 0 {
		if d.active != nil && d.activeSize >= int64(d.wal.cfg.SegmentSize) {
			if err := d.sealActive(); err != nil {
				return err
			}
		}
		if d.active == nil {
			if err := d.newSegment(batch[0].Seq); err != nil {
				return err
			}
		}
		d.frame = encodeBatch(d.frame, batch)
		if _, err := d.active.Write(d.frame); err != nil {
			return err
		}
		d.activeSize += int64(len(d.frame))
		d.segs[len(d.segs)-1].lastSeq = batch[len(batch)-1].Seq
	}
	if d.active == nil {
		return nil
	}
	if err := d.active.Sync(); err != nil {
		return err
	}
	d.wal.syncs.Add(1)
	return nil
}

// sealActive closes the active segment (its data is already synced
// batch by batch).
func (d *walDir) sealActive() error {
	err := d.active.Close()
	d.active = nil
	d.activeSize = 0
	return err
}

// newSegment creates the next segment file and makes its directory
// entry durable before any record is acknowledged out of it.
func (d *walDir) newSegment(firstSeq uint64) error {
	path := filepath.Join(d.dir, fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := fsyncDir(d.dir); err != nil {
		f.Close()
		return err
	}
	d.active = f
	d.activeSize = 0
	d.segs = append(d.segs, &segment{path: path, firstSeq: firstSeq, lastSeq: firstSeq})
	return nil
}

// checkpoint implements device: the new checkpoint is written to a
// temporary file, forced, and atomically renamed over the old one, so a
// crash at any instant leaves either the old checkpoint or the new —
// never a partial mix. Only after the install are the segments it
// covers deleted; recovery skips (and reports) any records at or below
// the watermark that a crash in that window left behind.
func (d *walDir) checkpoint(l *log, state []byte, upTo uint64) error {
	tmp := filepath.Join(d.dir, checkpointTmpName)
	buf := binary.LittleEndian.AppendUint64(d.frame[:0], upTo)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(state, crcTable))
	d.frame = append(buf, state...)
	if err := writeFileSync(tmp, d.frame); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, checkpointName)); err != nil {
		return err
	}
	if err := fsyncDir(d.dir); err != nil {
		return err
	}
	d.wal.syncs.Add(2)
	d.wal.cfg.Crash.At(fault.MidCheckpoint, l.name)
	return d.compact(upTo)
}

// compact deletes segments wholly covered by the checkpoint watermark.
func (d *walDir) compact(upTo uint64) error {
	var last *segment
	if n := len(d.segs); n > 0 {
		last = d.segs[n-1]
	}
	kept := d.segs[:0]
	for _, s := range d.segs {
		if s.lastSeq > upTo {
			kept = append(kept, s)
			continue
		}
		if s == last && d.active != nil {
			if err := d.sealActive(); err != nil {
				return err
			}
		}
		if err := os.Remove(s.path); err != nil {
			return err
		}
	}
	d.segs = kept
	return nil
}

// cut implements device. The crash order keeps every record below
// from: the wholly-later segments go first, newest first, and the
// directory is forced; then the segment holding from is replaced by its
// prefix (written to a temporary file, forced, renamed over it) and the
// directory forced again. A crash before the rename leaves that segment
// whole, so at worst records at or past from survive, never fewer below.
// It leaves the last surviving segment open for appending.
func (d *walDir) cut(l *log, from uint64) error {
	n := len(d.segs)
	for n > 0 && d.segs[n-1].firstSeq >= from {
		n--
	}
	if n == len(d.segs) && (n == 0 || d.segs[n-1].lastSeq < from) {
		return nil // nothing on disk at or past from
	}
	if d.active != nil {
		if err := d.sealActive(); err != nil {
			return err
		}
	}
	for i := len(d.segs) - 1; i >= n; i-- {
		if err := os.Remove(d.segs[i].path); err != nil {
			return err
		}
	}
	d.segs = d.segs[:n]
	if err := fsyncDir(d.dir); err != nil {
		return err
	}
	d.wal.syncs.Add(1)
	if n == 0 {
		return nil
	}
	s := d.segs[n-1]
	if s.lastSeq >= from {
		var prefix []Record
		for _, r := range l.durable {
			if r.Seq >= s.firstSeq && r.Seq < from {
				prefix = append(prefix, r)
			}
		}
		tmp := filepath.Join(d.dir, truncateTmpName)
		d.frame = encodeBatch(d.frame, prefix)
		if err := writeFileSync(tmp, d.frame); err != nil {
			return err
		}
		d.wal.cfg.Crash.At(fault.MidTruncate, l.name)
		if err := os.Rename(tmp, s.path); err != nil {
			return err
		}
		if err := fsyncDir(d.dir); err != nil {
			return err
		}
		d.wal.syncs.Add(2)
		s.lastSeq = from - 1
	}
	return d.openActive(s)
}

// openActive reopens segment s for appending as the active segment.
func (d *walDir) openActive(s *segment) error {
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	d.active, d.activeSize = f, info.Size()
	return nil
}

// --- open-time recovery scan ---

// openWalLog opens one log directory, scanning and verifying its
// checkpoint and every segment.
func openWalLog(w *WAL, name string) (*log, error) {
	dir := filepath.Join(w.dir, escapeLogName(name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &walDir{wal: w, dir: dir}
	l := newLog(name, new(sync.Mutex), d)

	// A leftover checkpoint.tmp is an uninstalled checkpoint from a
	// crash mid-write: the rename never happened, so the old checkpoint
	// (or none) is still the truth. A leftover truncate.tmp is likewise a
	// segment prefix never renamed into place. Discard both.
	for _, tmp := range []string{checkpointTmpName, truncateTmpName} {
		if err := os.Remove(filepath.Join(dir, tmp)); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	if err := d.readCheckpoint(l); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	lastSeen := uint64(0)
	for i, s := range segs {
		if err := d.scanSegment(l, s, i == len(segs)-1, &lastSeen); err != nil {
			return nil, err
		}
	}
	d.segs = segs
	l.drop() // numbering resumes after the durable tail, as after a crash
	d.report.Records = len(l.durable)

	// Finish any compaction a crash interrupted: segments wholly at or
	// below the watermark are stale.
	if l.hasCP {
		if err := d.compact(l.cpAt); err != nil {
			return nil, err
		}
	}
	// Reopen the final surviving segment for appending.
	if n := len(d.segs); n > 0 {
		if err := d.openActive(d.segs[n-1]); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// readCheckpoint loads and verifies the installed checkpoint, if any.
// Damage here is real corruption — the file was installed by an atomic
// rename after an fsync, so no crash can legally tear it.
func (d *walDir) readCheckpoint(l *log) error {
	buf, err := os.ReadFile(filepath.Join(d.dir, checkpointName))
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
	l.checkpoint = state // buf is this open's own
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
func (d *walDir) scanSegment(l *log, s *segment, final bool, lastSeen *uint64) error {
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
		d.report.TornTail = true
		d.report.TornBytes = len(data) - off
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
		// Records are slices of one copy of the batch, not of the image.
		payload = append([]byte(nil), payload...)
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
				d.report.Skipped++
			} else {
				at := p + recordHeaderSize
				l.durable = append(l.durable, Record{Seq: seq, Data: payload[at : at+dlen : at+dlen]})
			}
			p += recordHeaderSize + dlen
		}
		s.lastSeq = *lastSeen
		off += batchHeaderSize + plen
	}
	return nil
}

// --- encoding helpers ---

// encodeBatch frames a batch into buf's storage, growing it if short:
// header (length, checksum) then each record.
func encodeBatch(buf []byte, batch []Record) []byte {
	plen := 0
	for _, r := range batch {
		plen += recordHeaderSize + len(r.Data)
	}
	buf = slices.Grow(buf[:0], batchHeaderSize+plen)[:batchHeaderSize+plen]
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
