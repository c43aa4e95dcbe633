package replica

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/xrep"
)

// Store wraps a member node's durable.Store so that every Sync of an
// application log is replicated to the group. It is installed from
// guardian.Config.Store:
//
//	cfg.Store = func(node string) (durable.Store, error) {
//		inner := durable.NewMem(...)
//		if rc, ok := groups[node]; ok {
//			return replica.NewStore(inner, rc)
//		}
//		return inner, nil
//	}
//
// Reserved logs — names starting with "_", which includes the runtime's
// guardian catalog and the group's own term log — pass through
// unreplicated: they are per-node bookkeeping, not application state.
type Store struct {
	inner durable.Store
	rt    *Runtime

	mu   sync.Mutex
	logs map[string]*repLog
}

// reservedLog reports whether name is per-node bookkeeping that must not
// be replicated.
func reservedLog(name string) bool { return strings.HasPrefix(name, "_") }

// NewStore wraps inner for membership in cfg's replica group. It replays
// the group's term log from inner, so a restarted member rejoins with
// its persisted term and vote.
func NewStore(inner durable.Store, cfg Config) (*Store, error) {
	if cfg.Group == "" || cfg.Self == "" || len(cfg.Members) == 0 {
		return nil, fmt.Errorf("replica: config needs Group, Self and Members")
	}
	if !cfg.IsMember(cfg.Self) {
		return nil, fmt.Errorf("replica: node %q is not a member of group %q", cfg.Self, cfg.Group)
	}
	s := &Store{inner: inner, logs: make(map[string]*repLog)}
	rt, err := newRuntime(s, cfg)
	if err != nil {
		return nil, err
	}
	s.rt = rt
	return s, nil
}

// OpenLog returns the named log; application logs come back wrapped so
// their Syncs replicate.
func (s *Store) OpenLog(name string) (durable.Log, error) {
	inner, err := s.inner.OpenLog(name)
	if err != nil || reservedLog(name) {
		return inner, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.logs[name]
	if !ok {
		l = &repLog{st: s, name: name, inner: inner}
		s.logs[name] = l
	}
	return l, nil
}

// innerLog opens the named log on the wrapped store directly, bypassing
// replication — the follower apply path, which must not re-replicate.
func (s *Store) innerLog(name string) (durable.Log, error) {
	return s.inner.OpenLog(name)
}

// LogNames reports the wrapped store's log names.
func (s *Store) LogNames() []string { return s.inner.LogNames() }

// Persistent reports the wrapped store's persistence.
func (s *Store) Persistent() bool { return s.inner.Persistent() }

// Crash loses volatile state — including not-yet-shipped pending
// batches — and resets the replication runtime to a blank follower (the
// persisted term survives, leadership does not).
func (s *Store) Crash() {
	s.mu.Lock()
	for _, l := range s.logs {
		l.crashReset()
	}
	s.mu.Unlock()
	s.inner.Crash()
	s.rt.reset()
}

// SyncCount reports the wrapped store's forced-write count.
func (s *Store) SyncCount() int64 { return s.inner.SyncCount() }

// Close releases the runtime's waiters and the wrapped store.
func (s *Store) Close() error {
	s.rt.shutdown()
	return s.inner.Close()
}

// Inner returns the wrapped store.
func (s *Store) Inner() durable.Store { return s.inner }

// Adopt records the application guardian the initial primary created
// with guardian.Node.Bootstrap/Create, so the replicator can heartbeat
// its log name to followers (a follower that never received a record
// still learns which log to take over) and register its service port.
func (s *Store) Adopt(n *guardian.Node, c *guardian.Created) {
	g, ok := n.GuardianByID(c.GuardianID)
	if !ok {
		return
	}
	s.rt.adoptApp(g, c.Ports)
}

// Leader reports the member's current view: leader node name, term, and
// whether this member is that leader.
func (s *Store) Leader() (leader string, term uint64, isSelf bool) {
	return s.rt.leaderInfo()
}

// AppGuardian returns the locally served application guardian (nil on
// followers).
func (s *Store) AppGuardian() *guardian.Guardian { return s.rt.appGuardian() }

// AppPorts returns the served application guardian's port names (nil on
// followers).
func (s *Store) AppPorts() []xrep.PortName { return s.rt.appPortNames() }

// ReplStats returns a snapshot of the member's replication counters.
func (s *Store) ReplStats() Stats { return s.rt.statsSnapshot() }

// shippable snapshots the wrapped store's application log names.
func (s *Store) shippable() []string {
	var out []string
	for _, n := range s.inner.LogNames() {
		if !reservedLog(n) {
			out = append(out, n)
		}
	}
	return out
}

// repLog intercepts the durability boundary: records are volatile until
// Sync, and Sync is where the batch becomes both locally durable and —
// in quorum mode — group-durable before returning. The ship loop reads
// the records from the log, so the batch is only its numbers. Only Append
// numbers a batch (a follower's apply path, which truncates and skips,
// writes the inner log), so they run from first to first+n-1.
type repLog struct {
	st    *Store
	name  string
	inner durable.Log

	mu    sync.Mutex
	first uint64 // seq of the batch's first record
	n     int    // records appended since the last Sync
}

// Append stages the record locally and counts it into the next ship.
func (l *repLog) Append(data []byte) uint64 {
	seq := l.inner.Append(data)
	l.mu.Lock()
	if l.n == 0 {
		l.first = seq
	}
	l.n++
	l.mu.Unlock()
	return seq
}

// Sync forces the batch locally, then replicates it. In quorum mode this
// blocks until a majority holds the batch or this member is fenced. On
// the leader, preSync persists the batch's term attribution BEFORE the
// records become durable, so every durable record has a term the fork
// rule can compare.
func (l *repLog) Sync() {
	l.mu.Lock()
	first, n := l.first, l.n
	l.mu.Unlock()
	if n > 0 {
		l.st.rt.preSync(l.name, first)
	}
	l.inner.Sync()
	l.mu.Lock()
	first, n = l.first, l.n
	l.n = 0
	l.mu.Unlock()
	l.st.rt.replicate(l.name, first+uint64(n)-1, n)
}

// AppendSync is log-then-ack in one call: like the wrapped backends it
// forces every pending record, not just this one.
func (l *repLog) AppendSync(data []byte) uint64 {
	seq := l.Append(data)
	l.Sync()
	return seq
}

// Checkpoint compacts locally and remembers the checkpoint for follower
// catch-up.
func (l *repLog) Checkpoint(state []byte, upTo uint64) {
	l.inner.Checkpoint(state, upTo)
	l.st.rt.noteCheckpoint(l.name, state, upTo)
}

// Recover passes through to the wrapped log.
func (l *repLog) Recover() ([]byte, []durable.Record, error) { return l.inner.Recover() }

// DurableLen passes through to the wrapped log.
func (l *repLog) DurableLen() int { return l.inner.DurableLen() }

// VolatileLen passes through to the wrapped log.
func (l *repLog) VolatileLen() int { return l.inner.VolatileLen() }

// LastDurableSeq passes through to the wrapped log.
func (l *repLog) LastDurableSeq() uint64 { return l.inner.LastDurableSeq() }

// SkipTo passes through to the wrapped log.
func (l *repLog) SkipTo(seq uint64) { l.inner.SkipTo(seq) }

// Truncate cuts the wrapped log and the pending batch alike.
func (l *repLog) Truncate(from uint64) {
	l.inner.Truncate(from)
	l.mu.Lock()
	if l.n > 0 && from < l.first+uint64(l.n) {
		l.n = int(max(from, l.first) - l.first)
	}
	l.mu.Unlock()
}

// crashReset drops the volatile pending batch, mirroring the wrapped
// log's loss of its volatile tail.
func (l *repLog) crashReset() {
	l.mu.Lock()
	l.n = 0
	l.mu.Unlock()
}
