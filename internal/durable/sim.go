package durable

import (
	"time"

	"repro/internal/stable"
	"repro/internal/vtime"
)

// Sim adapts the in-memory simulated disk to the Store seam — the
// default backend, exactly as transport.Sim adapts netsim. It survives
// simulated Node.Crash calls but not process death, and Persistent is
// accordingly false: the guardian runtime keeps re-creation metadata in
// process memory for it, just as it always has.
type Sim struct {
	disk *stable.Disk
}

// NewSim wraps a simulated disk.
func NewSim(disk *stable.Disk) *Sim { return &Sim{disk: disk} }

// NewSimDisk builds a Sim over a fresh simulated disk on the given
// clock — the same default storage a World gives nodes when Config.Store
// is nil, packaged for callers who need the Store value itself (e.g. to
// wrap it in replication). syncDelay models per-Sync fsync latency; zero
// means instantaneous forces.
func NewSimDisk(clock vtime.Clock, syncDelay time.Duration) *Sim {
	return NewSim(stable.NewDisk(clock, stable.DiskConfig{SyncDelay: syncDelay}))
}

// OpenLog implements Store. The simulated log is the interface's
// reference implementation; opening cannot fail.
func (s *Sim) OpenLog(name string) (Log, error) { return s.disk.OpenLog(name), nil }

// LogNames implements Store.
func (s *Sim) LogNames() []string { return s.disk.LogNames() }

// Persistent implements Store: simulated storage dies with the process.
func (s *Sim) Persistent() bool { return false }

// Crash implements Store.
func (s *Sim) Crash() { s.disk.Crash() }

// SyncCount implements Store.
func (s *Sim) SyncCount() int64 { return s.disk.SyncCount() }

// Close implements Store: the simulated disk holds no OS resources.
func (s *Sim) Close() error { return nil }
