// Package stable is the old name of the in-memory disk, now durable.Mem.
// It holds aliases only, because the benchmark (which this repo's PRs
// may not edit) constructs durable.NewSim(stable.NewDisk(clock,
// stable.DiskConfig{})). New code imports durable.
package stable

import (
	"repro/internal/durable"
	"repro/internal/vtime"
)

type (
	Disk       = durable.Mem
	DiskConfig = durable.MemConfig
	Record     = durable.Record
)

var ErrNoCheckpoint = durable.ErrNoCheckpoint

func NewDisk(clock vtime.Clock, cfg DiskConfig) *Disk { return durable.NewMem(clock, cfg) }
