package guardian

import (
	"errors"
	"fmt"

	"repro/internal/durable"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// Folder is one reader of a log's records. Replay offers it each record's
// value and it answers one of three ways: (false, nil) — not mine, some
// other folder's or a neighbour's on a shared log; (true, nil) — mine, and
// applied; an error — mine but malformed (it bears my name or shape and
// does not read as what I write), which recovery must stop on rather than
// apply as zero values or skip.
type Folder func(v xrep.Value) (mine bool, err error)

// BarrierRec names a record that carries no effect: a replication layer
// appends one to a log to commit a new leader's term (DESIGN §12).
// Replay offers it to no folder.
const BarrierRec = "guardian/barrier"

// Replay is the one way a log is read back (DESIGN §11). ErrNoCheckpoint
// is the normal state of a log that never compacted; any other Recover
// error is returned. A checkpoint is handed to checkpoint before any
// record, so records folded on top find the state they refer to; a log
// that holds one when checkpoint is nil is refused. Each record is then
// unmarshalled once and offered to the folders in order until one claims
// it. A record no folder claims is skipped: logs are shared (a branch's
// with its dedup filter), and a reader of one part does not own the rest.
// A BarrierRec is skipped unoffered.
// A record that does not unmarshal, or that a folder finds malformed,
// ends the replay with an error naming its sequence number.
func Replay(log durable.Log, checkpoint func(state []byte) error, folders ...Folder) error {
	cp, recs, err := log.Recover()
	switch {
	case errors.Is(err, durable.ErrNoCheckpoint):
	case err != nil:
		return err
	case checkpoint == nil:
		return errors.New("checkpoint with no reader")
	default:
		if err := checkpoint(cp); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	for _, r := range recs {
		v, err := wire.UnmarshalValue(r.Data)
		for i := 0; err == nil && xrep.RecName(v) != BarrierRec && i < len(folders); i++ {
			var mine bool
			if mine, err = folders[i](v); mine {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("record %d: %w", r.Seq, err)
		}
	}
	return nil
}

// Replay is the package's Replay over the guardian's own log, fail-stop:
// a guardian that cannot read its recovery data must not serve, or it
// would forget effects it acknowledged (a coordinator a commit it logged,
// a branch a deposit). The panic names the guardian and the log.
func (g *Guardian) Replay(checkpoint func(state []byte) error, folders ...Folder) {
	if err := Replay(g.Log(), checkpoint, folders...); err != nil {
		panic(fmt.Errorf("guardian: %s/%d: unrecoverable log %s: %w", g.def.TypeName, g.id, g.LogName(), err))
	}
}
