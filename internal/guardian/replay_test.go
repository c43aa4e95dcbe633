package guardian

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/vtime"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// unreadable is a log whose Recover reports storage damage.
type unreadable struct{ durable.Log }

func (unreadable) Recover() ([]byte, []durable.Record, error) {
	return nil, nil, durable.ErrCorrupt
}

func replayLog(t *testing.T, records ...[]byte) durable.Log {
	t.Helper()
	log, err := durable.NewMem(vtime.NewReal(), durable.MemConfig{}).OpenLog("replay")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		log.Append(r)
	}
	log.Sync()
	return log
}

func mustMarshal(t *testing.T, v xrep.Value) []byte {
	t.Helper()
	b, err := wire.MarshalValue(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplayPolicy pins the one recovery policy: no checkpoint is fine,
// any other Recover error is returned, a checkpoint goes to its reader
// first (and a log holding one with no reader is refused), each record is
// offered to the folders in order until one claims it, an unclaimed record
// is skipped, a BarrierRec is offered to none, and a record that does not
// unmarshal or that a folder calls malformed stops the replay with its
// sequence number.
func TestReplayPolicy(t *testing.T) {
	a := mustMarshal(t, xrep.Rec{Name: "t/a", Fields: xrep.Seq{xrep.Int(1)}})
	b := mustMarshal(t, xrep.Rec{Name: "t/b", Fields: xrep.Seq{xrep.Int(2)}})
	other := mustMarshal(t, xrep.Seq{xrep.Str("a neighbour's")})
	barrier := mustMarshal(t, xrep.Rec{Name: BarrierRec})

	var trace []string
	folder := func(name string) Folder {
		return func(v xrep.Value) (bool, error) {
			trace = append(trace, name+" sees "+xrep.RecName(v))
			if xrep.RecName(v) != name {
				return false, nil
			}
			f := xrep.ReadRec(v, name, 1)
			f.Int()
			return true, f.Err()
		}
	}
	if err := Replay(replayLog(t, a, barrier, other, b), nil, folder("t/a"), folder("t/b")); err != nil {
		t.Fatalf("replay of a clean log: %v", err)
	}
	want := "t/a sees t/a|t/a sees |t/b sees |t/a sees t/b|t/b sees t/b"
	if got := strings.Join(trace, "|"); got != want {
		t.Errorf("folders were offered\n %s\nwant\n %s", got, want)
	}

	if err := Replay(unreadable{replayLog(t)}, nil); !errors.Is(err, durable.ErrCorrupt) {
		t.Errorf("a log that reports corruption replayed with %v, want ErrCorrupt", err)
	}

	bad := mustMarshal(t, xrep.Rec{Name: "t/a", Fields: xrep.Seq{xrep.Str("not an int")}})
	err := Replay(replayLog(t, a, bad, b), nil, folder("t/a"))
	if !errors.Is(err, xrep.ErrMalformed) || !strings.Contains(err.Error(), "record 2:") {
		t.Errorf("an ill-typed record replayed with %v, want ErrMalformed naming record 2", err)
	}
	err = Replay(replayLog(t, a, []byte{0xff, 0xff}), nil, folder("t/a"))
	if err == nil || !strings.Contains(err.Error(), "record 2:") {
		t.Errorf("a record that does not unmarshal replayed with %v, want an error naming record 2", err)
	}

	cp := replayLog(t, a, b)
	cp.Checkpoint([]byte("state"), 1)
	var state string
	trace = nil
	err = Replay(cp, func(s []byte) error { state = string(s); trace = append(trace, "checkpoint"); return nil }, folder("t/b"))
	if err != nil || state != "state" || strings.Join(trace, "|") != "checkpoint|t/b sees t/b" {
		t.Errorf("checkpointed log: %v, state %q, trace %v", err, state, trace)
	}
	if err := Replay(cp, nil, folder("t/b")); err == nil {
		t.Error("a checkpoint with no reader was dropped silently")
	}
	refuse := errors.New("refused")
	if err := Replay(cp, func([]byte) error { return refuse }); !errors.Is(err, refuse) {
		t.Errorf("a refused checkpoint replayed with %v", err)
	}
}
