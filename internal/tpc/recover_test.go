package tpc

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/vtime"
)

// TestCoordinatorRefusesCorruptWAL: a coordinator on a real WAL logs commit
// decisions, a byte inside a sealed segment of its log is flipped, and the
// node must refuse to come back — not restart the coordinator with an
// empty decision table that answers a re-ask with presumed abort.
func TestCoordinatorRefusesCorruptWAL(t *testing.T) {
	root := t.TempDir()
	cfg := guardian.Config{Store: func(node string) (durable.Store, error) {
		if node != "coord" {
			return nil, nil
		}
		// Tiny segments, so the decision log spans several files and the
		// damage can land in a sealed one (final-segment damage is torn-tail
		// residue and is legitimately truncated instead).
		return durable.OpenWAL(filepath.Join(root, node), durable.WALConfig{SegmentSize: 64})
	}}
	h := newHarnessOn(t, guardian.NewWorld(cfg), 2, 10)
	for i := 0; i < 3; i++ {
		if got := h.begin(t, fmt.Sprintf("tx%d", i), 1); got != OutcomeCommitted {
			t.Fatalf("tx%d: %s", i, got)
		}
	}
	if err := h.w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(root, "coord", fmt.Sprintf("%s-%d", CoordinatorDefName, h.coordID), "wal-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 segments in the coordinator's log, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := guardian.NewWorld(cfg)
	w2.MustRegister(CoordinatorDef())
	if _, err := w2.AddNode("coord"); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("node restarted over a corrupt decision log: %v", err)
	}
}

// unreadableStore is an in-memory store whose logs report ErrCorrupt from
// Recover once bad is set — the Log contract's "reject interior corruption
// rather than replaying it", arriving at recovery time.
type unreadableStore struct {
	durable.Store
	bad *atomic.Bool
}

func (s unreadableStore) OpenLog(name string) (durable.Log, error) {
	l, err := s.Store.OpenLog(name)
	return unreadableLog{l, s.bad}, err
}

type unreadableLog struct {
	durable.Log
	bad *atomic.Bool
}

func (l unreadableLog) Recover() ([]byte, []durable.Record, error) {
	if l.bad.Load() {
		return nil, nil, durable.ErrCorrupt
	}
	return l.Log.Recover()
}

// TestCoordinatorFailStopsOnUnreadableLog: a coordinator whose log reports
// an error from Recover must fail-stop, naming itself and the log. Fail-stop
// is a panic on the guardian's recovery process, so the scenario runs in a
// child process; a child that survives the restart has dropped the error,
// come up with an empty decision table, and re-decided a transaction it had
// already logged as committed.
func TestCoordinatorFailStopsOnUnreadableLog(t *testing.T) {
	if os.Getenv("TPC_UNREADABLE_LOG_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCoordinatorFailStopsOnUnreadableLog$")
		cmd.Env = append(os.Environ(), "TPC_UNREADABLE_LOG_CHILD=1")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("the coordinator survived a log it could not read:\n%s", out)
		}
		for _, want := range []string{"unrecoverable log", CoordinatorDefName, durable.ErrCorrupt.Error()} {
			if !strings.Contains(string(out), want) {
				t.Errorf("the fail-stop does not mention %q:\n%s", want, out)
			}
		}
		return
	}

	bad := new(atomic.Bool)
	h := newHarnessOn(t, guardian.NewWorld(guardian.Config{Store: func(node string) (durable.Store, error) {
		return unreadableStore{durable.NewMem(vtime.NewReal(), durable.MemConfig{}), bad}, nil
	}}), 1, 10)
	if got := h.begin(t, "tx1", 1); got != OutcomeCommitted {
		t.Fatalf("tx1: %s", got)
	}
	bad.Store(true)
	h.coordNode.Crash()
	if err := h.coordNode.Restart(); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("restarted; a re-asked tx1 is now %s\n", h.begin(t, "tx1", 1))
}
