package bank

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/amo"
	"repro/internal/durable"
	"repro/internal/guardian"
)

// walParentDir holds the WAL directory walCompatHistory left behind when
// it ran at the commit before the record encoders stopped building value
// trees (07d8d34). It is data, not a fixture to regenerate: the test below
// holds today's encoders to those bytes.
const walParentDir = "testdata/wal_parent"

// walCompatHistory drives a fixed history against a checkpointing branch
// whose storage is a WAL under root, through both of its ports: op records
// with and without op ids, dedup records with and without reply arguments
// (the one with arguments is a balance read's, which only the parent
// logged), a refused withdrawal, a two-record transfer, and enough
// mutations that a checkpoint folds the early ones away and a tail follows
// it.
func walCompatHistory(t *testing.T, root string) *guardian.Created {
	t.Helper()
	w := walBankWorld(t, root)
	nb := w.MustAddNode("branch")
	nt := w.MustAddNode("teller-node")
	created, err := nb.Bootstrap(BranchDefName, 4) // checkpoint every 4 mutations
	if err != nil {
		t.Fatal(err)
	}
	native, amoPort := created.Ports[0], created.Ports[1]
	c := newClient(t, nt)
	c.call(t, native, "open", "alice")
	c.call(t, native, "deposit", "alice", int64(100), "d1")
	if m := c.call(t, native, "withdraw", "alice", int64(250), "w-big"); m.Command != OutcomeInsufficient {
		t.Fatalf("withdraw: %v", m.Command)
	}
	caller, err := amo.NewCaller(c.proc, amo.CallerOptions{Timeout: testTimeout, Metrics: &amo.Metrics{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		want, cmd string
		args      []any
	}{
		{OutcomeOK, "open", []any{"bob"}},
		{OutcomeOK, "deposit", []any{"bob", int64(1) << 40}},
		{OutcomeOK, "transfer", []any{"alice", "bob", int64(30)}},
		{"balance_is", "balance", []any{"bob"}},
		{OutcomeInsufficient, "withdraw", []any{"alice", int64(71)}},
		{OutcomeOK, "withdraw", []any{"bob", int64(5)}},
		{OutcomeOK, "deposit", []any{"alice", int64(7)}},
	} {
		rep, err := caller.Call(amoPort, op.cmd, op.args...)
		if err != nil || rep.Command != op.want {
			t.Fatalf("%s%v: %v %v, want %s", op.cmd, op.args, rep, err, op.want)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return created
}

// readTree returns every file under root, by slash-separated relative path.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(rel)], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// writeTree writes files, keyed as readTree returns them, under a fresh
// directory and returns it.
func writeTree(t *testing.T, files map[string][]byte) string {
	t.Helper()
	root := t.TempDir()
	for name, data := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// recovered is what durable.Log.Recover returns for one log.
type recovered struct {
	checkpoint []byte
	records    []durable.Record
}

// recoverWAL opens the branch node's WAL under root and recovers every log
// on it, by name.
func recoverWAL(t *testing.T, root string) map[string]recovered {
	t.Helper()
	store, err := durable.OpenWAL(filepath.Join(root, "branch"), durable.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	logs := make(map[string]recovered)
	for _, name := range store.LogNames() {
		l, err := store.OpenLog(name)
		if err != nil {
			t.Fatal(err)
		}
		cp, recs, err := l.Recover()
		if err != nil && !errors.Is(err, durable.ErrNoCheckpoint) {
			t.Fatalf("%s: %v", name, err)
		}
		logs[name] = recovered{checkpoint: cp, records: recs}
	}
	return logs
}

// TestWALCompatibleWithParentBothWays: the on-disk format did not move.
// Forward, the parent's directory recovers under today's code, checkpoint,
// tail, applied-op table and dedup table included. Backward, the same
// history run today recovers to what the parent's directory recovers to,
// so the parent — which recovers its own directory — would recover
// today's just the same.
//
// Backward is compared on what recovery reads, not on file bytes, because
// the history's one amo balance is a read, and reads are no longer logged:
// today's branch log holds one amo/dedup record fewer. That record sat
// before the second checkpoint, and the read's cached reply was pruned by
// the next request's ack before that checkpoint was taken, so the
// checkpoint state is the same bytes. What moves is numbering: the
// checkpoint's watermark, every later record's sequence number and the
// segment file named after the first of them are one lower today (parent
// tail 14–17, today 13–16). The catalog does not move at all.
func TestWALCompatibleWithParentBothWays(t *testing.T) {
	parent := readTree(t, walParentDir)
	if len(parent) == 0 {
		t.Fatalf("%s is empty", walParentDir)
	}

	fresh := t.TempDir()
	created := walCompatHistory(t, fresh)
	today := readTree(t, fresh)
	const catalog = "branch/_catalog/"
	for name, want := range parent {
		if strings.HasPrefix(name, catalog) && !bytes.Equal(today[name], want) {
			t.Errorf("%s: today's %d bytes differ from the parent's %d", name, len(today[name]), len(want))
		}
	}
	for name := range today {
		if _, ok := parent[name]; strings.HasPrefix(name, catalog) && !ok {
			t.Errorf("today's run wrote %s, which the parent did not", name)
		}
	}
	parentLogs, todayLogs := recoverWAL(t, writeTree(t, parent)), recoverWAL(t, fresh)
	if len(todayLogs) != len(parentLogs) {
		t.Errorf("today's run has %d logs, the parent's %d", len(todayLogs), len(parentLogs))
	}
	for name, want := range parentLogs {
		got, ok := todayLogs[name]
		if !ok {
			t.Errorf("today's run has no log %s", name)
			continue
		}
		shift := uint64(1) // the unlogged read
		if name == "_catalog" {
			shift = 0
		}
		if !bytes.Equal(got.checkpoint, want.checkpoint) {
			t.Errorf("%s: checkpoint state differs: today %d bytes, parent %d", name, len(got.checkpoint), len(want.checkpoint))
		}
		if len(got.records) != len(want.records) {
			t.Errorf("%s: today's tail has %d records, the parent's %d", name, len(got.records), len(want.records))
			continue
		}
		for i, r := range want.records {
			if g := got.records[i]; g.Seq+shift != r.Seq || !bytes.Equal(g.Data, r.Data) {
				t.Errorf("%s: tail record %d is seq %d (%d bytes) today, seq %d (%d bytes) in the parent's",
					name, i, g.Seq, len(g.Data), r.Seq, len(r.Data))
			}
		}
	}

	root := writeTree(t, parent)
	w := walBankWorld(t, root)
	defer w.Close()
	nb := w.MustAddNode("branch")
	c := newClient(t, w.MustAddNode("teller-node"))
	// Same history, same names: the catalog re-creates the branch under
	// the identity it had in the parent's run.
	native, amoPort := created.Ports[0], created.Ports[1]
	if m := c.call(t, native, "audit"); m.Command != "audit_info" || m.Int(0) != 2 || m.Int(1) != 77+1<<40+25 {
		t.Fatalf("recovered audit: %v %v", m.Command, m.Args)
	}
	balances := func() map[string]int64 {
		g, ok := nb.GuardianByID(created.GuardianID)
		if !ok {
			t.Fatalf("guardian %d was not recovered", created.GuardianID)
		}
		snap, err := Snapshot(g)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	if snap := balances(); snap["alice"] != 77 || snap["bob"] != 1<<40+25 {
		t.Fatalf("recovered accounts %v; want alice 77, bob %d", snap, 1<<40+25)
	}
	// The dedup table came back: this caller has the parent run's session
	// id, so its first request id is one the branch already answered and
	// the client acknowledged — dropped unexecuted, never applied again.
	caller, err := amo.NewCaller(c.proc, amo.CallerOptions{Timeout: 300 * time.Millisecond, Metrics: &amo.Metrics{}})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := caller.Call(amoPort, "deposit", "bob", int64(999)); !errors.Is(err, amo.ErrTimeout) {
		t.Fatalf("a request id from before the restart was answered: %v %v", rep, err)
	}
	if snap := balances(); snap["bob"] != 1<<40+25 {
		t.Fatalf("a request id from before the restart was executed again: bob = %d", snap["bob"])
	}
	// The applied-op table came back: the refused withdrawal replays its
	// original outcome, and a repeated deposit is not applied again.
	if m := c.call(t, native, "withdraw", "alice", int64(250), "w-big"); m.Command != OutcomeInsufficient {
		t.Fatalf("replayed w-big: %v", m.Command)
	}
	c.call(t, native, "deposit", "alice", int64(100), "d1")
	if m := c.call(t, native, "balance", "alice"); m.Int(0) != 77 {
		t.Fatalf("alice after a replayed d1: %d, want 77", m.Int(0))
	}
}
