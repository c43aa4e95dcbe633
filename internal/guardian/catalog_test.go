package guardian

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
)

// walConfig builds a world config whose nodes keep their storage in
// per-node WALs under root — so a second world over the same root is a
// new OS process recovering the first one's state.
func walConfig(root string, segSize int) Config {
	return Config{Store: func(node string) (durable.Store, error) {
		return durable.OpenWAL(filepath.Join(root, node), durable.WALConfig{SegmentSize: segSize})
	}}
}

// TestCatalogRecoversGuardianAcrossProcessDeath is the cross-process
// analog of TestRecoverRestoresLoggedState: the first world plays the
// incarnation that dies (Close stands in for kill -9 — nothing volatile
// is carried over), the second recovers purely from the on-disk catalog
// and the guardian's own log.
func TestCatalogRecoversGuardianAcrossProcessDeath(t *testing.T) {
	root := t.TempDir()

	w1 := NewWorld(walConfig(root, 0))
	w1.MustRegister(counterDef)
	a1 := w1.MustAddNode("alpha")
	b1 := w1.MustAddNode("beta")
	if !a1.Store().Persistent() {
		t.Fatal("WAL-backed node's store does not claim persistence")
	}
	created, err := a1.Bootstrap("counter")
	if err != nil {
		t.Fatal(err)
	}
	port := created.Ports[0]
	_, drv1, err := b1.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := drv1.Send(port, "inc"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, ok := counterValue(t, drv1, port); ok && v == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("increments never applied")
		}
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := NewWorld(walConfig(root, 0))
	w2.MustRegister(counterDef)
	a2 := w2.MustAddNode("alpha")
	b2 := w2.MustAddNode("beta")
	defer w2.Close()
	if got := w2.Stats().GuardiansRecovered.Load(); got != 1 {
		t.Fatalf("GuardiansRecovered = %d, want 1", got)
	}
	if _, ok := a2.GuardianByID(created.GuardianID); !ok {
		t.Fatalf("guardian %d not resurrected", created.GuardianID)
	}
	_, drv2, err := b2.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	// The SAME port name answers in the new process: identity survives.
	v, ok := counterValue(t, drv2, port)
	if !ok {
		t.Fatal("recovered guardian not answering on its old port name")
	}
	if v != 5 {
		t.Fatalf("recovered count = %d, want 5 (permanence of effect)", v)
	}
}

// TestCatalogTombstoneStopsRecovery: a self-destructed guardian must not
// come back in the next process.
func TestCatalogTombstoneStopsRecovery(t *testing.T) {
	root := t.TempDir()

	w1 := NewWorld(walConfig(root, 0))
	w1.MustRegister(counterDef)
	a1 := w1.MustAddNode("alpha")
	created, err := a1.Bootstrap("counter")
	if err != nil {
		t.Fatal(err)
	}
	g, ok := a1.GuardianByID(created.GuardianID)
	if !ok {
		t.Fatal("created guardian not found")
	}
	g.SelfDestruct()
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := NewWorld(walConfig(root, 0))
	w2.MustRegister(counterDef)
	a2 := w2.MustAddNode("alpha")
	defer w2.Close()
	if got := w2.Stats().GuardiansRecovered.Load(); got != 0 {
		t.Fatalf("GuardiansRecovered = %d, want 0", got)
	}
	if _, ok := a2.GuardianByID(created.GuardianID); ok {
		t.Fatal("self-destructed guardian resurrected")
	}
	// Its id is still burned: the next creation picks a fresh one.
	c2, err := a2.Bootstrap("counter")
	if err != nil {
		t.Fatal(err)
	}
	if c2.GuardianID <= created.GuardianID {
		t.Fatalf("guardian id %d reused across process death (had %d)", c2.GuardianID, created.GuardianID)
	}
}

// TestCatalogForgetsNonRecoverableGuardians mirrors
// TestNonRecoverableGuardianForgotten across process death.
func TestCatalogForgetsNonRecoverableGuardians(t *testing.T) {
	root := t.TempDir()

	w1 := NewWorld(walConfig(root, 0))
	registerEcho(t, w1)
	a1 := w1.MustAddNode("alpha")
	if _, err := a1.Bootstrap("echo"); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := NewWorld(walConfig(root, 0))
	registerEcho(t, w2)
	w2.MustAddNode("alpha")
	defer w2.Close()
	if got := w2.Stats().GuardiansRecovered.Load(); got != 0 {
		t.Fatalf("GuardiansRecovered = %d, want 0 (echo has no Recover)", got)
	}
}

// TestCatalogRefusesCorruptGuardianLog: interior damage in a recovered
// guardian's log is not a legal crash residue; the node must refuse to
// start rather than run the guardian against recovery data with silent
// holes in it.
func TestCatalogRefusesCorruptGuardianLog(t *testing.T) {
	root := t.TempDir()

	// Tiny segments so the counter's log spans several files and damage
	// can land in a NON-final segment (final-segment damage is torn-tail
	// residue and is legitimately truncated instead).
	w1 := NewWorld(walConfig(root, 32))
	w1.MustRegister(counterDef)
	a1 := w1.MustAddNode("alpha")
	b1 := w1.MustAddNode("beta")
	created, err := a1.Bootstrap("counter")
	if err != nil {
		t.Fatal(err)
	}
	_, drv1, err := b1.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := drv1.Send(created.Ports[0], "inc"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, ok := counterValue(t, drv1, created.Ports[0]); ok && v == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("increments never applied")
		}
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in the counter log's FIRST segment.
	logDir := filepath.Join(root, "alpha", "counter-2")
	segs, err := filepath.Glob(filepath.Join(logDir, "wal-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >=2 segments in %s, got %v (%v)", logDir, segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := NewWorld(walConfig(root, 32))
	w2.MustRegister(counterDef)
	if _, err := w2.AddNode("alpha"); err == nil {
		t.Fatal("node started over a corrupt guardian log")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("refusal should name the corruption, got: %v", err)
	}
}

// TestStragglerAfterStoreCloseGetsInertLog: a killed guardian's straggling
// process that opens its log after the node's WAL closed gets the inert
// log — its writes were volatile the moment the guardian died — while a
// live guardian whose store fails to open its log fail-stops.
func TestStragglerAfterStoreCloseGetsInertLog(t *testing.T) {
	w := NewWorld(walConfig(t.TempDir(), 0))
	n := w.MustAddNode("alpha")
	dead, _, err := n.NewDriver("straggler")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The world is closed: the guardian is dead and its store is shut.
	l := dead.Log()
	if a, b := l.Append([]byte("x")), l.AppendSync([]byte("y")); a != 1 || b != 2 {
		t.Fatalf("inert log numbered appends %d, %d; want 1, 2", a, b)
	}
	l.Sync()
	l.Checkpoint([]byte("state"), 2)
	l.SkipTo(10)
	if got := l.Append(nil); got != 11 {
		t.Fatalf("Append after SkipTo(10) = %d, want 11", got)
	}
	l.Truncate(5)
	if got := l.Append(nil); got != 5 {
		t.Fatalf("Append after Truncate(5) = %d, want 5", got)
	}
	if _, _, err := l.Recover(); !errors.Is(err, durable.ErrNoCheckpoint) {
		t.Fatalf("inert log Recover = %v, want ErrNoCheckpoint", err)
	}
	if l.DurableLen() != 0 || l.VolatileLen() != 0 || l.LastDurableSeq() != 0 {
		t.Fatalf("inert log holds something: durable %d, volatile %d, last %d",
			l.DurableLen(), l.VolatileLen(), l.LastDurableSeq())
	}

	// Fail-stop: the same failure under a live guardian panics.
	w2 := NewWorld(walConfig(t.TempDir(), 0))
	defer w2.Close()
	n2 := w2.MustAddNode("beta")
	live, _, err := n2.NewDriver("live")
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.Store().Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if e, ok := r.(error); !ok || !strings.Contains(e.Error(), "opening log") {
			t.Fatalf("a live guardian's failed log open recovered %v, want a fail-stop panic", r)
		}
	}()
	live.Log()
	t.Fatal("a live guardian got a log from a closed store")
}
