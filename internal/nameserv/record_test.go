package nameserv

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/guardian"
	"repro/internal/wire"
	"repro/internal/xrep"
)

func newState() *state {
	return &state{bindings: make(map[string]*binding), rings: make(map[string]*ringEntry)}
}

// fold offers v to the name service's folders in recovery's order.
func (st *state) fold(v xrep.Value) (bool, error) {
	if mine, err := st.foldRing(v); mine || err != nil {
		return mine, err
	}
	return st.foldBinding(v)
}

func unmarshal(t testing.TB, data []byte) xrep.Value {
	t.Helper()
	v, err := wire.UnmarshalValue(data)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFoldersRefuseMalformedRecords: a binding or ring record with a field
// of the wrong kind, a field missing or surplus, or an unknown kind is an
// error that changes nothing — the parent replayed it as zero values (a
// binding for "" at the zero port, a ring entry named "").
func TestFoldersRefuseMalformedRecords(t *testing.T) {
	port := xrep.PortName{Node: "n", Guardian: 2, Port: 1}
	owner := guardian.Principal{Node: "n", Guardian: 2}
	good := []xrep.Value{
		unmarshal(t, record("bind", "svc", port, 3, owner, "")),
		unmarshal(t, record("bind", "svc", port, 3, owner, "key")),
		unmarshal(t, record("drop", "svc", xrep.PortName{}, 0, owner, "")),
		unmarshal(t, ringRecord("stage", "accounts", 2, "blob")),
		unmarshal(t, ringRecord("commit", "accounts", 2, "blob")),
	}
	for _, v := range good {
		if mine, err := newState().fold(v); !mine || err != nil {
			t.Fatalf("%s: a well-formed record was refused: %v %v", v, mine, err)
		}
	}
	var bad []xrep.Value
	for _, v := range good {
		fields, name := v, ""
		if rec, isRec := v.(xrep.Rec); isRec {
			fields, name = rec.Fields, rec.Name
		}
		rebuild := func(fs xrep.Seq) xrep.Value {
			if name != "" {
				return xrep.Rec{Name: name, Fields: fs}
			}
			return fs
		}
		fs := fields.(xrep.Seq)
		for i := range fs {
			m := append(xrep.Seq{}, fs...)
			m[i] = xrep.Bool(true)
			bad = append(bad, rebuild(m))
		}
		unknown := append(xrep.Seq{}, fs...)
		unknown[0] = xrep.Str("rebind")
		bad = append(bad, rebuild(unknown), rebuild(fs[:min(len(fs)-1, 5)]), rebuild(append(append(xrep.Seq{}, fs...), xrep.Int(0), xrep.Int(0))))
	}
	bad = append(bad, xrep.Int(1), xrep.Rec{Name: "ns/other", Fields: xrep.Seq{}})
	for _, v := range bad {
		st := newState()
		mine, err := st.fold(v)
		if !mine || err == nil || len(st.bindings) != 0 {
			t.Errorf("%s: mine %v, err %v, %d bindings; want refused", v, mine, err, len(st.bindings))
		}
	}
	if _, err := newState().fold(xrep.Seq{xrep.Int(1), xrep.Str("svc"), port, xrep.Int(1), xrep.Str("n"), xrep.Int(2)}); !errors.Is(err, xrep.ErrMalformed) {
		t.Errorf("an ill-typed field is reported as %v, want ErrMalformed", err)
	}
}

// FuzzNameservRecords feeds hostile bytes to the name service's two
// folders. They must not panic or allocate beyond a bound set by the
// input's length; an accepted record has the kinds record and ringRecord
// write; and the state it produced, written back through those encoders,
// folds to the same state.
func FuzzNameservRecords(f *testing.F) {
	port := xrep.PortName{Node: "n", Guardian: 2, Port: 1}
	owner := guardian.Principal{Node: "n", Guardian: 2}
	f.Add(record("bind", "svc", port, 3, owner, ""))
	f.Add(record("bind", "svc", port, 3, owner, "key"))
	f.Add(record("drop", "svc", xrep.PortName{}, 0, owner, ""))
	f.Add(ringRecord("stage", "accounts", 2, "blob"))
	f.Add(ringRecord("commit", "accounts", 2, "blob"))
	for _, v := range []xrep.Value{
		xrep.Seq{xrep.Str("bind"), xrep.Int(1), port, xrep.Int(1), xrep.Str("n"), xrep.Int(2)},
		xrep.Seq{xrep.Str("bind"), xrep.Str("svc"), xrep.Str("port"), xrep.Int(1), xrep.Str("n"), xrep.Int(2)},
		xrep.Rec{Name: ringLogRec, Fields: xrep.Seq{xrep.Str("commit"), xrep.Str("accounts"), xrep.Str("2"), xrep.Str("blob")}},
		xrep.Rec{Name: ringLogRec, Fields: xrep.Seq{xrep.Str("commit")}},
	} {
		b, err := wire.MarshalValue(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := wire.UnmarshalValue(data)
		if err != nil {
			return
		}
		st := newState()
		_, foldErr := st.fold(v)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10+256*uint64(len(data)) {
			t.Fatalf("folding %d bytes allocated %d", len(data), n)
		}
		if foldErr != nil {
			if len(st.bindings) != 0 {
				t.Fatal("a refused record left a binding")
			}
			return
		}
		again := newState()
		for name, b := range st.bindings {
			if _, err := again.fold(unmarshal(t, record("bind", name, b.port, b.version, b.owner, b.key))); err != nil {
				t.Fatal(err)
			}
		}
		for name, e := range st.rings {
			if e.pendingEpoch != 0 || e.pending != "" {
				if _, err := again.fold(unmarshal(t, ringRecord("stage", name, e.pendingEpoch, e.pending))); err != nil {
					t.Fatal(err)
				}
			} else if _, err := again.fold(unmarshal(t, ringRecord("commit", name, e.committedEpoch, e.committed))); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(st.bindings, again.bindings) || !reflect.DeepEqual(st.rings, again.rings) {
			t.Fatalf("the state an accepted record produced does not survive encode → fold")
		}
	})
}
