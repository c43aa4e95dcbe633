package ring

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/wire"
	"repro/internal/xrep"
)

// ringValue builds a ring/ring record by hand, so a test can put in it what
// Value never would.
func ringValue(name xrep.Value, epoch, vnodes xrep.Value, members ...xrep.Value) xrep.Value {
	return xrep.Rec{Name: ringRec, Fields: xrep.Seq{name, epoch, vnodes, xrep.Seq(members)}}
}

func memberValue(name string) xrep.Value {
	m := member(name)
	return xrep.Seq{xrep.Str(m.Name), m.Amo, m.Native}
}

// TestFromValueBounds: a ring arrives from other guardians (ring_update,
// handoff_pull, migrate_cut, the nameserver's blob), and its point table
// is len(Members) × VNodes entries built from a few input bytes. VNodes
// outside 1..MaxVNodes, more than MaxMembers members, a member named twice
// and any ill-typed field are refused; the parent accepted a negative
// VNodes as a ring that owns nothing and allocated whatever a large one
// asked for.
func TestFromValueBounds(t *testing.T) {
	many := make([]xrep.Value, MaxMembers+1)
	for i := range many {
		many[i] = memberValue("s" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260)))
	}
	name, epoch, vnodes := xrep.Str("accounts"), xrep.Int(3), xrep.Int(DefaultVNodes)
	for _, tc := range []struct {
		what string
		v    xrep.Value
		ok   bool
	}{
		{"two members", ringValue(name, epoch, vnodes, memberValue("s1"), memberValue("s2")), true},
		{"no members", ringValue(name, epoch, vnodes), true},
		{"one vnode", ringValue(name, epoch, xrep.Int(1), memberValue("s1")), true},
		{"MaxVNodes", ringValue(name, epoch, xrep.Int(MaxVNodes), memberValue("s1")), true},
		{"MaxMembers", ringValue(name, epoch, xrep.Int(1), many[:MaxMembers]...), true},
		{"zero vnodes", ringValue(name, epoch, xrep.Int(0), memberValue("s1")), false},
		{"negative vnodes", ringValue(name, epoch, xrep.Int(-1), memberValue("s1")), false},
		{"MaxVNodes+1", ringValue(name, epoch, xrep.Int(MaxVNodes+1), memberValue("s1")), false},
		{"a billion vnodes", ringValue(name, epoch, xrep.Int(1<<30), memberValue("s1")), false},
		{"MaxMembers+1", ringValue(name, epoch, xrep.Int(1), many...), false},
		{"member twice", ringValue(name, epoch, vnodes, memberValue("s1"), memberValue("s2"), memberValue("s1")), false},
		{"name not a string", ringValue(xrep.Int(1), epoch, vnodes), false},
		{"epoch not an int", ringValue(name, xrep.Str("3"), vnodes), false},
		{"vnodes not an int", ringValue(name, epoch, xrep.Str("64")), false},
		{"members not a seq", xrep.Rec{Name: ringRec, Fields: xrep.Seq{name, epoch, vnodes, xrep.Int(0)}}, false},
		{"member not a triple", ringValue(name, epoch, vnodes, xrep.Seq{xrep.Str("s1")}), false},
		{"member port not a port", ringValue(name, epoch, vnodes, xrep.Seq{xrep.Str("s1"), xrep.Str("p"), xrep.Str("q")}), false},
		{"three fields", xrep.Rec{Name: ringRec, Fields: xrep.Seq{name, epoch, vnodes}}, false},
		{"five fields", xrep.Rec{Name: ringRec, Fields: xrep.Seq{name, epoch, vnodes, xrep.Seq{}, xrep.Int(0)}}, false},
		{"another record", xrep.Rec{Name: "ring/other", Fields: xrep.Seq{name, epoch, vnodes, xrep.Seq{}}}, false},
		{"not a record", xrep.Seq{name, epoch, vnodes, xrep.Seq{}}, false},
	} {
		r, err := FromValue(tc.v)
		if tc.ok != (err == nil) {
			t.Errorf("%s: FromValue = %v, %v", tc.what, r, err)
		}
		if err == nil && len(r.points) != len(r.Members)*r.VNodes {
			t.Errorf("%s: %d points for %d members × %d vnodes", tc.what, len(r.points), len(r.Members), r.VNodes)
		}
		if err != nil && r != nil {
			t.Errorf("%s: a refused value still produced a ring", tc.what)
		}
	}
	if _, err := FromValue(ringValue(xrep.Int(1), epoch, vnodes)); !errors.Is(err, xrep.ErrMalformed) {
		t.Errorf("an ill-typed field is reported as %v, want ErrMalformed", err)
	}
}

// FuzzRingUnmarshal feeds hostile bytes to the one ring decoder. It must
// not panic, must not allocate beyond a bound set by the input's length
// (every member costs input bytes and at most MaxVNodes points), must
// refuse a ring outside the bounds, and what Marshal writes from an
// accepted ring must read back equal.
func FuzzRingUnmarshal(f *testing.F) {
	f.Add(New("accounts", 0, member("s1"), member("s2"), member("s3")).Marshal())
	f.Add(New("a", 1).Marshal())
	for _, v := range []xrep.Value{
		ringValue(xrep.Str("accounts"), xrep.Int(1), xrep.Int(1<<30), memberValue("s1")),
		ringValue(xrep.Str("accounts"), xrep.Int(1), xrep.Int(-4), memberValue("s1")),
		ringValue(xrep.Str("accounts"), xrep.Int(1), xrep.Int(8), memberValue("s1"), memberValue("s1")),
		ringValue(xrep.Int(0), xrep.Int(1), xrep.Int(8)),
		ringValue(xrep.Str("accounts"), xrep.Int(1), xrep.Int(8), xrep.Seq{xrep.Str("s1"), xrep.Int(1), xrep.Int(2)}),
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
		r, err := Unmarshal(data)
		runtime.ReadMemStats(&after)
		// A point is 16 bytes; append's growth and the sort double that.
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10+uint64(len(data))*MaxVNodes*8 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		if r.VNodes < 1 || r.VNodes > MaxVNodes || len(r.Members) > MaxMembers || len(r.points) != len(r.Members)*r.VNodes {
			t.Fatalf("accepted a ring of %d members × %d vnodes (%d points)", len(r.Members), r.VNodes, len(r.points))
		}
		for i := 1; i < len(r.Members); i++ {
			if r.Members[i-1].Name == r.Members[i].Name {
				t.Fatalf("accepted member %q twice", r.Members[i].Name)
			}
		}
		again, err := Unmarshal(r.Marshal())
		if err != nil || !reflect.DeepEqual(r, again) {
			t.Fatalf("an accepted ring does not survive Marshal → Unmarshal: %v", err)
		}
	})
}
