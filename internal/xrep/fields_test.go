package xrep

import (
	"errors"
	"strings"
	"testing"
)

// readAll takes one field of every kind the reader hands out, in the
// order wellFormed lays them out.
func readAll(f *Fields) (string, int64, bool, float64, []byte, Seq, PortName, Value) {
	return f.Str(), f.Int(), f.Bool(), f.Real(), f.Bytes(), f.Seq(), f.Port(), f.Value()
}

func wellFormed() Seq {
	return Seq{Str("s"), Int(-7), Bool(true), Real(1.5), Bytes{1, 2}, Seq{Int(1)},
		PortName{Node: "n", Guardian: 2, Port: 3}, Null{}}
}

func TestFieldsReadsEveryKind(t *testing.T) {
	for _, open := range []func() Fields{
		func() Fields { return ReadFields(wellFormed(), 8) },
		func() Fields { return ReadSeq(wellFormed(), 8) },
		func() Fields { return ReadRec(Rec{Name: "t/rec", Fields: wellFormed()}, "t/rec", 8) },
	} {
		f := open()
		s, n, b, r, by, seq, p, v := readAll(&f)
		if err := f.Err(); err != nil {
			t.Fatalf("well-formed value refused: %v", err)
		}
		if s != "s" || n != -7 || !b || r != 1.5 || len(by) != 2 || len(seq) != 1 || p.Port != 3 || v != (Null{}) {
			t.Errorf("read %q %d %v %v %v %v %v %v", s, n, b, r, by, seq, p, v)
		}
		if f.More() {
			t.Error("More after the last field")
		}
	}
}

func TestFieldsRefusals(t *testing.T) {
	rec := func(name string, fs ...Value) Value { return Rec{Name: name, Fields: fs} }
	cases := []struct {
		name string
		open func() Fields
		read func(f *Fields)
		want string // substring of the error
	}{
		{"not a seq", func() Fields { return ReadSeq(Int(1), 0) }, nil, "a int where seq is wanted"},
		{"nil value", func() Fields { return ReadSeq(nil, 0) }, nil, "a null where seq is wanted"},
		{"not a rec", func() Fields { return ReadRec(Seq{}, "t/rec", 0) }, nil, "a seq where t/rec is wanted"},
		{"another rec", func() Fields { return ReadRec(rec("t/other"), "t/rec", 0) }, nil, "a rec where t/rec is wanted"},
		{"arity short at open", func() Fields { return ReadSeq(Seq{Int(1)}, 2) }, nil, "seq has 1 fields, wants 2"},
		{"arity short at read", func() Fields { return ReadRec(rec("t/rec", Int(1)), "t/rec", 1) },
			func(f *Fields) { f.Int(); f.Int() }, "t/rec has 1 fields, wants 2"},
		{"arity long", func() Fields { return ReadSeq(Seq{Int(1), Int(2)}, 1) },
			func(f *Fields) { f.Int() }, "seq has 2 fields, 1 read"},
		{"nil field", func() Fields { return ReadSeq(Seq{nil}, 1) },
			func(f *Fields) { f.Str() }, "field 0 is a null, not a string"},
		{"sticky first error", func() Fields { return ReadSeq(Seq{Int(1), Int(2), Str("x")}, 3) },
			func(f *Fields) { f.Int(); f.Str(); f.Int(); f.Bool() }, "field 1 is a int, not a string"},
	}
	// Every kind of field read as every other kind.
	kinds := wellFormed()[:7]
	reads := []func(f *Fields){
		func(f *Fields) { f.Str() }, func(f *Fields) { f.Int() }, func(f *Fields) { f.Bool() },
		func(f *Fields) { f.Real() }, func(f *Fields) { f.Bytes() }, func(f *Fields) { f.Seq() },
		func(f *Fields) { f.Port() },
	}
	for i, v := range kinds {
		for j, read := range reads {
			if i == j {
				continue
			}
			v, read := v, read
			cases = append(cases, struct {
				name string
				open func() Fields
				read func(f *Fields)
				want string
			}{v.Kind().String() + " as " + kinds[j].Kind().String(),
				func() Fields { return ReadSeq(Seq{v}, 1) }, read,
				"field 0 is a " + v.Kind().String() + ", not a " + kinds[j].Kind().String()})
		}
	}
	for _, tc := range cases {
		f := tc.open()
		if tc.read != nil {
			tc.read(&f)
		}
		err := f.Err()
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Err = %v, want ErrMalformed mentioning %q", tc.name, err, tc.want)
		}
		// After a failure every read is a zero value and nothing remains.
		if s, n, b, r, by, seq, p, v := readAll(&f); s != "" || n != 0 || b || r != 0 || by != nil || seq != nil || !p.IsZero() || v != nil || f.More() || f.Rest() != nil {
			t.Errorf("%s: reads after the failure are not zero", tc.name)
		}
		if again := f.Err(); again.Error() != err.Error() {
			t.Errorf("%s: the error moved: %v then %v", tc.name, err, again)
		}
	}
}

func TestFieldsOptionalTail(t *testing.T) {
	f := ReadSeq(Seq{Int(1), Str("opt")}, 1)
	if f.Int() != 1 || !f.More() || f.Str() != "opt" || f.More() || f.Err() != nil {
		t.Errorf("optional trailing field not read: %v", f.Err())
	}
	f = ReadSeq(Seq{Int(1), Str("x"), Str("y")}, 1)
	if f.Int(); len(f.Rest()) != 2 || f.Err() != nil {
		t.Errorf("Rest did not take the surplus: %v", f.Err())
	}
	if RecName(Rec{Name: "t/rec"}) != "t/rec" || RecName(Seq{}) != "" || RecName(nil) != "" {
		t.Error("RecName")
	}
}

// TestFieldsAllocateNothing: opening a reader, reading a value it accepts
// and asking Err allocates nothing.
func TestFieldsAllocateNothing(t *testing.T) {
	var good Value = Rec{Name: "t/rec", Fields: wellFormed()}
	args := wellFormed()
	var sink int
	if n := testing.AllocsPerRun(200, func() {
		f := ReadRec(good, "t/rec", 8)
		s, i, _, _, by, seq, p, _ := readAll(&f)
		if f.Err() == nil {
			sink += len(s) + int(i) + len(by) + len(seq) + int(p.Port)
		}
		a := ReadFields(args, 1)
		sink += len(a.Str()) + len(a.Rest())
		if a.Err() != nil {
			sink++
		}
	}); n != 0 {
		t.Errorf("reading allocates %v times a run, want 0", n)
	}
	_ = sink
}
