package wire

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrep"
)

func roundTrip(t *testing.T, v xrep.Value) xrep.Value {
	t.Helper()
	b, err := MarshalValue(v)
	if err != nil {
		t.Fatalf("MarshalValue(%v): %v", v, err)
	}
	got, err := UnmarshalValue(b)
	if err != nil {
		t.Fatalf("UnmarshalValue(%v): %v", v, err)
	}
	return got
}

func TestValueRoundTripScalars(t *testing.T) {
	cases := []xrep.Value{
		xrep.Null{},
		xrep.Bool(true),
		xrep.Bool(false),
		xrep.Int(0),
		xrep.Int(1),
		xrep.Int(-1),
		xrep.Int(math.MaxInt64),
		xrep.Int(math.MinInt64),
		xrep.Real(0),
		xrep.Real(3.141592653589793),
		xrep.Real(math.Inf(1)),
		xrep.Str(""),
		xrep.Str("hello, 世界"),
		xrep.Bytes{},
		xrep.Bytes{0, 255, 127},
	}
	for _, v := range cases {
		if got := roundTrip(t, v); !xrep.Equal(got, v) {
			t.Errorf("round trip %v = %v", v, got)
		}
	}
}

func TestValueRoundTripNaN(t *testing.T) {
	b, err := MarshalValue(xrep.Real(math.NaN()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalValue(b)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(got.(xrep.Real))) {
		t.Fatalf("NaN round trip = %v", got)
	}
}

func TestValueRoundTripComposites(t *testing.T) {
	cases := []xrep.Value{
		xrep.Seq{},
		xrep.Seq{xrep.Int(1), xrep.Str("a"), xrep.Seq{xrep.Bool(true)}},
		xrep.Rec{Name: "flight", Fields: xrep.Seq{xrep.Int(22), xrep.Str("BOS")}},
		xrep.Rec{Name: "empty", Fields: xrep.Seq{}},
		xrep.PortName{Node: "node-7", Guardian: 42, Port: 3},
		xrep.PortName{},
		xrep.Token{Issuer: 9, Body: []byte("obj#4"), Seal: []byte{1, 2, 3, 4}},
		xrep.Token{Issuer: 0},
	}
	for _, v := range cases {
		if got := roundTrip(t, v); !xrep.Equal(got, v) {
			t.Errorf("round trip %v = %v", v, got)
		}
	}
}

func TestValueRoundTripRandomProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		v := genValue(r, 4)
		if got := roundTrip(t, v); !xrep.Equal(got, v) {
			t.Fatalf("iteration %d: %v round-tripped to %v", i, v, got)
		}
	}
}

// genValue mirrors the xrep test generator for codec fuzzing.
func genValue(r *rand.Rand, depth int) xrep.Value {
	if depth <= 0 {
		switch r.Intn(8) {
		case 0:
			return xrep.Int(r.Int63() - r.Int63())
		case 1:
			return xrep.Str(strings.Repeat("s", r.Intn(20)))
		case 2:
			return xrep.Bool(r.Intn(2) == 0)
		case 3:
			return xrep.Real(r.NormFloat64() * 1e6)
		case 4:
			b := make(xrep.Bytes, r.Intn(16))
			r.Read(b)
			return b
		case 5:
			return xrep.PortName{Node: "n" + string(rune('0'+r.Intn(10))), Guardian: r.Uint64() % 1000, Port: r.Uint64() % 100}
		case 6:
			body := make([]byte, r.Intn(8))
			r.Read(body)
			return xrep.Token{Issuer: r.Uint64() % 50, Body: body, Seal: []byte{byte(r.Intn(256))}}
		default:
			return xrep.Null{}
		}
	}
	switch r.Intn(3) {
	case 0:
		n := r.Intn(5)
		s := make(xrep.Seq, n)
		for i := range s {
			s[i] = genValue(r, depth-1)
		}
		return s
	case 1:
		n := r.Intn(4)
		f := make(xrep.Seq, n)
		for i := range f {
			f[i] = genValue(r, depth-1)
		}
		return xrep.Rec{Name: "rec" + string(rune('a'+r.Intn(4))), Fields: f}
	default:
		return genValue(r, 0)
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	full, err := MarshalValue(xrep.Seq{xrep.Int(12345), xrep.Str("truncate me")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(full); i++ {
		if _, err := UnmarshalValue(full[:i]); err == nil {
			t.Fatalf("UnmarshalValue accepted %d-byte prefix of %d-byte value", i, len(full))
		}
	}
}

func TestUnmarshalRejectsTrailingGarbage(t *testing.T) {
	b, err := MarshalValue(xrep.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalValue(append(b, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestUnmarshalRejectsBadTag(t *testing.T) {
	if _, err := UnmarshalValue([]byte{0x7F}); err == nil {
		t.Fatal("unknown tag accepted")
	}
}

func TestUnmarshalRejectsHostileLength(t *testing.T) {
	// A seq claiming 2^40 elements must fail fast, not allocate.
	buf := []byte{tagSeq, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	if _, err := UnmarshalValue(buf); err == nil {
		t.Fatal("hostile length accepted")
	}
	// A string claiming more bytes than remain.
	buf = []byte{tagStr, 0x20, 'a'}
	if _, err := UnmarshalValue(buf); err == nil {
		t.Fatal("oversize string length accepted")
	}
}

func TestUnmarshalRejectsDeepNesting(t *testing.T) {
	var b []byte
	for i := 0; i < maxWireDepth+10; i++ {
		b = append(b, tagSeq, 1)
	}
	b = append(b, tagNull)
	if _, err := UnmarshalValue(b); err == nil {
		t.Fatal("over-deep nesting accepted")
	}
}

func TestDecodedBytesDoNotAliasInput(t *testing.T) {
	b, err := MarshalValue(xrep.Bytes{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	v, err := UnmarshalValue(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xEE
	}
	if !bytes.Equal(v.(xrep.Bytes), []byte{1, 2, 3}) {
		t.Fatal("decoded bytes alias the input buffer")
	}
}

func TestEncodingDeterministic(t *testing.T) {
	v := xrep.Rec{Name: "r", Fields: xrep.Seq{xrep.Int(7), xrep.Str("x")}}
	a, err := MarshalValue(v)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalValue(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same value produced different encodings")
	}
}

// TestAppendVocabularyMatchesAppendValue: each typed append helper writes
// the bytes AppendValue writes for the value it stands for, after whatever
// dst already holds — so an encoder built from the helpers and one that
// builds the tree produce the same record.
func TestAppendVocabularyMatchesAppendValue(t *testing.T) {
	same := func(got []byte, v xrep.Value) bool {
		want, err := AppendValue([]byte("pre"), v)
		return err == nil && bytes.Equal(got, want)
	}
	pre := func() []byte { return []byte("pre") }
	long := strings.Repeat("s", 64<<10)
	for _, s := range []string{"", "ok", "cli/1/1", long} {
		if !same(AppendStr(pre(), s), xrep.Str(s)) {
			t.Errorf("AppendStr(%.10q) differs", s)
		}
		if !same(AppendRecHeader(pre(), s, 0), xrep.Rec{Name: s}) {
			t.Errorf("AppendRecHeader(%.10q, 0) differs", s)
		}
		if p := (xrep.PortName{Node: s, Guardian: 1 << 40, Port: math.MaxUint64}); !same(AppendPortName(pre(), p), p) {
			t.Errorf("AppendPortName(%.10q) differs", s)
		}
	}
	for _, n := range []int64{0, 1, -1, 255, 256, 1 << 32, 1<<32 + 1, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if !same(AppendInt(pre(), n), xrep.Int(n)) {
			t.Errorf("AppendInt(%d) differs", n)
		}
	}
	for _, b := range []bool{false, true} {
		if !same(AppendBool(pre(), b), xrep.Bool(b)) {
			t.Errorf("AppendBool(%v) differs", b)
		}
	}
	prop := func(name, s string, n int64, b bool, g, p uint64) bool {
		port := xrep.PortName{Node: s, Guardian: g, Port: p}
		elems := xrep.Seq{xrep.Str(s), xrep.Int(n), xrep.Bool(b), port}
		// A header followed by exactly the values it promises is the
		// sequence, or the record, of those values.
		body := AppendPortName(AppendBool(AppendInt(AppendStr(nil, s), n), b), port)
		seq, err := AppendSeq(pre(), elems)
		return err == nil && same(seq, elems) &&
			same(append(AppendSeqHeader(pre(), len(elems)), body...), elems) &&
			same(append(AppendRecHeader(pre(), name, len(elems)), body...), xrep.Rec{Name: name, Fields: elems})
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
