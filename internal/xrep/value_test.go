package xrep

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindInt: "int", KindReal: "real",
		KindString: "string", KindBytes: "bytes", KindSeq: "seq", KindRec: "rec",
		KindPortName: "portname", KindToken: "token", Kind(200): "kind(200)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		want Kind
	}{
		{Null{}, KindNull},
		{Bool(true), KindBool},
		{Int(7), KindInt},
		{Real(3.5), KindReal},
		{Str("x"), KindString},
		{Bytes{1}, KindBytes},
		{Seq{Int(1)}, KindSeq},
		{Rec{Name: "t"}, KindRec},
		{PortName{Node: "n"}, KindPortName},
		{Token{Issuer: 1}, KindToken},
	}
	for _, c := range cases {
		if got := c.v.Kind(); got != c.want {
			t.Errorf("%v.Kind() = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestSeqString(t *testing.T) {
	s := Seq{Int(1), Str("a"), nil}
	if got := s.String(); got != `[1, "a", <nil>]` {
		t.Errorf("Seq.String() = %q", got)
	}
}

func TestPortNameIsZero(t *testing.T) {
	if !(PortName{}).IsZero() {
		t.Error("zero PortName.IsZero() = false")
	}
	if (PortName{Node: "n"}).IsZero() {
		t.Error("nonzero PortName.IsZero() = true")
	}
}

func TestEqualBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Real(1), false},
		{Str("a"), Str("a"), true},
		{Bytes{1, 2}, Bytes{1, 2}, true},
		{Bytes{1, 2}, Bytes{1, 3}, false},
		{Null{}, Null{}, true},
		{nil, nil, true},
		{Int(1), nil, false},
		{Seq{Int(1), Str("x")}, Seq{Int(1), Str("x")}, true},
		{Seq{Int(1)}, Seq{Int(1), Int(2)}, false},
		{Rec{Name: "t", Fields: Seq{Int(1)}}, Rec{Name: "t", Fields: Seq{Int(1)}}, true},
		{Rec{Name: "t"}, Rec{Name: "u"}, false},
		{PortName{Node: "n", Guardian: 1, Port: 2}, PortName{Node: "n", Guardian: 1, Port: 2}, true},
		{Token{Issuer: 1, Body: []byte{1}, Seal: []byte{2}}, Token{Issuer: 1, Body: []byte{1}, Seal: []byte{2}}, true},
		{Token{Issuer: 1, Body: []byte{1}}, Token{Issuer: 2, Body: []byte{1}}, false},
	}
	for _, c := range cases {
		if got := Equal(c.a, c.b); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// genValue builds a random value tree of bounded depth for property tests.
func genValue(r *rand.Rand, depth int) Value {
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return Int(r.Int63n(1000) - 500)
		case 1:
			return Str(strings.Repeat("x", r.Intn(8)))
		case 2:
			return Bool(r.Intn(2) == 0)
		case 3:
			return Real(r.Float64())
		default:
			return Null{}
		}
	}
	switch r.Intn(7) {
	case 0:
		n := r.Intn(4)
		s := make(Seq, n)
		for i := range s {
			s[i] = genValue(r, depth-1)
		}
		return s
	case 1:
		n := r.Intn(3)
		f := make(Seq, n)
		for i := range f {
			f[i] = genValue(r, depth-1)
		}
		return Rec{Name: "t" + string(rune('a'+r.Intn(3))), Fields: f}
	default:
		return genValue(r, 0)
	}
}

func TestEqualReflexiveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		v := genValue(r, 3)
		if !Equal(v, v) {
			t.Fatalf("Equal(v, v) = false for %v", v)
		}
	}
}

func TestEqualSymmetricProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a, b := genValue(r, 3), genValue(r, 3)
		if Equal(a, b) != Equal(b, a) {
			t.Fatalf("Equal not symmetric for %v / %v", a, b)
		}
	}
}

func TestSizePositiveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		v := genValue(r, 3)
		if Size(v) <= 0 {
			t.Fatalf("Size(%v) = %d, want > 0", v, Size(v))
		}
	}
}

func TestLimitsIntRange(t *testing.T) {
	l := Limits{IntBits: 24}
	min, max := l.IntRange()
	if min != -8388608 || max != 8388607 {
		t.Fatalf("24-bit range = [%d, %d], want [-8388608, 8388607]", min, max)
	}
	if err := l.CheckInt(8388607); err != nil {
		t.Errorf("max legal int rejected: %v", err)
	}
	if err := l.CheckInt(8388608); err == nil {
		t.Error("out-of-range int accepted")
	}
	if err := l.CheckInt(-8388608); err != nil {
		t.Errorf("min legal int rejected: %v", err)
	}
	if err := l.CheckInt(-8388609); err == nil {
		t.Error("out-of-range negative int accepted")
	}
}

func TestLimitsFullWidthDefault(t *testing.T) {
	var l Limits
	min, max := l.IntRange()
	if min != -1<<63 || max != 1<<63-1 {
		t.Fatalf("default range = [%d, %d], want full int64", min, max)
	}
}

func TestPaper24BitLimitsMatchExample(t *testing.T) {
	// "If 24 bit integers were the system standard, then all nodes must
	// support them" — an int legal under 24 bits passes, a wider one fails.
	if err := Paper24BitLimits.Validate(Int(1 << 20)); err != nil {
		t.Errorf("2^20 rejected under 24-bit standard: %v", err)
	}
	if err := Paper24BitLimits.Validate(Int(1 << 30)); err == nil {
		t.Error("2^30 accepted under 24-bit standard")
	}
}

func TestLimitsValidateRecursive(t *testing.T) {
	l := Limits{IntBits: 8}
	bad := Seq{Int(1), Rec{Name: "t", Fields: Seq{Int(300)}}}
	if err := l.Validate(bad); err == nil {
		t.Error("nested out-of-range int accepted")
	}
	good := Seq{Int(1), Rec{Name: "t", Fields: Seq{Int(100)}}}
	if err := l.Validate(good); err != nil {
		t.Errorf("legal nested value rejected: %v", err)
	}
}

func TestLimitsStringAndSeqBounds(t *testing.T) {
	l := Limits{MaxStringLen: 3, MaxSeqLen: 2}
	if err := l.Validate(Str("abcd")); err == nil {
		t.Error("overlong string accepted")
	}
	if err := l.Validate(Bytes{1, 2, 3, 4}); err == nil {
		t.Error("overlong bytes accepted")
	}
	if err := l.Validate(Seq{Int(1), Int(2), Int(3)}); err == nil {
		t.Error("overlong seq accepted")
	}
	if err := l.Validate(Seq{Str("abc"), Int(1)}); err != nil {
		t.Errorf("legal value rejected: %v", err)
	}
}

func TestLimitsDepthBound(t *testing.T) {
	l := Limits{MaxDepth: 3}
	v := Value(Int(1))
	for i := 0; i < 10; i++ {
		v = Seq{v}
	}
	if err := l.Validate(v); err == nil {
		t.Error("over-deep value accepted")
	}
	if err := l.Validate(Seq{Seq{Int(1)}}); err != nil {
		t.Errorf("legal depth rejected: %v", err)
	}
}

func TestLimitsNilAndEmptyRec(t *testing.T) {
	var l Limits
	if err := l.Validate(nil); err == nil {
		t.Error("nil value accepted")
	}
	if err := l.Validate(Rec{}); err == nil {
		t.Error("record with empty type name accepted")
	}
	if err := l.Validate(Seq{nil}); err == nil {
		t.Error("seq containing nil accepted")
	}
}

func TestLimitsValidateNeverPanicsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	l := Limits{IntBits: 16, MaxStringLen: 6, MaxSeqLen: 3, MaxDepth: 5}
	for i := 0; i < 1000; i++ {
		_ = l.Validate(genValue(r, 4))
	}
}

// TestValidateSeqIsValidate: the unboxed entry point gives Validate's
// verdict, word for word, and costs a legal argument list no allocation.
func TestValidateSeqIsValidate(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	l := Limits{IntBits: 16, MaxStringLen: 6, MaxSeqLen: 3, MaxDepth: 3}
	verdicts := make(map[bool]int)
	for i := 0; i < 2000; i++ {
		s := Seq{genValue(r, 3), genValue(r, 1)}
		if i%50 == 0 {
			s = append(s, s...)
		}
		want, got := l.Validate(s), l.ValidateSeq(s)
		if (want == nil) != (got == nil) || (want != nil && want.Error() != got.Error()) {
			t.Fatalf("%v: ValidateSeq says %v, Validate says %v", s, got, want)
		}
		verdicts[got == nil]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("the generator produced only one verdict: %v", verdicts)
	}
	args := Seq{Int(22), Str("p-100432"), Rec{Name: "date", Fields: Seq{Int(1979), Int(12), Int(10)}}}
	if n := testing.AllocsPerRun(100, func() { _ = DefaultLimits.ValidateSeq(args) }); n != 0 {
		t.Errorf("validating a legal argument list allocates %v times, want 0", n)
	}
}

func TestCheckIntQuickAgreesWithRange(t *testing.T) {
	l := Limits{IntBits: 20}
	min, max := l.IntRange()
	f := func(v int64) bool {
		err := l.CheckInt(v)
		inRange := v >= min && v <= max
		return (err == nil) == inRange
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeBuiltins(t *testing.T) {
	cases := []struct {
		in   any
		want Value
	}{
		{nil, Null{}},
		{true, Bool(true)},
		{42, Int(42)},
		{int8(-1), Int(-1)},
		{int64(9), Int(9)},
		{uint16(65535), Int(65535)},
		{3.5, Real(3.5)},
		{float32(2), Real(2)},
		{"hi", Str("hi")},
		{[]byte{1, 2}, Bytes{1, 2}},
		{[]any{1, "a"}, Seq{Int(1), Str("a")}},
		{Int(5), Int(5)}, // Values pass through
	}
	for _, c := range cases {
		got, err := Encode(c.in)
		if err != nil {
			t.Errorf("Encode(%v): %v", c.in, err)
			continue
		}
		if !Equal(got, c.want) {
			t.Errorf("Encode(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestEncodeCopiesBytes(t *testing.T) {
	src := []byte{1, 2, 3}
	v, err := Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 99
	if v.(Bytes)[0] != 1 {
		t.Fatal("Encode aliased the caller's byte slice")
	}
}

func TestEncodeRejectsUntransmittable(t *testing.T) {
	type opaque struct{ ch chan int }
	if _, err := Encode(opaque{}); err == nil {
		t.Fatal("Encode accepted an untransmittable type")
	}
	if _, err := Encode(uint64(1)); err == nil {
		t.Fatal("Encode accepted uint64 (cannot bound-check against int64 model)")
	}
}

func TestEncodeAllOrder(t *testing.T) {
	seq, err := EncodeAll(1, "two", 3.0)
	if err != nil {
		t.Fatal(err)
	}
	want := Seq{Int(1), Str("two"), Real(3)}
	if !Equal(seq, want) {
		t.Fatalf("EncodeAll = %v, want %v", seq, want)
	}
}

func TestEncodeAllStopsAtFirstError(t *testing.T) {
	_, err := EncodeAll(1, make(chan int), 3)
	if err == nil {
		t.Fatal("EncodeAll accepted an untransmittable arg")
	}
	if !strings.Contains(err.Error(), "arg 1") {
		t.Fatalf("error %q does not identify the failing argument", err)
	}
}

func TestMustEncodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustEncode did not panic on untransmittable value")
		}
	}()
	MustEncode(make(chan int))
}

func TestRegistryRegisterDecode(t *testing.T) {
	r := NewRegistry()
	if r.Has("complex") {
		t.Fatal("empty registry claims to have complex")
	}
	r.Register(ComplexTypeName, DecodeRectComplex)
	if !r.Has("complex") {
		t.Fatal("registered type not found")
	}
	v := MustEncode(RectComplex{Re: 1, Im: 2})
	got, err := r.Decode(v)
	if err != nil {
		t.Fatal(err)
	}
	if got != (RectComplex{Re: 1, Im: 2}) {
		t.Fatalf("round trip = %v", got)
	}
}

func TestRegistryUnknownType(t *testing.T) {
	r := NewRegistry()
	_, err := r.Decode(Rec{Name: "mystery", Fields: Seq{}})
	if err == nil {
		t.Fatal("Decode of unregistered type succeeded")
	}
	if _, err := r.Decode(Int(1)); err == nil {
		t.Fatal("Decode of non-record succeeded")
	}
}

func TestRegistryTypesSorted(t *testing.T) {
	r := NewRegistry()
	r.Register("zeta", DecodeRectComplex)
	r.Register("alpha", DecodeRectComplex)
	got := r.Types()
	if !reflect.DeepEqual(got, []string{"alpha", "zeta"}) {
		t.Fatalf("Types() = %v", got)
	}
}
