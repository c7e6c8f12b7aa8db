package value

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genValue draws a random value of a random kind.
func genValue(rnd *rand.Rand) Value {
	switch rnd.Intn(5) {
	case 0:
		b := make([]byte, rnd.Intn(12))
		rnd.Read(b)
		return Str(string(b))
	case 1:
		return Int(rnd.Int63() - rnd.Int63())
	case 2:
		return Float(rnd.NormFloat64() * 1e6)
	case 3:
		return Bool(rnd.Intn(2) == 0)
	default:
		b := make([]byte, rnd.Intn(20))
		rnd.Read(b)
		return Blob(b)
	}
}

type qv struct{ V Value }

// Generate implements quick.Generator.
func (qv) Generate(rnd *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(qv{V: genValue(rnd)})
}

func TestValueCodecRoundTrip(t *testing.T) {
	f := func(x qv) bool {
		enc := x.V.Encode(nil)
		dec, rest, err := Decode(enc)
		return err == nil && len(rest) == 0 && dec.Equal(x.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestValueCompareIsTotalOrder(t *testing.T) {
	antisym := func(a, b qv) bool {
		return a.V.Compare(b.V) == -b.V.Compare(a.V)
	}
	if err := quick.Check(antisym, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error("antisymmetry:", err)
	}
	reflexive := func(a qv) bool { return a.V.Compare(a.V) == 0 }
	if err := quick.Check(reflexive, nil); err != nil {
		t.Error("reflexivity:", err)
	}
	consistent := func(a, b qv) bool {
		// Compare == 0 exactly when Equal.
		return (a.V.Compare(b.V) == 0) == a.V.Equal(b.V)
	}
	if err := quick.Check(consistent, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error("equality consistency:", err)
	}
}

func TestValueKeyInjective(t *testing.T) {
	f := func(a, b qv) bool {
		if a.V.Equal(b.V) {
			return a.V.Key() == b.V.Key()
		}
		return a.V.Key() != b.V.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestCloneKeepsKey(t *testing.T) {
	f := func(a, b qv) bool {
		cp, tp := a.V, Tuple{a.V, b.V}
		return cp.Key() == a.V.Key() && tp.Clone().Key() == tp.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleCodecRoundTrip(t *testing.T) {
	f := func(a, b, c qv) bool {
		tp := Tuple{a.V, b.V, c.V}
		enc := tp.Encode(nil)
		dec, rest, err := DecodeTuple(enc)
		return err == nil && len(rest) == 0 && dec.Equal(tp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestTupleKeyInjective(t *testing.T) {
	f := func(a, b, c, d qv) bool {
		t1 := Tuple{a.V, b.V}
		t2 := Tuple{c.V, d.V}
		if t1.Equal(t2) {
			return t1.Key() == t2.Key()
		}
		return t1.Key() != t2.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestTupleKeySeparatesConcatenations(t *testing.T) {
	// ("ab","c") must differ from ("a","bc") — the length prefix prevents
	// ambiguity.
	t1 := Tuple{Str("ab"), Str("c")}
	t2 := Tuple{Str("a"), Str("bc")}
	if t1.Key() == t2.Key() {
		t.Error("tuple keys collide across element boundaries")
	}
}

func TestKindMismatchNotEqual(t *testing.T) {
	cases := []struct{ a, b Value }{
		{Str("1"), Int(1)},
		{Int(1), Float(1)},
		{Bool(true), Str("true")},
		{Str("x"), Blob([]byte("x"))},
	}
	for _, c := range cases {
		if c.a.Equal(c.b) {
			t.Errorf("%v (%v) equals %v (%v)", c.a, c.a.Kind(), c.b, c.b.Kind())
		}
		if c.a.Compare(c.b) == 0 {
			t.Errorf("%v compares equal to %v across kinds", c.a, c.b)
		}
	}
}

func TestFloatEdgeCases(t *testing.T) {
	nan := Float(math.NaN())
	if !nan.Equal(Float(math.NaN())) {
		t.Error("NaN must equal NaN for set semantics")
	}
	if nan.Compare(Float(math.NaN())) != 0 {
		t.Error("NaN must compare equal to NaN")
	}
	inf := Float(math.Inf(1))
	if inf.Compare(Float(1)) <= 0 {
		t.Error("+Inf must sort above finite values")
	}
	enc := nan.Encode(nil)
	dec, _, err := Decode(enc)
	if err != nil || !dec.Equal(nan) {
		t.Error("NaN must round-trip")
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	cases := [][]byte{
		nil,
		{99},                        // unknown kind
		{byte(KindInt), 1, 2},       // short int
		{byte(KindString), 5, 0, 0}, // short length header
		append([]byte{byte(KindString)}, []byte{10, 0, 0, 0, 0, 0, 0, 0, 'a'}...), // payload shorter than length
	}
	for i, b := range cases {
		if _, _, err := Decode(b); err == nil {
			t.Errorf("case %d: corrupt input decoded successfully", i)
		}
	}
	if _, _, err := DecodeTuple([]byte{1, 0}); err == nil {
		t.Error("short tuple header decoded successfully")
	}
	if _, _, err := DecodeTuple([]byte{255, 255, 255, 255}); err == nil {
		t.Error("absurd tuple length decoded successfully")
	}
}

func TestLiteralRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Str("a b"), `"a b"`},
		{Str(`quote"inside`), `"quote\"inside"`},
		{Int(-42), "-42"},
		{Float(1.5), "1.5"},
		{Float(2), "2.0"}, // float marker preserved
		{Bool(true), "true"},
		{Blob([]byte{0xCA, 0xFE}), "0xcafe"},
	}
	for _, c := range cases {
		if got := c.v.Literal(); got != c.want {
			t.Errorf("Literal(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	if got := Str("hello").String(); got != "hello" {
		t.Errorf("Str.String() = %q", got)
	}
	if got := Blob(make([]byte, 100)).String(); got != "blob(100B)" {
		t.Errorf("large blob renders as %q", got)
	}
	if got := (Tuple{Int(1), Str("x")}).String(); got != "(1, x)" {
		t.Errorf("tuple renders as %q", got)
	}
}

func TestSortTuples(t *testing.T) {
	ts := []Tuple{
		{Str("b")}, {Str("a")}, {Int(1)}, {Str("a"), Str("x")},
	}
	SortTuples(ts)
	for i := 1; i < len(ts); i++ {
		if ts[i-1].Compare(ts[i]) > 0 {
			t.Fatalf("not sorted at %d: %v > %v", i, ts[i-1], ts[i])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := Tuple{Str("a"), Int(1)}
	cl := orig.Clone()
	cl[0] = Str("mutated")
	if orig[0].StringVal() != "a" {
		t.Error("Clone shares backing storage")
	}
	if Tuple(nil).Clone() != nil {
		t.Error("nil tuple clone must be nil")
	}
}

func TestBlobValCopies(t *testing.T) {
	b := []byte{1, 2, 3}
	v := Blob(b)
	b[0] = 99
	if v.BlobVal()[0] != 1 {
		t.Error("Blob aliases caller's slice")
	}
	out := v.BlobVal()
	out[1] = 77
	if v.BlobVal()[1] != 2 {
		t.Error("BlobVal exposes internal storage")
	}
}
