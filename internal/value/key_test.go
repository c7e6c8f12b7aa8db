package value

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// keyKinds holds a value of every kind, with the edge cases of each: empty
// and non-empty payloads, both bools, signed zeros, NaN and the infinities.
var keyKinds = []Value{
	Str(""), Str("a"), Str("héllo, world"),
	Blob(nil), Blob([]byte{0, 255, 7}),
	Bool(false), Bool(true),
	Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
	Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()),
	Float(math.Inf(1)), Float(math.Inf(-1)), Float(2.5),
	{},
}

func TestKeyLenMatchesAppendKey(t *testing.T) {
	for _, v := range keyKinds {
		if got, want := v.KeyLen(), len(v.AppendKey(nil)); got != want {
			t.Errorf("%s %v: KeyLen %d, len(AppendKey) %d", v.Kind(), v, got, want)
		}
		var sb strings.Builder
		v.WriteKey(&sb)
		if sb.String() != string(v.AppendKey(nil)) {
			t.Errorf("%s %v: WriteKey %x, AppendKey %x", v.Kind(), v, sb.String(), v.AppendKey(nil))
		}
	}
	f := func(a qv) bool { return a.V.KeyLen() == len(a.V.AppendKey(nil)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestTupleKeyOneAllocation pins Tuple.Key to one exact-size allocation
// holding the concatenation of its values' canonical keys.
func TestTupleKeyOneAllocation(t *testing.T) {
	for _, tp := range []Tuple{
		{Int(1), Int(2)},
		{Str("picture"), Int(7), Bool(true)},
		keyKinds,
	} {
		var want []byte
		for _, v := range tp {
			want = v.AppendKey(want)
		}
		if got := tp.Key(); got != string(want) {
			t.Errorf("%v: Key %x, want %x", tp, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = tp.Key() }); n != 1 {
			t.Errorf("%v: Key makes %v allocations, want 1", tp, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = Tuple{}.Key() }); n != 0 {
		t.Errorf("empty tuple: Key makes %v allocations, want 0", n)
	}
}
