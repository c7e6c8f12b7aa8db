package value

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// sameBacking reports whether two non-empty tuples share a backing array —
// the observable form of "these are the one canonical instance".
func sameBacking(a, b Tuple) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestInternTupleIdentity: interning equal tuples yields the same canonical
// instance (pointer-identical backing) and the same key string, and the key
// equals the tuple's own canonical Key().
func TestInternTupleIdentity(t *testing.T) {
	in := NewInterner()
	mk := func() Tuple {
		return NewTuple(Str("alice"), Int(42), Float(3.5), Bool(true), Blob([]byte{0, 1, 2}))
	}
	t1, k1 := in.Tuple(mk())
	t2, k2 := in.Tuple(mk())
	if !sameBacking(t1, t2) {
		t.Fatal("equal tuples interned to distinct instances")
	}
	if k1 != k2 || k1 != mk().Key() {
		t.Fatalf("canonical key mismatch: %q vs %q vs %q", k1, k2, mk().Key())
	}
	if !t1.Equal(mk()) {
		t.Fatalf("canonical tuple %v != original %v", t1, mk())
	}
	// Distinct tuples must not collapse.
	t3, k3 := in.Tuple(NewTuple(Str("bob")))
	if sameBacking(t1, t3) || k3 == k1 {
		t.Fatal("distinct tuples collapsed")
	}
	st := in.Stats()
	if st.Tuples != 2 {
		t.Fatalf("Stats().Tuples = %d, want 2", st.Tuples)
	}
}

// TestInternStringIdentity: String returns one canonical backing for equal
// contents; the empty string is passed through.
func TestInternStringIdentity(t *testing.T) {
	in := NewInterner()
	a := in.String(string([]byte{'h', 'i'}))
	b := in.String(string([]byte{'h', 'i'}))
	if a != b {
		t.Fatal("contents differ")
	}
	// Same backing: interning an equal string must not grow the table.
	if got := in.Stats().Strings; got != 1 {
		t.Fatalf("Stats().Strings = %d, want 1", got)
	}
	if in.String("") != "" {
		t.Fatal("empty string changed")
	}
}

// TestInternNilSafe: a nil *Interner degrades to private copies with correct
// keys — every choke point relies on this to make interning optional.
func TestInternNilSafe(t *testing.T) {
	var in *Interner
	orig := NewTuple(Str("x"), Int(1))
	got, key := in.Tuple(orig)
	if !got.Equal(orig) || key != orig.Key() {
		t.Fatalf("nil interner returned %v/%q", got, key)
	}
	if sameBacking(got, orig) {
		t.Fatal("nil interner aliased the caller's tuple instead of cloning")
	}
	if in.String("s") != "s" || !in.Value(Str("s")).Equal(Str("s")) {
		t.Fatal("nil interner mangled values")
	}
	if st := in.Stats(); st != (InternStats{}) {
		t.Fatalf("nil interner stats = %+v", st)
	}
}

// TestInternKeyRoundTrip: DecodeKey(canonical key) reconstructs the tuple
// exactly, including float bit patterns (NaN, negative zero) that compare
// unequal or equal under ==.
func TestInternKeyRoundTrip(t *testing.T) {
	in := NewInterner()
	cases := []Tuple{
		{},
		NewTuple(Int(0)),
		NewTuple(Int(-1), Int(math.MaxInt64), Int(math.MinInt64)),
		NewTuple(Str(""), Str("a\x00b"), Blob(nil), Blob([]byte("\xff\xfe"))),
		NewTuple(Float(math.NaN()), Float(math.Copysign(0, -1)), Float(math.Inf(1))),
		NewTuple(Bool(true), Bool(false)),
	}
	for i, tc := range cases {
		ct, key := in.Tuple(tc)
		back, err := DecodeKey(key)
		if err != nil {
			t.Fatalf("case %d: DecodeKey: %v", i, err)
		}
		// Compare by re-encoding: bit-exact, unlike Equal under NaN.
		if back.Key() != key {
			t.Fatalf("case %d: round-trip key %x != %x", i, back.Key(), key)
		}
		if len(ct) != len(tc) {
			t.Fatalf("case %d: canonical arity %d != %d", i, len(ct), len(tc))
		}
	}
}

// TestInternConcurrent hammers one interner from many goroutines over a
// shared keyspace: all winners of first-sighting races must agree, so every
// observed canonical instance for a key is pointer-identical. Run with -race.
func TestInternConcurrent(t *testing.T) {
	in := NewInterner()
	const workers, keys = 8, 100
	canon := make([][]Tuple, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			canon[w] = make([]Tuple, keys)
			for k := 0; k < keys; k++ {
				ct, _ := in.Tuple(NewTuple(Str(fmt.Sprintf("key-%03d", k)), Int(int64(k))))
				canon[w][k] = ct
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		for w := 1; w < workers; w++ {
			if !sameBacking(canon[0][k], canon[w][k]) {
				t.Fatalf("key %d: workers 0 and %d hold distinct canonical tuples", k, w)
			}
		}
	}
	if got := in.Stats().Tuples; got != keys {
		t.Fatalf("Stats().Tuples = %d, want %d", got, keys)
	}
}

// FuzzTupleIntern feeds arbitrary bytes through the tuple decoder; whenever
// they parse, the interned canonical tuple must preserve the encoding
// exactly (encode → decode → intern → encode is the identity on keys) and
// interning must be idempotent.
func FuzzTupleIntern(f *testing.F) {
	seedTuples := []Tuple{
		NewTuple(Int(7), Str("seed"), Bool(true)),
		NewTuple(Float(math.NaN()), Blob([]byte{0, 255})),
		{},
	}
	for _, st := range seedTuples {
		f.Add(st.Encode(nil))
	}
	f.Add([]byte{1, 2, 3})
	in := NewInterner()
	f.Fuzz(func(t *testing.T, data []byte) {
		tup, rest, err := DecodeTuple(data)
		if err != nil {
			return // malformed input: rejection is the correct behavior
		}
		_ = rest
		key, n := tup.Key(), 0
		for _, v := range tup {
			if v.KeyLen() != len(v.AppendKey(nil)) {
				t.Fatalf("%s %v: KeyLen %d, len(AppendKey) %d", v.Kind(), v, v.KeyLen(), len(v.AppendKey(nil)))
			}
			n += v.KeyLen()
		}
		if n != len(key) {
			t.Fatalf("KeyLen sums to %d, key is %d bytes", n, len(key))
		}
		ct, ckey := in.Tuple(tup)
		if ckey != key {
			t.Fatalf("canonical key %x != original %x", ckey, key)
		}
		if ct.Key() != key {
			t.Fatalf("canonical tuple re-encodes to %x, want %x", ct.Key(), key)
		}
		back, err := DecodeKey(ckey)
		if err != nil {
			t.Fatalf("DecodeKey on canonical key: %v", err)
		}
		if back.Key() != key {
			t.Fatalf("decode(canonical key) re-encodes to %x, want %x", back.Key(), key)
		}
		ct2, ckey2 := in.Tuple(ct)
		if ckey2 != ckey || (len(ct) > 0 && &ct[0] != &ct2[0]) {
			t.Fatal("interning the canonical tuple is not idempotent")
		}
	})
}
