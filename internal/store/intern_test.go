package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/value"
)

// internedPair builds two relations over the same schema, one interned and
// one plain, for equivalence testing.
func internedPair(name string) (interned, plain *Relation, in *value.Interner) {
	in = value.NewInterner()
	interned = NewRelation(schema2(name))
	interned.SetInterner(in)
	plain = NewRelation(schema2(name))
	return interned, plain, in
}

// TestInternedRelationEquivalence: an interned relation is observationally
// identical to a plain one under the same mutation sequence — contents,
// digest, fingerprint, Merkle root, lookups.
func TestInternedRelationEquivalence(t *testing.T) {
	ir, pr, _ := internedPair("r")
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 500; i++ {
		tpl := tup(fmt.Sprintf("k%d", rng.Intn(40)), fmt.Sprintf("v%d", rng.Intn(10)))
		if rng.Intn(3) == 0 {
			if ir.Delete(tpl) != pr.Delete(tpl) {
				t.Fatalf("step %d: Delete(%v) disagreed", i, tpl)
			}
		} else {
			if ir.Insert(tpl) != pr.Insert(tpl) {
				t.Fatalf("step %d: Insert(%v) disagreed", i, tpl)
			}
		}
	}
	if ir.Len() != pr.Len() {
		t.Fatalf("Len %d != %d", ir.Len(), pr.Len())
	}
	if ir.Digest() != pr.Digest() {
		t.Fatalf("Digest %+v != %+v", ir.Digest(), pr.Digest())
	}
	if ir.Fingerprint() != pr.Fingerprint() {
		t.Fatalf("Fingerprint %x != %x", ir.Fingerprint(), pr.Fingerprint())
	}
	if im, pm := merkleOf(ir).Root(), merkleOf(pr).Root(); im != pm {
		t.Fatalf("Merkle root %+v != %+v", im, pm)
	}
	if got, want := sortedKeys(ir), sortedKeys(pr); !equalStrings(got, want) {
		t.Fatalf("contents diverged:\n%v\nvs\n%v", got, want)
	}
}

// TestInternedIndexMatchesScan: Probe through an index over interned
// tuples returns exactly what a full scan returns — the index≡scan
// invariant must survive tuples whose backing arrays are shared.
func TestInternedIndexMatchesScan(t *testing.T) {
	ir, _, _ := internedPair("r")
	rng := rand.New(rand.NewSource(78))
	for i := 0; i < 300; i++ {
		ir.Insert(tup(fmt.Sprintf("k%d", rng.Intn(20)), fmt.Sprintf("v%d", i)))
	}
	mask := MaskOf(0)
	ir.EnsureIndex(mask)
	for k := 0; k < 20; k++ {
		bound := []value.Value{value.Str(fmt.Sprintf("k%d", k))}
		diffMultiset(t, fmt.Sprintf("k%d", k), scanMatches(ir, mask, bound), probeMatches(ir, mask, bound))
	}
}

// TestInternedDigestHistoryIndependence: two interned relations reaching the
// same contents by different mutation histories — and sharing one intern
// table — agree on Digest, Fingerprint, and Merkle root.
func TestInternedDigestHistoryIndependence(t *testing.T) {
	in := value.NewInterner()
	a := NewRelation(schema2("r"))
	a.SetInterner(in)
	b := NewRelation(schema2("r"))
	b.SetInterner(in)

	// a: insert 0..19 ascending. b: insert 19..0 descending with detours.
	for i := 0; i < 20; i++ {
		a.Insert(tup(fmt.Sprintf("k%02d", i), "v"))
	}
	for i := 19; i >= 0; i-- {
		b.Insert(tup("detour", fmt.Sprintf("d%d", i)))
		b.Insert(tup(fmt.Sprintf("k%02d", i), "v"))
	}
	for i := 19; i >= 0; i-- {
		b.Delete(tup("detour", fmt.Sprintf("d%d", i)))
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("history-dependent digest: %+v vs %+v", a.Digest(), b.Digest())
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("history-dependent fingerprint: %x vs %x", a.Fingerprint(), b.Fingerprint())
	}
	if am, bm := merkleOf(a).Root(), merkleOf(b).Root(); am != bm {
		t.Fatalf("history-dependent Merkle root: %+v vs %+v", am, bm)
	}
}

// TestInternedTuplesShared: two relations attached to the same interner
// store pointer-identical tuples for equal contents — the property the
// swarm's memory scaling rests on — while a plain relation clones.
func TestInternedTuplesShared(t *testing.T) {
	in := value.NewInterner()
	a := NewRelation(schema2("a"))
	a.SetInterner(in)
	b := NewRelation(schema2("b"))
	b.SetInterner(in)
	src := tup("shared", "fact")
	a.Insert(src)
	b.Insert(src.Clone())
	ta, tb := a.Tuples()[0], b.Tuples()[0]
	if &ta[0] != &tb[0] {
		t.Fatal("equal tuples in sibling interned relations do not share backing")
	}
	if &ta[0] == &src[0] {
		t.Fatal("relation aliased the caller's tuple instead of the canonical instance")
	}

	// InsertMany goes through the same choke point.
	c := NewRelation(schema2("c"))
	c.SetInterner(in)
	c.InsertMany([]value.Tuple{tup("shared", "fact")})
	if tc := c.Tuples()[0]; &tc[0] != &ta[0] {
		t.Fatal("InsertMany bypassed the intern table")
	}

	plain := NewRelation(schema2("p"))
	plain.Insert(src)
	if tp := plain.Tuples()[0]; &tp[0] == &src[0] {
		t.Fatal("plain relation aliased the caller's tuple — clone contract broken")
	}
}

// TestStoreInternerWiring: Store.SetInterner propagates to relations
// declared both before and after the call.
func TestStoreInternerWiring(t *testing.T) {
	in := value.NewInterner()
	s := New()
	before, err := s.Declare(schema2("before"))
	if err != nil {
		t.Fatal(err)
	}
	s.SetInterner(in)
	after, err := s.Declare(schema2("after"))
	if err != nil {
		t.Fatal(err)
	}
	before.Insert(tup("x", "y"))
	after.Insert(tup("x", "y"))
	tb, ta := before.Tuples()[0], after.Tuples()[0]
	if &tb[0] != &ta[0] {
		t.Fatal("relations of one store do not share canonical tuples")
	}
	if in.Stats().Tuples == 0 {
		t.Fatal("intern table empty after interned inserts")
	}
}

func sortedKeys(r *Relation) []string {
	var keys []string
	r.Iterate(func(t value.Tuple) bool {
		keys = append(keys, t.Key())
		return true
	})
	sort.Strings(keys)
	return keys
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
