package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ast"
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

// TestDeleteFromLargeBucket: deleting from a relation whose indexed bucket
// holds many tuples removes exactly the deleted ones from every index — the
// bucket entry is found by identity with the stored tuple, whatever slice
// the caller passes — in a plain relation and in interned ones whose tuples
// another relation also holds.
func TestDeleteFromLargeBucket(t *testing.T) {
	in := value.NewInterner()
	other := NewRelation(schema2("other"))
	other.SetInterner(in)
	interned := NewRelation(schema2("r"))
	interned.SetInterner(in)
	for name, r := range map[string]*Relation{"plain": NewRelation(schema2("r")), "interned": interned} {
		t.Run(name, func(t *testing.T) {
			masks := []ColMask{MaskOf(0), MaskOf(1)}
			for _, m := range masks {
				r.EnsureIndex(m)
			}
			// One hot bucket of 500 tuples under column 0 = "hot", among
			// 2 500 others, so the index stays selective enough to keep.
			for i := 0; i < 500; i++ {
				tp := tup("hot", fmt.Sprintf("v%d", i))
				other.Insert(tp)
				r.Insert(tp)
			}
			for i := 0; i < 2500; i++ {
				r.Insert(tup(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i%50)))
			}
			// Delete every third hot tuple with a freshly built equal tuple,
			// half one at a time and half in one batch.
			var batch []value.Tuple
			for i := 0; i < 500; i += 3 {
				if tp := tup("hot", fmt.Sprintf("v%d", i)); i%2 == 0 {
					if !r.Delete(tp) {
						t.Fatalf("Delete(%v) found nothing", tp)
					}
				} else {
					batch = append(batch, tp)
				}
			}
			if got := r.DeleteMany(batch); len(got) != len(batch) {
				t.Fatalf("DeleteMany removed %d of %d", len(got), len(batch))
			}
			if r.IndexCount() != len(masks) {
				t.Fatalf("%d indexes, want %d", r.IndexCount(), len(masks))
			}
			hot := probeMatches(r, MaskOf(0), []value.Value{value.Str("hot")})
			if len(hot) != 500-167 {
				t.Fatalf("hot bucket holds %d tuples, want %d", len(hot), 500-167)
			}
			for i := 0; i < 500; i++ {
				if kept := hot[tup("hot", fmt.Sprintf("v%d", i)).Key()] == 1; kept != (i%3 != 0) {
					t.Fatalf("hot tuple v%d: kept=%v", i, kept)
				}
			}
			for _, m := range masks {
				for _, k := range []string{"hot", "v0", "v3", "v7", "v499", "k9"} {
					bound := []value.Value{value.Str(k)}
					diffMultiset(t, fmt.Sprintf("mask %b bound %s", m, k), scanMatches(r, m, bound), probeMatches(r, m, bound))
				}
			}
		})
	}
	if other.Len() != 500 {
		t.Errorf("the relation sharing the interned tuples lost some: %d left", other.Len())
	}
	zero := NewRelation(Schema{Name: "z", Peer: "p", Kind: ast.Extensional})
	zero.Insert(value.Tuple{})
	if !zero.Delete(value.Tuple{}) || zero.Len() != 0 {
		t.Error("zero-arity delete failed")
	}
}
