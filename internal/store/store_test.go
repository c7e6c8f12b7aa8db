package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/value"
)

func schema2(name string) Schema {
	return Schema{Name: name, Peer: "p", Kind: ast.Extensional, Cols: []string{"a", "b"}}
}

func tup(vals ...string) value.Tuple {
	out := make(value.Tuple, len(vals))
	for i, v := range vals {
		out[i] = value.Str(v)
	}
	return out
}

func TestInsertDeleteContains(t *testing.T) {
	r := NewRelation(schema2("r"))
	if !r.Insert(tup("a", "b")) {
		t.Error("first insert must report new")
	}
	if r.Insert(tup("a", "b")) {
		t.Error("duplicate insert must report existing")
	}
	if !r.Contains(tup("a", "b")) || r.Len() != 1 {
		t.Error("contents wrong after insert")
	}
	if !r.Delete(tup("a", "b")) {
		t.Error("delete of present tuple must report true")
	}
	if r.Delete(tup("a", "b")) {
		t.Error("delete of absent tuple must report false")
	}
	if r.Len() != 0 {
		t.Error("relation not empty after delete")
	}
}

func TestInsertCopiesTuple(t *testing.T) {
	r := NewRelation(schema2("r"))
	tp := tup("a", "b")
	r.Insert(tp)
	tp[0] = value.Str("mutated")
	if !r.Contains(tup("a", "b")) {
		t.Error("relation aliases caller's tuple")
	}
}

func TestArityMismatchPanics(t *testing.T) {
	r := NewRelation(schema2("r"))
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch must panic (programming error)")
		}
	}()
	r.Insert(tup("only-one"))
}

// TestClearDiffSince: Clear hands back exactly the tuples it dropped, and
// DiffSince against that map reports what a rebuild gained and lost.
func TestClearDiffSince(t *testing.T) {
	r := NewRelation(schema2("r"))
	if old := r.Clear(); old != nil {
		t.Fatalf("Clear of an empty relation handed back %v", old)
	}
	r.InsertMany([]value.Tuple{tup("a", "1"), tup("b", "2"), tup("c", "3")})
	old := r.Clear()
	if len(old) != 3 || r.Len() != 0 {
		t.Fatalf("Clear handed back %d tuples and kept %d, want 3 and 0", len(old), r.Len())
	}
	r.InsertMany([]value.Tuple{tup("b", "2"), tup("d", "4")})
	ins, del := r.DiffSince(old)
	value.SortTuples(ins)
	value.SortTuples(del)
	if fmt.Sprint(ins) != "[(d, 4)]" || fmt.Sprint(del) != "[(a, 1) (c, 3)]" {
		t.Fatalf("DiffSince = +%v -%v, want +[(d, 4)] -[(a, 1) (c, 3)]", ins, del)
	}
}

func TestIndexedLookupMatchesScan(t *testing.T) {
	r := NewRelation(schema2("r"))
	rnd := rand.New(rand.NewSource(7))
	letters := []string{"x", "y", "z", "w"}
	for i := 0; i < 500; i++ {
		r.Insert(tup(letters[rnd.Intn(4)], letters[rnd.Intn(4)]))
	}
	for _, mask := range []ColMask{MaskOf(0), MaskOf(1), MaskOf(0, 1)} {
		for _, a := range letters {
			for _, b := range letters {
				var bound []value.Value
				if mask.Has(0) {
					bound = append(bound, value.Str(a))
				}
				if mask.Has(1) {
					bound = append(bound, value.Str(b))
				}
				diffMultiset(t, fmt.Sprintf("mask %b bound %v", mask, bound), scanMatches(r, mask, bound), probeMatches(r, mask, bound))
			}
		}
	}
	if r.IndexCount() == 0 {
		t.Error("indexed lookups built no indexes")
	}
}

func TestIndexMaintainedAcrossMutations(t *testing.T) {
	r := NewRelation(schema2("r"))
	r.EnsureIndex(MaskOf(0))
	r.Insert(tup("a", "1"))
	r.Insert(tup("a", "2"))
	r.Insert(tup("b", "3"))
	count := func(k string) int { return total(probeMatches(r, MaskOf(0), []value.Value{value.Str(k)})) }
	if count("a") != 2 || count("b") != 1 {
		t.Fatalf("index counts wrong: a=%d b=%d", count("a"), count("b"))
	}
	r.Delete(tup("a", "1"))
	if count("a") != 1 {
		t.Errorf("index stale after delete: a=%d", count("a"))
	}
	r.Clear()
	if count("a") != 0 || count("b") != 0 {
		t.Error("index stale after clear")
	}
}

func TestLookupEarlyStop(t *testing.T) {
	r := NewRelation(schema2("r"))
	for i := 0; i < 10; i++ {
		r.Insert(tup("k", string(rune('a'+i))))
	}
	n := 0
	r.Probe(MaskOf(0), value.Str("k").AppendKey(nil), func(value.Tuple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("iteration did not stop: n=%d", n)
	}
}

func TestMutateDuringIteration(t *testing.T) {
	// Recursive rules insert into the relation being scanned; the snapshot
	// semantics must neither deadlock nor crash.
	r := NewRelation(schema2("r"))
	r.Insert(tup("seed", "x"))
	r.Iterate(func(tp value.Tuple) bool {
		r.Insert(tup("derived", tp[1].StringVal()))
		return true
	})
	if r.Len() != 2 {
		t.Errorf("len = %d, want 2", r.Len())
	}
}

func TestStoreDeclareIdempotentAndConflicts(t *testing.T) {
	s := New()
	if _, err := s.Declare(schema2("r")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Declare(schema2("r")); err != nil {
		t.Errorf("re-declare with same schema: %v", err)
	}
	_, err := s.Declare(Schema{Name: "r", Peer: "p", Kind: ast.Intensional, Cols: []string{"a", "b"}})
	if err == nil {
		t.Error("kind conflict not detected")
	}
	_, err = s.Declare(Schema{Name: "r", Peer: "p", Kind: ast.Extensional, Cols: []string{"a"}})
	if err == nil {
		t.Error("arity conflict not detected")
	}
}

func TestStoreClearIntensional(t *testing.T) {
	s := New()
	ext, _ := s.Declare(Schema{Name: "e", Peer: "p", Kind: ast.Extensional, Cols: []string{"a"}})
	idb, _ := s.Declare(Schema{Name: "i", Peer: "p", Kind: ast.Intensional, Cols: []string{"a"}})
	ext.Insert(tup("x"))
	idb.Insert(tup("y"))
	s.ClearIntensional()
	if ext.Len() != 1 || idb.Len() != 0 {
		t.Errorf("ext=%d idb=%d after ClearIntensional", ext.Len(), idb.Len())
	}
}

func TestStoreRelationsSorted(t *testing.T) {
	s := New()
	for _, n := range []string{"zz", "aa", "mm"} {
		if _, err := s.Declare(Schema{Name: n, Peer: "p", Kind: ast.Extensional, Cols: []string{"a"}}); err != nil {
			t.Fatal(err)
		}
	}
	rels := s.Relations()
	for i := 1; i < len(rels); i++ {
		if rels[i-1].Schema().ID() > rels[i].Schema().ID() {
			t.Fatal("relations not sorted")
		}
	}
}

func TestStoreFacts(t *testing.T) {
	s := New()
	r, _ := s.Declare(schema2("r"))
	r.Insert(tup("a", "b"))
	facts := s.Facts("p")
	if len(facts) != 1 || facts[0].String() != `r@p("a", "b")` {
		t.Errorf("facts = %v", facts)
	}
}

// Property: a random interleaving of inserts and deletes leaves the relation
// equal to a reference map implementation.
func TestRelationMatchesReferenceModel(t *testing.T) {
	type op struct {
		Del bool
		A   uint8
		B   uint8
	}
	f := func(ops []op) bool {
		r := NewRelation(schema2("r"))
		ref := map[string]bool{}
		for _, o := range ops {
			tp := tup(string(rune('a'+o.A%5)), string(rune('a'+o.B%5)))
			key := tp.Key()
			if o.Del {
				changed := r.Delete(tp)
				if changed != ref[key] {
					return false
				}
				delete(ref, key)
			} else {
				changed := r.Insert(tp)
				if changed == ref[key] {
					return false
				}
				ref[key] = true
			}
		}
		if r.Len() != len(ref) {
			return false
		}
		ok := true
		r.Iterate(func(tp value.Tuple) bool {
			if !ref[tp.Key()] {
				ok = false
			}
			return true
		})
		return ok
	}
	cfg := &quick.Config{MaxCount: 200, Values: func(vs []reflect.Value, rnd *rand.Rand) {
		n := rnd.Intn(60)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{Del: rnd.Intn(3) == 0, A: uint8(rnd.Intn(5)), B: uint8(rnd.Intn(5))}
		}
		vs[0] = reflect.ValueOf(ops)
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestDegradedIndexReevaluatedOnGrowth: an index dropped as degenerate
// during a transiently skewed prefix (a load grouped by the indexed column)
// is re-evaluated once the relation changes size substantially, instead of
// forcing scans forever.
func TestDegradedIndexReevaluatedOnGrowth(t *testing.T) {
	r := NewRelation(Schema{Name: "t", Peer: "p", Kind: ast.Extensional, Cols: []string{"k", "v"}})
	// Build an index, then bulk-load grouped by k: the first group's bucket
	// exceeds the threshold while it is most of the relation.
	r.EnsureIndex(MaskOf(0))
	for i := 0; i < 1500; i++ {
		r.Insert(value.Tuple{value.Int(0), value.Int(int64(i))})
	}
	if r.IndexCount() != 0 {
		t.Fatalf("index not dropped during skewed prefix (count=%d)", r.IndexCount())
	}
	// The rest of the load is perfectly selective.
	for i := 0; i < 20000; i++ {
		r.Insert(value.Tuple{value.Int(int64(i + 1)), value.Int(int64(i))})
	}
	// A lookup after 2x growth re-evaluates the verdict and rebuilds.
	if n := total(probeMatches(r, MaskOf(0), []value.Value{value.Int(5)})); n != 1 {
		t.Fatalf("lookup found %d tuples, want 1", n)
	}
	if r.IndexCount() != 1 {
		t.Errorf("index not rebuilt after growth (count=%d)", r.IndexCount())
	}
}
