package store

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/value"
)

func declTest(t *testing.T, s *Store, name string, cols ...string) *Relation {
	t.Helper()
	r, err := s.Declare(Schema{Name: name, Peer: "p", Kind: ast.Extensional, Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestInsertManyDedupAndOrder(t *testing.T) {
	s := New()
	r := declTest(t, s, "data", "x")
	r.Insert(value.Tuple{value.Int(1)})

	added := r.InsertMany([]value.Tuple{
		{value.Int(1)}, // already present
		{value.Int(2)},
		{value.Int(3)},
		{value.Int(2)}, // duplicate within the batch
	})
	if len(added) != 2 || added[0][0].IntVal() != 2 || added[1][0].IntVal() != 3 {
		t.Fatalf("added = %v, want [(2) (3)]", added)
	}
	if r.Len() != 3 {
		t.Errorf("len = %d, want 3", r.Len())
	}
}

func TestInsertManyMaintainsIndexes(t *testing.T) {
	s := New()
	r := declTest(t, s, "data", "k", "v")
	mask := MaskOf(0)
	r.EnsureIndex(mask)
	r.InsertMany([]value.Tuple{
		{value.Int(1), value.Str("a")},
		{value.Int(1), value.Str("b")},
		{value.Int(2), value.Str("c")},
	})
	if hits := total(probeMatches(r, mask, []value.Value{value.Int(1)})); hits != 2 {
		t.Errorf("indexed lookup found %d tuples for k=1, want 2", hits)
	}
}

func TestDeleteManyReportsRemoved(t *testing.T) {
	s := New()
	r := declTest(t, s, "data", "x")
	r.InsertMany([]value.Tuple{{value.Int(1)}, {value.Int(2)}, {value.Int(3)}})
	fp := r.Fingerprint()

	removed := r.DeleteMany([]value.Tuple{{value.Int(2)}, {value.Int(9)}})
	if len(removed) != 1 || removed[0][0].IntVal() != 2 {
		t.Fatalf("removed = %v, want [(2)]", removed)
	}
	if r.Len() != 2 {
		t.Errorf("len = %d, want 2", r.Len())
	}
	if r.Fingerprint() == fp {
		t.Error("fingerprint unchanged by effective DeleteMany")
	}
	// A fully no-op batch changes nothing.
	fp = r.Fingerprint()
	if got := r.DeleteMany([]value.Tuple{{value.Int(42)}}); len(got) != 0 {
		t.Fatalf("removed = %v, want none", got)
	}
	if r.Fingerprint() != fp {
		t.Error("fingerprint changed by no-op DeleteMany")
	}
}

func TestWALLogMany(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	declTest(t, s, "data", "x")
	if err := w.LogDeclare(Schema{Name: "data", Peer: "p", Kind: ast.Extensional, Cols: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	tuples := []value.Tuple{{value.Int(1)}, {value.Int(2)}, {value.Int(3)}}
	if err := w.LogMany(false, "data", "p", tuples); err != nil {
		t.Fatal(err)
	}
	if err := w.LogMany(true, "data", "p", tuples[:1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	s2 := New()
	if _, err := w2.Recover(s2); err != nil {
		t.Fatal(err)
	}
	rel := s2.Get("data", "p")
	if rel == nil || rel.Len() != 2 {
		t.Fatalf("recovered relation = %v", rel)
	}
	if rel.Contains(value.Tuple{value.Int(1)}) {
		t.Error("deleted tuple survived recovery")
	}
}
