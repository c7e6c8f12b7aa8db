package engine

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// TestRemoteViewTreesTrackDiff drives random full emission sets through
// Diff and checks the incrementally maintained summary trees against a
// model: per (dst, relation) the tree root must equal the digest of the
// facts actually maintained, RangeFacts must enumerate exactly the members
// of a hash range, and emptied destinations must drop their trees.
func TestRemoteViewTreesTrackDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := NewRemoteView()
	mk := func(rel, dst string, k int) ast.Fact {
		return ast.NewFact(rel, dst, value.Int(int64(k)))
	}

	// model: dst -> relID -> tuple key -> fact
	model := map[string]map[string]map[string]ast.Fact{}
	for round := 0; round < 60; round++ {
		remote := map[string][]FactOp{}
		want := map[string]map[string]map[string]ast.Fact{}
		for _, dst := range []string{"b", "c"} {
			if rng.Intn(8) == 0 {
				continue // this destination derives nothing this round
			}
			for _, rel := range []string{"u", "w"} {
				for k := 0; k < 40; k++ {
					if rng.Intn(2) == 0 {
						continue
					}
					f := mk(rel, dst, k)
					remote[dst] = append(remote[dst], FactOp{Op: ast.Derive, Fact: f})
					relID := rel + "@" + dst
					if want[dst] == nil {
						want[dst] = map[string]map[string]ast.Fact{}
					}
					if want[dst][relID] == nil {
						want[dst][relID] = map[string]ast.Fact{}
					}
					want[dst][relID][f.Args.Key()] = f
				}
			}
		}
		v.Diff(remote)
		model = want

		for dst, rels := range model {
			for relID, facts := range rels {
				var wantDig store.Digest
				for key := range facts {
					wantDig.Add(key)
				}
				tr := v.Tree(dst, relID)
				if tr == nil {
					t.Fatalf("round %d: no tree for %s at %s", round, relID, dst)
				}
				if got := tr.Root(); got != wantDig {
					t.Fatalf("round %d: tree root %+v, want %+v for %s at %s", round, got, wantDig, relID, dst)
				}
				if d := v.Digests(dst)[relID]; d != wantDig {
					t.Fatalf("round %d: Digests %+v, want %+v", round, d, wantDig)
				}
				got, _ := v.RangeFacts(dst, relID, 0, ^uint64(0), 0)
				if len(got) != len(facts) {
					t.Fatalf("round %d: RangeFacts full range returned %d facts, want %d", round, len(got), len(facts))
				}
				lo, hi := rng.Uint64(), rng.Uint64()
				if lo > hi {
					lo, hi = hi, lo
				}
				n := 0
				for key := range facts {
					if h := store.KeyHash(key); lo <= h && h <= hi {
						n++
					}
				}
				if got, end := v.RangeFacts(dst, relID, lo, hi, 0); len(got) != n || end != hi {
					t.Fatalf("round %d: RangeFacts[%x,%x] returned %d facts to %x, want %d", round, lo, hi, len(got), end, n)
				}
			}
		}
		for _, dst := range []string{"b", "c"} {
			if model[dst] == nil && v.Digests(dst) != nil {
				t.Fatalf("round %d: emptied destination %s still digests %v", round, dst, v.Digests(dst))
			}
		}
	}
}

// TestRemoteViewOneShotDeleteSkipsTree: an insert cancelled by a same-stage
// one-shot delete never joins the view, so the tree must not count it.
func TestRemoteViewOneShotDeleteSkipsTree(t *testing.T) {
	v := NewRemoteView()
	f := ast.NewFact("u", "b", value.Int(1))
	v.Diff(map[string][]FactOp{"b": {
		{Op: ast.Derive, Fact: f},
		{Op: ast.Delete, Fact: f},
	}})
	if tr := v.Tree("b", "u@b"); tr != nil && tr.Len() != 0 {
		t.Fatalf("cancelled insert joined the tree: %d members", tr.Len())
	}
	if len(v.views["b"]) != 0 {
		t.Fatalf("cancelled insert joined the view: %v", v.views["b"])
	}
}

func init() {
	// Surface tree bookkeeping bugs (double-remove, remove-of-absent) as
	// panics throughout this package's tests.
	store.DebugAsserts = true
}
