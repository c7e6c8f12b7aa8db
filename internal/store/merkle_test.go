package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// withDebugAsserts runs fn with the invariant panics enabled.
func withDebugAsserts(t *testing.T, fn func()) {
	t.Helper()
	old := DebugAsserts
	DebugAsserts = true
	defer func() { DebugAsserts = old }()
	fn()
}

// TestMerkleTreeAgainstModel drives a seeded random add/remove stream
// through a MerkleTree and a plain model set, checking after every few
// mutations that the root equals the flat digest of the model and that
// random range digests and range enumerations agree with brute force. The
// stream is large enough to force leaf splits and subtree collapses.
func TestMerkleTreeAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tree := NewMerkleTree()
	model := map[string]uint64{}

	check := func(step int) {
		var want Digest
		for _, h := range model {
			want.Hash ^= h
			want.Count++
		}
		if got := tree.Root(); got != want {
			t.Fatalf("step %d: root %+v, model digest %+v", step, got, want)
		}
		if tree.Len() != len(model) {
			t.Fatalf("step %d: Len %d, model %d", step, tree.Len(), len(model))
		}
		for i := 0; i < 8; i++ {
			lo, hi := rng.Uint64(), rng.Uint64()
			if lo > hi {
				lo, hi = hi, lo
			}
			var want Digest
			n := 0
			for _, h := range model {
				if lo <= h && h <= hi {
					want.Hash ^= h
					want.Count++
					n++
				}
			}
			if got := tree.RangeDigest(lo, hi); got != want {
				t.Fatalf("step %d: RangeDigest[%x,%x] %+v, brute force %+v", step, lo, hi, got, want)
			}
			if got, end := tree.RangeKeys(lo, hi, 0); len(got) != n || end != hi {
				t.Fatalf("step %d: RangeKeys[%x,%x] returned %d keys to %x, brute force %d", step, lo, hi, len(got), end, n)
			}
		}
	}

	for step := 0; step < 4000; step++ {
		key := fmt.Sprintf("k%d", rng.Intn(1200))
		_, in := model[key]
		if tree.Has(key) != in {
			t.Fatalf("step %d: Has(%s) = %v, model %v", step, key, !in, in)
		}
		if in && rng.Intn(3) == 0 {
			if !tree.Remove(key) {
				t.Fatalf("step %d: Remove(%s) of a present key returned false", step, key)
			}
			delete(model, key)
		} else if !in {
			if !tree.Add(key) {
				t.Fatalf("step %d: Add(%s) of an absent key returned false", step, key)
			}
			model[key] = KeyHash(key)
		} else if tree.Add(key) {
			t.Fatalf("step %d: Add(%s) of a present key returned true", step, key)
		}
		if step%97 == 0 {
			check(step)
		}
	}
	check(4000)

	// Full-range queries equal the root; empty and inverted ranges are empty.
	if got := tree.RangeDigest(0, ^uint64(0)); got != tree.Root() {
		t.Fatalf("full-range digest %+v != root %+v", got, tree.Root())
	}
	if got := tree.RangeDigest(5, 4); !got.Zero() {
		t.Fatalf("inverted range digested %+v", got)
	}

	// Drain completely: the tree must return to the zero digest.
	for key := range model {
		tree.Remove(key)
	}
	if got := tree.Root(); !got.Zero() {
		t.Fatalf("drained tree digests %+v", got)
	}
}

// TestMerkleRangeKeysCanonicalOrder: enumeration is in (hash, key) order —
// the canonical order both ends of a repair walk.
func TestMerkleRangeKeysCanonicalOrder(t *testing.T) {
	tree := NewMerkleTree()
	for i := 0; i < 500; i++ {
		tree.Add(fmt.Sprintf("k%d", i))
	}
	keys, _ := tree.RangeKeys(0, ^uint64(0), 0)
	if len(keys) != 500 {
		t.Fatalf("enumerated %d of 500 keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		a, b := KeyHash(keys[i-1]), KeyHash(keys[i])
		if a > b || (a == b && keys[i-1] >= keys[i]) {
			t.Fatalf("keys out of canonical order at %d: %q then %q", i, keys[i-1], keys[i])
		}
	}
}

// TestMerkleRangeKeysBounded: reading a range max keys at a time, resuming
// each read at end+1, yields exactly the unbounded read — every piece within
// the bound, exhausting its own hash sub-range, the last one ending at hi.
func TestMerkleRangeKeysBounded(t *testing.T) {
	tree := NewMerkleTree()
	for i := 0; i < 3000; i++ {
		tree.Add(fmt.Sprintf("k%d", i))
	}
	const hi = ^uint64(0) - 1<<60
	want, _ := tree.RangeKeys(1<<60, hi, 0)
	for _, max := range []int{1, 7, 128, 1000, len(want), len(want) + 1} {
		var got []string
		lo, reads := uint64(1<<60), 0
		for {
			keys, end := tree.RangeKeys(lo, hi, max)
			reads++
			if len(keys) > max {
				t.Fatalf("max %d: read returned %d keys", max, len(keys))
			}
			if d := tree.RangeDigest(lo, end); int(d.Count) != len(keys) {
				t.Fatalf("max %d: read [%x,%x] returned %d keys, the sub-range holds %d", max, lo, end, len(keys), d.Count)
			}
			got = append(got, keys...)
			if end == hi {
				break
			}
			lo = end + 1
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("max %d: %d bounded reads returned %d keys, unbounded read %d", max, reads, len(got), len(want))
		}
		if min := (len(want) + max - 1) / max; reads != min {
			t.Fatalf("max %d: %d reads for %d keys, want %d", max, reads, len(want), min)
		}
	}
}

// TestMerkleRemoveAbsentGuard: removing a key never added is refused (no
// digest corruption) and panics under DebugAsserts — the satellite guard
// against silent fold corruption.
func TestMerkleRemoveAbsentGuard(t *testing.T) {
	tree := NewMerkleTree()
	tree.Add("present")
	before := tree.Root()
	if tree.Remove("absent") {
		t.Fatal("Remove of an absent key reported true")
	}
	if got := tree.Root(); got != before {
		t.Fatalf("refused Remove still changed the digest: %+v -> %+v", before, got)
	}
	withDebugAsserts(t, func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Remove of an absent key did not panic under DebugAsserts")
			}
		}()
		tree.Remove("absent")
	})
}

// TestDigestRemoveUnderflowGuard: folding a member out of the empty digest
// used to underflow Count and corrupt every later comparison; it is now
// refused, and panics under DebugAsserts.
func TestDigestRemoveUnderflowGuard(t *testing.T) {
	var d Digest
	d.Remove("ghost")
	if !d.Zero() {
		t.Fatalf("Remove on the empty digest corrupted it: %+v", d)
	}
	d.Add("x")
	d.Remove("x")
	if !d.Zero() {
		t.Fatalf("add/remove did not return to zero: %+v", d)
	}
	withDebugAsserts(t, func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Remove on the empty digest did not panic under DebugAsserts")
			}
		}()
		var d Digest
		d.Remove("ghost")
	})
}

// merkleOf builds a Merkle tree over the relation's current keys.
func merkleOf(r *Relation) *MerkleTree {
	m := NewMerkleTree()
	r.Iterate(func(t value.Tuple) bool {
		m.Add(t.Key())
		return true
	})
	return m
}

// TestRelationMerkleMaintained: after every mutation path (Insert,
// InsertMany, Delete, DeleteMany, Clear) the relation's O(1) flat digest is
// the root of a Merkle tree over its keys — the property that lets a
// receiver's ledger tree and a sender's flat digest be compared.
func TestRelationMerkleMaintained(t *testing.T) {
	r := NewRelation(Schema{Name: "r", Peer: "p", Cols: []string{"x"}})
	agree := func(when string) {
		t.Helper()
		if got := merkleOf(r).Root(); got != r.Digest() {
			t.Fatalf("%s: tree root %+v != relation digest %+v", when, got, r.Digest())
		}
	}
	r.Insert(tup("before"))
	agree("fresh build")
	r.Insert(tup("a"))
	agree("Insert")
	r.InsertMany([]value.Tuple{tup("b"), tup("c"), tup("d")})
	agree("InsertMany")
	r.Delete(tup("a"))
	agree("Delete")
	r.DeleteMany([]value.Tuple{tup("b"), tup("missing")})
	agree("DeleteMany")
	r.Clear()
	agree("Clear")
	if !r.Digest().Zero() {
		t.Fatalf("Clear left the digest at %+v", r.Digest())
	}
}
