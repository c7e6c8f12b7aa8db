package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/value"
)

func invariantRel(t *testing.T, arity int) *Relation {
	t.Helper()
	cols := make([]string, arity)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	db := New()
	r, err := db.Declare(Schema{Name: "r", Peer: "local", Kind: ast.Extensional, Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// scanMatches is the oracle: the tuples matching (mask, bound) by a plain
// full scan, as a multiset of keys.
func scanMatches(r *Relation, mask ColMask, bound []value.Value) map[string]int {
	out := map[string]int{}
	r.Iterate(func(t value.Tuple) bool {
		bi := 0
		for c := 0; c < len(t); c++ {
			if mask.Has(c) {
				if !bound[bi].Equal(t[c]) {
					return true
				}
				bi++
			}
		}
		out[t.Key()]++
		return true
	})
	return out
}

func probeKey(mask ColMask, bound []value.Value) []byte {
	var key []byte
	for _, v := range bound {
		key = v.AppendKey(key)
	}
	_ = mask
	return key
}

// probeMatches collects what a keyed Probe visits, as a multiset like
// scanMatches.
func probeMatches(r *Relation, mask ColMask, bound []value.Value) map[string]int {
	out := map[string]int{}
	r.Probe(mask, probeKey(mask, bound), func(t value.Tuple) bool {
		out[t.Key()]++
		return true
	})
	return out
}

// total sums a multiset's multiplicities.
func total(m map[string]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

// TestIndexMatchesScanUnderRandomMutation interleaves InsertMany,
// DeleteMany, single-tuple ops, and Clear at random, and after every step
// checks that keyed Probe and batch ProbeBatch return exactly what a full
// scan (Iterate plus a filter) returns, for every column mask.
func TestIndexMatchesScanUnderRandomMutation(t *testing.T) {
	rnd := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 20; trial++ {
		r := invariantRel(t, 2)
		domain := int64(2 + rnd.Intn(8))
		randTuple := func() value.Tuple {
			return value.Tuple{value.Int(rnd.Int63n(domain)), value.Int(rnd.Int63n(domain))}
		}
		for step := 0; step < 40; step++ {
			switch rnd.Intn(10) {
			case 0:
				r.Clear()
			case 1, 2, 3:
				var ts []value.Tuple
				for k := 0; k < rnd.Intn(6); k++ {
					ts = append(ts, randTuple())
				}
				r.DeleteMany(ts)
			case 4:
				r.Delete(randTuple())
			case 5:
				r.Insert(randTuple())
			default:
				var ts []value.Tuple
				for k := 0; k < rnd.Intn(8); k++ {
					ts = append(ts, randTuple())
				}
				r.InsertMany(ts)
			}
			for mask := ColMask(1); mask < 4; mask++ {
				r.EnsureIndex(mask)
				var bound []value.Value
				for c := 0; c < 2; c++ {
					if mask.Has(c) {
						bound = append(bound, value.Int(rnd.Int63n(domain)))
					}
				}
				want := scanMatches(r, mask, bound)

				diffMultiset(t, fmt.Sprintf("trial %d step %d mask %d Probe", trial, step, mask), want, probeMatches(r, mask, bound))

				got := map[string]int{}
				key := probeKey(mask, bound)
				r.ProbeBatch(mask, [][]byte{key, key}, nil, func(i int, tp value.Tuple) bool {
					if i == 0 {
						got[tp.Key()]++
					}
					return true
				})
				diffMultiset(t, fmt.Sprintf("trial %d step %d mask %d ProbeBatch", trial, step, mask), want, got)
			}
		}
	}
}

func diffMultiset(t *testing.T, label string, want, got map[string]int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d distinct keys, scan has %d\nwant %v\ngot  %v", label, len(got), len(want), want, got)
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: key %q seen %d times, scan says %d", label, k, got[k], n)
		}
	}
}

// TestFanEstimateConsistencyAfterDegradedRetry pins the estimator across
// the index lifecycle: selective index → true mean bucket size; degenerate
// column → index dropped, estimate collapses to a full scan (probing it
// really does scan) and stays there while the size is within the 2x retry
// band; shrinking past the band → the rebuild re-evaluates and the
// now-acceptable index restores the bucket-based estimate.
func TestFanEstimateConsistencyAfterDegradedRetry(t *testing.T) {
	r := invariantRel(t, 2)
	const n = 1100 // > maxIndexBucket so a constant column degenerates
	var ts []value.Tuple
	for i := 0; i < n; i++ {
		ts = append(ts, value.Tuple{value.Int(0), value.Int(int64(i))})
	}
	r.InsertMany(ts)

	// Column 1 is unique: the index materializes and the estimate is the
	// exact mean bucket size, 1.
	r.EnsureIndex(2)
	if got := r.FanEstimate(2); got != 1 {
		t.Fatalf("unique-column FanEstimate = %v, want 1", got)
	}
	// Column 0 is constant: one bucket of 1100 > maxIndexBucket and > 1/4 of
	// the relation → dropped as degenerate, estimate = full scan.
	r.EnsureIndex(1)
	if got := r.FanEstimate(1); got != float64(n) {
		t.Fatalf("degenerate-column FanEstimate = %v, want %v (full scan)", got, n)
	}
	if r.IndexCount() != 1 {
		t.Fatalf("IndexCount = %d after degenerate drop, want 1", r.IndexCount())
	}

	// Within the 2x band the degraded verdict is remembered: no rebuild, and
	// the estimate still reports a scan.
	r.DeleteMany(ts[:100])
	r.EnsureIndex(1)
	if got, want := r.FanEstimate(1), float64(n-100); got != want {
		t.Fatalf("degraded FanEstimate within band = %v, want %v", got, want)
	}

	// Shrink past 2x: the retry re-evaluates. 500 tuples in one bucket is
	// under maxIndexBucket, so the index comes back and the estimate with it.
	r.DeleteMany(ts[100:600])
	r.EnsureIndex(1)
	if got, want := r.FanEstimate(1), float64(500); got != want {
		t.Fatalf("FanEstimate after retry rebuild = %v, want %v (single 500-bucket)", got, want)
	}
	if r.IndexCount() != 2 {
		t.Fatalf("IndexCount = %d after retry rebuild, want 2", r.IndexCount())
	}
	// Estimate must agree with what a probe actually visits.
	if visited := total(probeMatches(r, 1, []value.Value{value.Int(0)})); visited != 500 {
		t.Fatalf("indexed lookup visited %d tuples, estimate said 500", visited)
	}
}

// TestDigestStableAcrossRebuilds pins the content-digest invariant the
// anti-entropy resync relies on: equal contents give equal digests no
// matter the mutation history (insertion order, transient extra tuples,
// Clear-and-reload), and any content difference shows up.
func TestDigestStableAcrossRebuilds(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	var ts []value.Tuple
	for i := 0; i < 200; i++ {
		ts = append(ts, value.Tuple{value.Int(int64(i)), value.Int(rnd.Int63n(50))})
	}

	a := invariantRel(t, 2)
	a.InsertMany(ts)
	want := a.Digest()
	if want.Zero() {
		t.Fatal("digest of a populated relation is zero")
	}

	// Same contents, shuffled order, built tuple-by-tuple.
	b := invariantRel(t, 2)
	perm := rnd.Perm(len(ts))
	for _, i := range perm {
		b.Insert(ts[i])
	}
	if got := b.Digest(); got != want {
		t.Fatalf("digest differs across insertion orders: %v vs %v", got, want)
	}

	// Same contents after transient inserts and deletes.
	noise := value.Tuple{value.Int(9999), value.Int(9999)}
	b.Insert(noise)
	b.Delete(noise)
	b.Delete(ts[0])
	b.Insert(ts[0])
	if got := b.Digest(); got != want {
		t.Fatalf("digest not history-independent: %v vs %v", got, want)
	}

	// Clear and rebuild.
	b.Clear()
	if got := b.Digest(); !got.Zero() {
		t.Fatalf("digest after Clear = %v, want zero", got)
	}
	b.InsertMany(ts)
	if got := b.Digest(); got != want {
		t.Fatalf("digest differs after Clear and reload: %v vs %v", got, want)
	}

	// A one-tuple difference must be visible.
	b.Delete(ts[13])
	if got := b.Digest(); got == want {
		t.Fatal("digest unchanged after removing a tuple")
	}
}

// TestContainsKeyMatchesContains pins the key-encoding contract ContainsKey
// shares with the compiled engine: the canonical AppendKey encoding of a
// tuple is exactly the membership key.
func TestContainsKeyMatchesContains(t *testing.T) {
	r := invariantRel(t, 2)
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		r.Insert(value.Tuple{value.Int(rnd.Int63n(10)), value.Int(rnd.Int63n(10))})
	}
	for a := int64(0); a < 12; a++ {
		for b := int64(0); b < 12; b++ {
			tup := value.Tuple{value.Int(a), value.Int(b)}
			var key []byte
			for _, v := range tup {
				key = v.AppendKey(key)
			}
			if got, want := r.ContainsKey(key), r.Contains(tup); got != want {
				t.Fatalf("ContainsKey(%v) = %v, Contains = %v", tup, got, want)
			}
		}
	}
}
