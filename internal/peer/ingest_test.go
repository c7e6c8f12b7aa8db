package peer

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/value"
)

// newIngestPeer returns a peer of a sequential network, with src loaded and
// its first stage run, so the next stage does nothing but ingest and
// maintain. The caller closes it.
func newIngestPeer(tb testing.TB, src string) *Peer {
	tb.Helper()
	p, err := NewSequentialNetwork().NewPeer(Config{Name: "p", ResyncInterval: -1})
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.LoadSource(src); err != nil {
		tb.Fatal(err)
	}
	if rep := p.RunStage(); len(rep.Errors) > 0 {
		tb.Fatal(rep.Errors)
	}
	return p
}

// TestColdStageBytes: a stage that loads 30 000 facts into an empty relation
// sizes the relation's map and its delta lists once, from the pending count,
// and puts each fact's tuple and key on the lists directly, instead of
// growing a run buffer, the map and a delta map fact by fact and copying the
// deltas out again. The bound lies between the 25.0–25.5 MB such a stage
// allocated with the delta maps and the 9.9 MB it allocates with the lists.
func TestColdStageBytes(t *testing.T) {
	p := newIngestPeer(t, `relation extensional data@p(a, b);`)
	defer p.Close()
	const n = 30_000
	b := engine.NewBatch()
	for i := range n {
		b.Insert(ast.NewFact("data", "p", value.Int(int64(i)), value.Int(int64(n-i))))
	}
	if err := p.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep := p.RunStage()
	runtime.ReadMemStats(&after)
	if rep.Applied != n || len(rep.Errors) > 0 {
		t.Fatalf("stage applied %d of %d facts, errors %v", rep.Applied, n, rep.Errors)
	}
	const limit = 16 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a %d-fact cold stage allocated %d bytes", n, got)
	if got > limit {
		t.Errorf("a %d-fact cold stage allocated %d bytes, want at most %d", n, got, limit)
	}
}

// TestPresizeSkipsCancelledInserts: a stage that inserts and deletes the
// same 30 000 facts leaves an empty relation empty, and its map small. A map
// never shrinks, so sizing it from the stage's insert count would hold room
// for 30 000 tuples (3.1 MB) for the relation's lifetime; the stage leaves
// a few hundred bytes without it.
func TestPresizeSkipsCancelledInserts(t *testing.T) {
	p := newIngestPeer(t, `relation extensional data@p(a, b);`)
	defer p.Close()
	const n = 30_000
	b := engine.NewBatch()
	for i := range n {
		f := ast.NewFact("data", "p", value.Int(int64(i)), value.Int(int64(n-i)))
		b.Insert(f).Delete(f)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := p.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if rep := p.RunStage(); rep.Applied != 2*n || len(rep.Errors) > 0 {
		t.Fatalf("stage applied %d of %d ops, errors %v", rep.Applied, 2*n, rep.Errors)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(b)
	if len(p.Query("data")) != 0 {
		t.Fatal("data is not empty after the stage")
	}
	const limit = 256 << 10
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("the stage left the heap %d bytes larger", grew)
	if grew > limit {
		t.Errorf("the stage left the heap %d bytes larger, want at most %d", grew, limit)
	}
}

// TestOneFactStageAllocs: a one-fact stage allocates for its fact, not for
// its set-up. An insert stage and a delete stage of one fact, on a relation
// of 1 000 rows that a rule reads, allocated 118 objects together (124 under
// the race detector) when each stage made its bookkeeping anew, and allocate
// 30 with the pooled stage scratch. Under the race detector they allocate
// 52–62, because its sync.Pool drops a quarter of what is put back; the limit
// lies between the two figures and above that.
func TestOneFactStageAllocs(t *testing.T) {
	p := newIngestPeer(t, `
relation extensional data@p(a, b);
relation intensional view@p(a, b);
view@p($a, $b) :- data@p($a, $b);`)
	defer p.Close()
	b := engine.NewBatch()
	for i := range 1000 {
		b.Insert(ast.NewFact("data", "p", value.Int(int64(i)), value.Int(int64(i%7))))
	}
	if err := p.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	p.RunStage()
	f := ast.NewFact("data", "p", value.Int(-1), value.Int(3))
	allocs := testing.AllocsPerRun(50, func() {
		if err := p.Insert(f); err != nil {
			t.Fatal(err)
		}
		if rep := p.RunStage(); rep.Applied != 1 || rep.Derived != 1 {
			t.Fatalf("insert stage: applied %d, derived %d", rep.Applied, rep.Derived)
		}
		if err := p.Delete(f); err != nil {
			t.Fatal(err)
		}
		if rep := p.RunStage(); rep.Applied != 1 || rep.Retracted != 1 {
			t.Fatalf("delete stage: applied %d, retracted %d", rep.Applied, rep.Retracted)
		}
	})
	const limit = 72
	t.Logf("a one-fact insert stage and delete stage allocated %.0f objects", allocs)
	if allocs > limit {
		t.Errorf("a one-fact insert stage and delete stage allocated %.0f objects, want at most %d", allocs, limit)
	}
}

// TestStageKeepsNoTuples: a stage's scratch goes back to its pool emptied,
// so nothing of the stages that inserted and deleted a tuple keeps it alive
// once the store lets it go — not the pooled deltas, lists and engine input
// of the peer, nor the engine's stage state — after a stage of 30 000 facts,
// past every scratch cap, and after a stage of one. Checked are the stored
// and the derived tuple, and the delete's own tuple, which the deletion pass
// holds while the stage runs.
func TestStageKeepsNoTuples(t *testing.T) {
	p := newIngestPeer(t, `
relation extensional data@p(a, b);
relation intensional view@p(a, b);
view@p($a, $b) :- data@p($a, $b);`)
	defer p.Close()
	// stage applies n inserts or deletes in one stage and returns a weak
	// pointer to the first op's tuple.
	stage := func(n int, del bool) weak.Pointer[value.Value] {
		t.Helper()
		b := engine.NewBatch()
		for i := range n {
			f := ast.NewFact("data", "p", value.Int(int64(i)), value.Int(int64(n-i)))
			if del {
				b.Delete(f)
			} else {
				b.Insert(f)
			}
		}
		if err := p.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
		if rep := p.RunStage(); rep.Applied != n || len(rep.Errors) > 0 {
			t.Fatalf("stage applied %d of %d ops, errors %v", rep.Applied, n, rep.Errors)
		}
		return weak.Make(&b.Ops()[0].Fact.Args[0])
	}
	for _, n := range []int{30_000, 1} {
		stage(n, false)
		d, v := p.Query("data"), p.Query("view")
		if len(d) != n || len(v) != n {
			t.Fatalf("stored %d data and %d view tuples, want %d", len(d), len(v), n)
		}
		ptrs := []weak.Pointer[value.Value]{weak.Make(&d[0][0]), weak.Make(&v[0][0])}
		d, v = nil, nil
		ptrs = append(ptrs, stage(n, true))
		runtime.GC()
		for i, w := range ptrs {
			if w.Value() != nil {
				t.Errorf("after a %d-fact delete stage, the %s tuple is still reachable", n, []string{"stored", "derived", "deleted"}[i])
			}
		}
	}
}

// BenchmarkColdIngest is a bulk load's ingest and first build: 60 000
// shuffled facts of a four-way join, applied in batches of 1 200 to a fresh
// peer, then one stage.
func BenchmarkColdIngest(b *testing.B) {
	const rows, per = 20_000, 1_200
	rng := rand.New(rand.NewSource(1))
	p1, p2, p3 := rng.Perm(rows), rng.Perm(rows), rng.Perm(rows)
	facts := make([]ast.Fact, 0, 3*rows)
	for i := range rows {
		facts = append(facts,
			ast.NewFact("src", "p", value.Int(int64(i)), value.Int(int64(p1[i]))),
			ast.NewFact("mid", "p", value.Int(int64(p1[i])), value.Int(int64(p2[i]))),
			ast.NewFact("dst", "p", value.Int(int64(p2[i])), value.Int(int64(p3[i]))))
	}
	rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
	var batches []*engine.Batch
	for len(facts) > 0 {
		k := min(per, len(facts))
		batch := engine.NewBatch()
		for _, f := range facts[:k] {
			batch.Insert(f)
		}
		batches, facts = append(batches, batch), facts[k:]
	}
	const src = `
relation extensional src@p(a, b);
relation extensional mid@p(b, c);
relation extensional dst@p(c, d);
relation extensional sel@p(d);
relation intensional out@p(a, d);
sel@p(1); sel@p(2); sel@p(3); sel@p(4);
out@p($a, $d) :- src@p($a, $b), mid@p($b, $c), dst@p($c, $d), sel@p($d);`
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		p := newIngestPeer(b, src)
		b.StartTimer()
		for _, batch := range batches {
			if err := p.Apply(ctx, batch); err != nil {
				b.Fatal(err)
			}
		}
		if rep := p.RunStage(); rep.Applied != 3*rows || len(p.Query("out")) != 4 {
			b.Fatalf("stage applied %d facts and derived %d out rows, want %d and 4", rep.Applied, len(p.Query("out")), 3*rows)
		}
		b.StopTimer()
		p.Close()
		b.StartTimer()
	}
}
