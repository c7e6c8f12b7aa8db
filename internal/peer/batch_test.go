package peer

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/errdefs"
	"repro/internal/value"
)

// TestBatchSingleStage is the core atomicity guarantee of the v2 API: a
// batch of 1000 facts is ingested by exactly one fixpoint stage.
func TestBatchSingleStage(t *testing.T) {
	n, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	if err := alice.DeclareRelation("data", ast.Extensional, "id"); err != nil {
		t.Fatal(err)
	}
	// Settle the initial compile stage so only the batch's stage remains.
	quiesce(t, n)
	base := alice.Stats().Stages

	b := engine.NewBatch()
	for i := 0; i < 1000; i++ {
		b.Insert(ast.NewFact("data", "alice", value.Int(int64(i))))
	}
	if b.Len() != 1000 {
		t.Fatalf("batch len = %d", b.Len())
	}
	if err := alice.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)

	if got := alice.Stats().Stages - base; got != 1 {
		t.Errorf("batch of 1000 ran %d stages, want exactly 1", got)
	}
	if got := len(alice.Query("data")); got != 1000 {
		t.Errorf("data has %d tuples, want 1000", got)
	}
	if got := alice.Stats().UpdatesApplied; got != 1000 {
		t.Errorf("UpdatesApplied = %d, want 1000", got)
	}
}

// TestBatchPreservesOrder: an insert followed by a delete of the same fact
// inside one batch nets out to the delete, and vice versa.
func TestBatchPreservesOrder(t *testing.T) {
	n, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	if err := alice.DeclareRelation("data", ast.Extensional, "id"); err != nil {
		t.Fatal(err)
	}
	f := func(i int64) ast.Fact { return ast.NewFact("data", "alice", value.Int(i)) }
	b := engine.NewBatch().
		Insert(f(1)).
		Delete(f(1)). // net: absent
		Delete(f(2)).
		Insert(f(2)) // net: present
	if err := alice.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	got := tuples(alice, "data")
	if len(got) != 1 || got[0] != "(2)" {
		t.Errorf("data = %v, want [(2)]", got)
	}
}

// TestBatchRemoteWireBatching: a batch touching two remote peers ships
// exactly one message per destination, and each destination ingests its
// share in one stage.
func TestBatchRemoteWireBatching(t *testing.T) {
	n, ps := newTestNetwork(t, "src", "b1", "b2")
	for _, name := range []string{"b1", "b2"} {
		if err := ps[name].DeclareRelation("inbox", ast.Extensional, "id"); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, n)
	sent := n.Bus().Stats().MessagesSent
	stages1, stages2 := ps["b1"].Stats().Stages, ps["b2"].Stats().Stages

	enqueued := ps["src"].Stats().OutboxEnqueued
	b := engine.NewBatch()
	for i := 0; i < 50; i++ {
		b.Insert(ast.NewFact("inbox", "b1", value.Int(int64(i))))
		b.Insert(ast.NewFact("inbox", "b2", value.Int(int64(i))))
	}
	if err := ps["src"].Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if got := ps["src"].Stats().OutboxEnqueued - enqueued; got != 2 {
		t.Errorf("batch enqueued %d messages, want 2 (one per destination)", got)
	}
	quiesce(t, n)
	// On the wire: one sequenced data message per destination plus their
	// acknowledgments — never one frame per fact.
	if got := n.Bus().Stats().MessagesSent - sent; got > 6 {
		t.Errorf("batch shipped %d bus messages, want at most 6 (2 data + acks)", got)
	}
	for _, name := range []string{"b1", "b2"} {
		if got := len(ps[name].Query("inbox")); got != 50 {
			t.Errorf("%s inbox = %d tuples, want 50", name, got)
		}
	}
	if got := ps["b1"].Stats().Stages - stages1; got != 1 {
		t.Errorf("b1 ran %d stages for its share, want 1", got)
	}
	if got := ps["b2"].Stats().Stages - stages2; got != 1 {
		t.Errorf("b2 ran %d stages for its share, want 1", got)
	}
}

// TestBatchDurability: the grouped WAL path recovers exactly like the
// per-fact path.
func TestBatchDurability(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Peer, *Network) {
		n := closingNetwork(t)
		p, err := New(Config{Name: "alice", WAL: dir}, n.Bus().Endpoint("alice"))
		if err != nil {
			t.Fatal(err)
		}
		n.Add(p)
		return p, n
	}
	p1, n1 := open()
	if err := p1.DeclareRelation("data", ast.Extensional, "id"); err != nil {
		t.Fatal(err)
	}
	b := engine.NewBatch()
	for i := 0; i < 100; i++ {
		b.Insert(ast.NewFact("data", "alice", value.Int(int64(i))))
	}
	b.Delete(ast.NewFact("data", "alice", value.Int(7)))
	if err := p1.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n1.RunToQuiescence(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	p2, _ := open()
	defer p2.Close()
	if got := len(p2.Query("data")); got != 99 {
		t.Errorf("recovered %d tuples, want 99", got)
	}
}

// TestApplyEmptyAndNil: degenerate batches are no-ops.
func TestApplyEmptyAndNil(t *testing.T) {
	_, ps := newTestNetwork(t, "alice")
	if err := ps["alice"].Apply(context.Background(), nil); err != nil {
		t.Errorf("nil batch: %v", err)
	}
	if err := ps["alice"].Apply(context.Background(), engine.NewBatch()); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if ps["alice"].HasWork() != true {
		// First stage always pending on a fresh peer; just exercise the call.
		t.Log("no work after empty batch")
	}
}

// TestBatchMixedRelations exercises run grouping across interleaved
// relations.
func TestBatchMixedRelations(t *testing.T) {
	n, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	for _, rel := range []string{"r1", "r2"} {
		if err := alice.DeclareRelation(rel, ast.Extensional, "id"); err != nil {
			t.Fatal(err)
		}
	}
	b := engine.NewBatch()
	for i := 0; i < 30; i++ {
		b.Insert(ast.NewFact(fmt.Sprintf("r%d", i%2+1), "alice", value.Int(int64(i))))
	}
	if err := alice.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := len(alice.Query("r1")) + len(alice.Query("r2")); got != 30 {
		t.Errorf("r1+r2 = %d tuples, want 30", got)
	}
}

// TestApplyRefusesUnroutableBatch: a batch naming a peer that cannot be
// routed to is refused whole — neither its local fact nor its fact for a
// live peer is applied.
func TestApplyRefusesUnroutableBatch(t *testing.T) {
	n, ps := newTestNetwork(t, "alice", "bob")
	for _, name := range []string{"alice", "bob"} {
		if err := ps[name].DeclareRelation("data", ast.Extensional, "id"); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, n)
	b := engine.NewBatch().
		Insert(ast.NewFact("data", "alice", value.Int(1))).
		Insert(ast.NewFact("data", "bob", value.Int(2))).
		Insert(ast.NewFact("data", "ghost", value.Int(3)))
	if err := ps["alice"].Apply(context.Background(), b); !errors.Is(err, errdefs.ErrUnknownPeer) {
		t.Fatalf("Apply: %v, want ErrUnknownPeer", err)
	}
	quiesce(t, n)
	for _, name := range []string{"alice", "bob"} {
		if got := tuples(ps[name], "data"); len(got) != 0 {
			t.Errorf("data@%s = %v after a refused batch, want empty", name, got)
		}
	}
}

// TestApplyHandsOverLocalOps: an all-local batch is queued without copying
// its ops — Apply allocates less than one FactOp per op.
func TestApplyHandsOverLocalOps(t *testing.T) {
	_, ps := newTestNetwork(t, "alice")
	const n = 10000
	b := engine.NewBatch()
	for i := 0; i < n; i++ {
		b.Insert(ast.NewFact("data", "alice", value.Int(int64(i))))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ps["alice"].Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	limit := uint64(n * unsafe.Sizeof(engine.FactOp{}))
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("Apply of %d local ops allocated %d bytes, want under %d (one FactOp per op)", n, got, limit)
	}
}

// TestInsertAllocsAmortized: single Inserts share the peer's tail batch, so
// a run of them allocates far less than once per insert.
func TestInsertAllocsAmortized(t *testing.T) {
	_, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	const n = 1000
	facts := make([]ast.Fact, n)
	for i := range facts {
		facts[i] = ast.NewFact("data", "alice", value.Int(int64(i)))
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, f := range facts {
			if err := alice.Insert(f); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perInsert := allocs / n; perInsert > 0.01 {
		t.Errorf("%.3f allocations per Insert, want at most 0.01", perInsert)
	}
}

// TestApplyBatchNotAliased: growing a batch after Apply, or applying more
// single updates, does not change what the next stage ingests.
func TestApplyBatchNotAliased(t *testing.T) {
	n, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	if err := alice.DeclareRelation("data", ast.Extensional, "id"); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	f := func(i int64) ast.Fact { return ast.NewFact("data", "alice", value.Int(i)) }
	b := engine.NewBatch().Insert(f(1)).Insert(f(2)).Insert(f(3)) // spare capacity
	if err := alice.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if err := alice.Insert(f(10)); err != nil {
		t.Fatal(err)
	}
	b.Insert(f(4))
	quiesce(t, n)
	want := []string{"(1)", "(2)", "(3)", "(10)"}
	if got := tuples(alice, "data"); !slices.Equal(got, want) {
		t.Errorf("data = %v, want %v", got, want)
	}
}

// TestApplyOrderAcrossBatches: batches queued for one stage apply in the
// order they were applied.
func TestApplyOrderAcrossBatches(t *testing.T) {
	n, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	if err := alice.DeclareRelation("data", ast.Extensional, "id"); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	f := func(i int64) ast.Fact { return ast.NewFact("data", "alice", value.Int(i)) }
	ctx := context.Background()
	for _, b := range []*engine.Batch{
		engine.NewBatch().Insert(f(1)),
		engine.NewBatch().Delete(f(1)), // net: absent
		engine.NewBatch().Delete(f(2)),
		engine.NewBatch().Insert(f(2)), // net: present
	} {
		if err := alice.Apply(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, n)
	if got := tuples(alice, "data"); len(got) != 1 || got[0] != "(2)" {
		t.Errorf("data = %v, want [(2)]", got)
	}
}

// TestApplyConcurrentWithStages: batches and single Inserts from several
// goroutines, staged while the peer's loop keeps ingesting, all land.
func TestApplyConcurrentWithStages(t *testing.T) {
	n, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	if err := alice.DeclareRelation("data", ast.Extensional, "id"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		_ = alice.Run(ctx) // returns ctx's error once cancelled
	}()
	const writers, rounds = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := int64((w*rounds + r) * 11)
				b := engine.NewBatch()
				for i := int64(0); i < 10; i++ {
					b.Insert(ast.NewFact("data", "alice", value.Int(id+i)))
				}
				if err := alice.Apply(context.Background(), b); err != nil {
					t.Error(err)
				}
				if err := alice.Insert(ast.NewFact("data", "alice", value.Int(id+10))); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	cancel()
	<-stopped
	quiesce(t, n)
	if got, want := len(alice.Query("data")), writers*rounds*11; got != want {
		t.Errorf("data has %d tuples, want %d", got, want)
	}
}
