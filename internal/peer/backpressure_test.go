package peer

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/errdefs"
	"repro/internal/value"
)

// remoteBatch builds a batch of inserts for data@dst.
func remoteBatch(dst string, vals ...int64) *engine.Batch {
	b := engine.NewBatch()
	for _, v := range vals {
		b.Insert(ast.NewFact("data", dst, value.Int(v)))
	}
	return b
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestApplyFailFastBackpressure: a full outbox queue under AdmitFailFast
// rejects Apply with ErrBackpressure instead of growing.
func TestApplyFailFastBackpressure(t *testing.T) {
	n := closingNetwork(t)
	alice, err := n.NewPeer(Config{Name: "alice", OutboxLimit: 2, Admission: AdmitFailFast})
	if err != nil {
		t.Fatal(err)
	}
	// sink is attached to the bus but never runs stages, so it never acks:
	// alice's entries stay pending forever.
	if _, err := n.NewPeer(Config{Name: "sink"}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := int64(0); i < 2; i++ {
		if err := alice.Apply(ctx, remoteBatch("sink", i)); err != nil {
			t.Fatalf("apply %d within the limit: %v", i, err)
		}
	}
	err = alice.Apply(ctx, remoteBatch("sink", 99))
	if !errors.Is(err, errdefs.ErrBackpressure) {
		t.Fatalf("apply over the limit = %v, want ErrBackpressure", err)
	}
	if got := alice.Stats().BackpressureRejections; got != 1 {
		t.Errorf("BackpressureRejections = %d, want 1", got)
	}
	// Stage emissions stay exempt: Insert commits past the full queue.
	if err := alice.Insert(ast.NewFact("data", "sink", value.Int(7))); err != nil {
		t.Errorf("Insert blocked by admission control: %v", err)
	}
}

// TestApplyBlocksUntilSpace: under AdmitBlock a full queue parks the Apply
// caller, and it completes once the destination starts acking.
func TestApplyBlocksUntilSpace(t *testing.T) {
	n := closingNetwork(t)
	alice, err := n.NewPeer(Config{Name: "alice", OutboxLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	shrinkOutboxTimers(alice, 20*time.Millisecond)
	sink, err := n.NewPeer(Config{Name: "sink"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.DeclareRelation("data", ast.Extensional, "x"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := int64(0); i < 2; i++ {
		if err := alice.Apply(ctx, remoteBatch("sink", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Alice's loop runs throughout (it must ingest the acks), but with the
	// sink asleep no acks arrive and the queue stays full.
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go alice.Run(runCtx)
	done := make(chan error, 1)
	go func() { done <- alice.Apply(ctx, remoteBatch("sink", 99)) }()
	select {
	case err := <-done:
		t.Fatalf("apply over the limit returned early: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	// Wake the sink: its stage loop drains and acks, freeing queue space.
	go sink.Run(runCtx)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked apply after space freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("apply still blocked after the destination started acking")
	}
	if alice.Stats().BackpressureWaits == 0 {
		t.Error("BackpressureWaits = 0, want > 0")
	}
}

// TestApplyBackpressureCtxExpiry: a blocking admission that cannot make
// progress surfaces the caller's context error wrapped in ErrBackpressure.
func TestApplyBackpressureCtxExpiry(t *testing.T) {
	n := closingNetwork(t)
	alice, err := n.NewPeer(Config{Name: "alice", OutboxLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.NewPeer(Config{Name: "sink"}); err != nil {
		t.Fatal(err)
	}
	if err := alice.Apply(context.Background(), remoteBatch("sink", 1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = alice.Apply(ctx, remoteBatch("sink", 2))
	if !errors.Is(err, errdefs.ErrBackpressure) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrBackpressure wrapping DeadlineExceeded", err)
	}
}

// TestApplyPendingOpsBound: the staged-local-update queue is bounded the
// same way, and a stage drains it back under the limit.
func TestApplyPendingOpsBound(t *testing.T) {
	n := closingNetwork(t)
	alice, err := n.NewPeer(Config{Name: "alice", MaxPendingOps: 2, Admission: AdmitFailFast})
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.DeclareRelation("data", ast.Extensional, "x"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := int64(0); i < 2; i++ {
		if err := alice.Apply(ctx, remoteBatch("alice", i)); err != nil {
			t.Fatal(err)
		}
	}
	err = alice.Apply(ctx, remoteBatch("alice", 99))
	if !errors.Is(err, errdefs.ErrBackpressure) {
		t.Fatalf("apply over MaxPendingOps = %v, want ErrBackpressure", err)
	}
	// One stage drains the queue; admission reopens.
	alice.RunStage()
	if err := alice.Apply(ctx, remoteBatch("alice", 100)); err != nil {
		t.Fatalf("apply after drain: %v", err)
	}
	// An oversized batch admits when the queue is empty rather than
	// deadlocking against a bound it can never fit under.
	alice.RunStage()
	if err := alice.Apply(ctx, remoteBatch("alice", 1, 2, 3, 4, 5)); err != nil {
		t.Fatalf("oversized batch on empty queue: %v", err)
	}
}

// TestSlowPeerShedResetsStream: a destination with pending entries and no
// ack progress for the shed window has its stream reset with the backlog
// discarded — the queue depth collapses to the single repair entry.
func TestSlowPeerShedResetsStream(t *testing.T) {
	n := closingNetwork(t)
	alice, err := n.NewPeer(Config{Name: "alice", OutboxShedAfter: 80 * time.Millisecond, ResyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	shrinkOutboxTimers(alice, 20*time.Millisecond)
	if _, err := n.NewPeer(Config{Name: "bob"}); err != nil { // never acks
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := int64(0); i < 5; i++ {
		if err := alice.Apply(ctx, remoteBatch("bob", i)); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, 3*time.Second, func() bool {
		return alice.Stats().OutboxSheds >= 1
	}, "stream to the unackable peer never shed")
	eventually(t, time.Second, func() bool {
		total, _ := alice.OutboxPending()
		return total == 1
	}, "backlog not discarded: pending != 1 (the repair) after shed")
	if alice.Stats().OutboxResets == 0 {
		t.Error("OutboxResets = 0 after a shed")
	}
}

// TestShedRepairedByResync is the end-to-end acceptance: a derived view
// maintained at a stalled destination survives a shed — when the
// destination wakes up it adopts the fresh stream and the shed stream's
// repair run rebuilds the full view, despite the discarded backlog.
func TestShedRepairedByResync(t *testing.T) {
	n := closingNetwork(t)
	alice, err := n.NewPeer(Config{Name: "alice", OutboxShedAfter: 80 * time.Millisecond, ResyncInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	shrinkOutboxTimers(alice, 20*time.Millisecond)
	bob, err := n.NewPeer(Config{Name: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.DeclareRelation("mirror", ast.Extensional, "x"); err != nil {
		t.Fatal(err)
	}
	if err := alice.LoadSource(`
		relation extensional data@alice(x);
		relation extensional mirror@bob(x);
		mirror@bob($x) :- data@alice($x);
	`); err != nil {
		t.Fatal(err)
	}
	actx, acancel := context.WithCancel(context.Background())
	defer acancel()
	go alice.Run(actx)

	const N = 20
	b := engine.NewBatch()
	for i := int64(0); i < N; i++ {
		b.Insert(ast.NewFact("data", "alice", value.Int(i)))
	}
	if err := alice.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	// bob stays asleep until the shed has happened.
	eventually(t, 5*time.Second, func() bool {
		return alice.Stats().OutboxSheds >= 1
	}, "stream to the stalled peer never shed")

	bctx, bcancel := context.WithCancel(context.Background())
	defer bcancel()
	go bob.Run(bctx)
	eventually(t, 5*time.Second, func() bool {
		return len(bob.Query("mirror")) == N
	}, "shed repair did not rebuild the maintained view at the recovered peer")
}
