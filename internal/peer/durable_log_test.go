package peer

import (
	"context"
	"os"
	"testing"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/value"
)

// TestDurablePeerLogFiles: a durable peer that enqueues, is acked, has a
// stream reset and takes a checkpoint keeps exactly the log's two files,
// outbox.log and wal.log, and comes back from them with its facts and its
// stream.
func TestDurablePeerLogFiles(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	open := func() (*Peer, *Peer, *Network) {
		n := NewSequentialNetwork()
		w, err := store.OpenWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		alice, err := n.NewPeer(Config{Name: "alice", WAL: w})
		if err != nil {
			t.Fatal(err)
		}
		bob, err := n.NewPeer(Config{Name: "bob"})
		if err != nil {
			t.Fatal(err)
		}
		if err := bob.DeclareRelation("view", ast.Intensional, "x"); err != nil {
			t.Fatal(err)
		}
		if err := alice.LoadSource(`
			relation extensional src@alice(x);
			view@bob($x) :- src@alice($x);
		`); err != nil {
			t.Fatal(err)
		}
		return alice, bob, n
	}
	settle := func(n *Network) {
		t.Helper()
		if _, _, err := n.RunToQuiescence(ctx, 100); err != nil {
			t.Fatal(err)
		}
	}

	alice, bob, n := open()
	for i := int64(1); i <= 3; i++ {
		if err := alice.Apply(ctx, engine.NewBatch().Insert(ast.NewFact("src", "alice", value.Int(i)))); err != nil {
			t.Fatal(err)
		}
		settle(n)
	}
	if err := alice.DeleteString(`src@alice(1);`); err != nil {
		t.Fatal(err)
	}
	settle(n)
	if acked := alice.Stats().OutboxDelivered; acked == 0 {
		t.Fatal("nothing was acked")
	}
	alice.mu.Lock()
	alice.restartStreamLocked("bob", alice.outbox.Reset)
	alice.mu.Unlock()
	settle(n)
	checkpoint(t, alice)
	if err := alice.InsertString(`src@alice(4);`); err != nil {
		t.Fatal(err)
	}
	settle(n)
	if got := len(bob.Query("view")); got != 3 {
		t.Fatalf("bob's view = %v, want 3 facts", bob.Query("view"))
	}
	if alice.Stats().OutboxResets != 1 {
		t.Fatalf("resets = %d, want 1", alice.Stats().OutboxResets)
	}
	alice.Close()
	bob.Close()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != "outbox.log" || names[1] != "wal.log" {
		t.Fatalf("the log directory holds %v, want exactly outbox.log and wal.log", names)
	}

	alice, bob, n = open()
	defer alice.Close()
	defer bob.Close()
	if got := alice.Query("src"); len(got) != 3 {
		t.Fatalf("recovered src = %v, want 3 facts", got)
	}
	dq := alice.outbox.queue("bob")
	dq.mu.Lock()
	epoch, next := dq.epoch, dq.nextSeq
	dq.mu.Unlock()
	if epoch == alice.outbox.defaultEpoch || next == 0 {
		t.Fatalf("recovered stream to bob at epoch %d seq %d, want the reset stream", epoch, next)
	}
}

// ackSpy is an endpoint that reads the log's fsync count at every ack it
// sends.
type ackSpy struct {
	transport.Endpoint
	wal        *store.WAL
	syncsAtAck []uint64
}

func (e *ackSpy) Send(ctx context.Context, to string, msg protocol.Payload) error {
	if _, ok := msg.(protocol.AckMsg); ok {
		e.syncsAtAck = append(e.syncsAtAck, e.wal.Syncs())
	}
	return e.Endpoint.Send(ctx, to, msg)
}

// TestLogSyncsOncePerStageEnd pins the log's two sync points. A stage that
// applies extensional updates and releases acks syncs once, covering the
// updates and the applied watermark, before those acks go out; a flush
// cycle over several destinations syncs once before it transmits what the
// stage enqueued.
func TestLogSyncsOncePerStageEnd(t *testing.T) {
	ctx := context.Background()
	bus := transport.NewBus()
	w, err := store.OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spy := &ackSpy{Endpoint: bus.Endpoint("alice"), wal: w}
	alice, err := New(Config{Name: "alice", WAL: w, SyncEmit: true}, spy)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	if err := alice.DeclareRelation("data", ast.Extensional, "id"); err != nil {
		t.Fatal(err)
	}
	sender := bus.Endpoint("sender")
	for seq := uint64(1); seq <= 3; seq++ {
		msg := protocol.DataMsg{Epoch: 1, Seq: seq, Msg: protocol.FactsMsg{Ops: []protocol.FactDelta{
			{Fact: ast.NewFact("data", "alice", value.Int(int64(seq)))},
		}}}
		if err := sender.Send(ctx, "alice", msg); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Syncs()
	if rep := alice.RunStage(); rep.Applied != 3 {
		t.Fatalf("applied %d updates, want 3 (%v)", rep.Applied, rep.Errors)
	}
	if got := w.Syncs() - before; got != 1 {
		t.Errorf("the stage synced the log %d times, want once", got)
	}
	if len(spy.syncsAtAck) != 1 || spy.syncsAtAck[0] != before+1 {
		t.Errorf("fsyncs seen by the acks = %v, want one ack after exactly one sync (from %d)", spy.syncsAtAck, before)
	}

	// Two destinations, two queues, one flush cycle: one sync.
	for _, dst := range []string{"bob", "carol"} {
		bus.Endpoint(dst)
	}
	before = w.Syncs()
	b := engine.NewBatch().Insert(ast.NewFact("data", "bob", value.Int(1))).Insert(ast.NewFact("data", "carol", value.Int(1)))
	if err := alice.Apply(ctx, b); err != nil {
		t.Fatal(err)
	}
	if got := w.Syncs() - before; got != 1 {
		t.Errorf("the flush cycle synced the log %d times, want once", got)
	}
	for _, dst := range []string{"bob", "carol"} {
		if bus.Endpoint(dst).Pending() == 0 {
			t.Errorf("nothing was transmitted to %s", dst)
		}
	}
	alice.FlushOutbox()
	if w.Syncs()-before != 1 {
		t.Errorf("a flush with a clean log synced it again: %d syncs", w.Syncs()-before)
	}
}

// TestLogRestartBounded: after 100 000 inserts and deletes churning 1 000
// live facts, the log never holds — and recovery never replays — more than
// the checkpoint rule's bound of twice the live records plus 8 192.
func TestLogRestartBounded(t *testing.T) {
	const live, churn, perStage = 1000, 100_000, 100
	ctx := context.Background()
	dir := t.TempDir()
	w, err := store.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Name: "alice", WAL: w, SyncEmit: true}, transport.NewBus().Endpoint("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DeclareRelation("src", ast.Extensional, "x"); err != nil {
		t.Fatal(err)
	}
	fact := func(i int) ast.Fact { return ast.NewFact("src", "alice", value.Int(int64(i))) }
	b := engine.NewBatch()
	for i := 0; i < live; i++ {
		b.Insert(fact(i))
	}
	if err := p.Apply(ctx, b); err != nil {
		t.Fatal(err)
	}
	p.RunStage()
	// The live records: the epoch, the declaration, one insert per fact.
	bound := 2*(live+2) + 8192
	lo := 0
	for done := 0; done < churn; done += perStage {
		b := engine.NewBatch()
		for i := lo; i < lo+perStage/2; i++ {
			b.Delete(fact(i)).Insert(fact(i + live))
		}
		lo += perStage / 2
		if err := p.Apply(ctx, b); err != nil {
			t.Fatal(err)
		}
		if rep := p.RunStage(); len(rep.Errors) > 0 {
			t.Fatal(rep.Errors)
		}
		if n := w.Records(); n > bound {
			t.Fatalf("after %d operations the log holds %d records, over the bound %d", done+perStage, n, bound)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = store.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err = New(Config{Name: "alice", WAL: w, SyncEmit: true}, transport.NewBus().Endpoint("alice"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if n := w.Records(); n > bound {
		t.Errorf("recovery replayed %d records, over the bound %d", n, bound)
	}
	got := p.Query("src")
	if len(got) != live || got[0][0].IntVal() != int64(lo) {
		t.Errorf("recovered %d facts from %v, want %d from %d", len(got), got[0], live, lo)
	}
}
