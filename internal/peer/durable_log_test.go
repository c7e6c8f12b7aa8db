package peer

import (
	"context"
	"os"
	"sync"
	"testing"
	"time"

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
		alice, err := n.NewPeer(Config{Name: "alice", WAL: dir})
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

// syncSpy is an endpoint that reads the log's fsync count at every data
// entry and every ack it sends.
type syncSpy struct {
	transport.Endpoint
	wal                     *store.WAL
	syncsAtData, syncsAtAck []uint64
}

func (e *syncSpy) Send(ctx context.Context, to string, msg protocol.Payload) error {
	switch msg.(type) {
	case protocol.DataMsg:
		e.syncsAtData = append(e.syncsAtData, e.wal.Syncs())
	case protocol.AckMsg:
		e.syncsAtAck = append(e.syncsAtAck, e.wal.Syncs())
	}
	return e.Endpoint.Send(ctx, to, msg)
}

// TestLogSyncsOncePerStageEnd pins the log's sync points. A stage syncs
// once, at its end, covering what it ingested, the applied watermarks of
// the acks it releases and what it enqueued: a receiving stage's ack and a
// sync-emit stage's transmission both follow that one sync, which fsyncs
// each file the stage appended to once — wal.log for the receiver, both
// files for the emitter. A flush cycle over several destinations of
// entries enqueued outside a stage syncs once before it transmits them,
// and a flush with a clean log does not sync. A stage that cannot sync
// releases no ack.
func TestLogSyncsOncePerStageEnd(t *testing.T) {
	ctx := context.Background()
	bus := transport.NewBus()
	spy := &syncSpy{Endpoint: bus.Endpoint("alice")}
	alice, err := New(Config{Name: "alice", WAL: t.TempDir(), SyncEmit: true}, spy)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	w := alice.wal
	spy.wal = w
	if err := alice.LoadSource(`
		relation extensional data@alice(id);
		relation extensional src@alice(x);
		view@bob($x) :- src@alice($x);
	`); err != nil {
		t.Fatal(err)
	}
	alice.RunStage()

	// A receiving stage: three data entries applied, one sync, then the ack.
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
		t.Errorf("the receiving stage synced the log %d times, want once", got)
	}
	if len(spy.syncsAtAck) != 1 || spy.syncsAtAck[0] != before+1 {
		t.Errorf("fsyncs seen by the acks = %v, want one ack after exactly one sync (from %d)", spy.syncsAtAck, before)
	}

	// A sync-emit stage that applies a local update and emits to bob: one
	// sync of both files, then the transmission.
	bob := bus.Endpoint("bob")
	before = w.Syncs()
	if err := alice.InsertString(`src@alice(1);`); err != nil {
		t.Fatal(err)
	}
	if rep := alice.RunStage(); rep.Applied != 1 || len(rep.Errors) > 0 {
		t.Fatalf("applied %d updates, want 1 (%v)", rep.Applied, rep.Errors)
	}
	if got := w.Syncs() - before; got != 2 {
		t.Errorf("the emitting stage fsynced the log's files %d times, want once each", got)
	}
	if bob.Pending() == 0 {
		t.Fatal("nothing was transmitted to bob")
	}
	if len(spy.syncsAtData) != 1 || spy.syncsAtData[0] != before+2 {
		t.Errorf("fsyncs seen by the transmissions = %v, want one after both files' (from %d)", spy.syncsAtData, before)
	}

	// Two destinations, two queues, one flush cycle: one sync.
	bus.Endpoint("carol")
	before = w.Syncs()
	b := engine.NewBatch().Insert(ast.NewFact("data", "bob", value.Int(1))).Insert(ast.NewFact("data", "carol", value.Int(1)))
	if err := alice.Apply(ctx, b); err != nil {
		t.Fatal(err)
	}
	if got := w.Syncs() - before; got != 1 {
		t.Errorf("the flush cycle synced the log %d times, want once", got)
	}
	if bus.Endpoint("carol").Pending() == 0 || bob.Pending() < 2 {
		t.Errorf("the flush cycle did not transmit to both bob and carol")
	}
	alice.FlushOutbox()
	if w.Syncs()-before != 1 {
		t.Errorf("a flush with a clean log synced it again: %d syncs", w.Syncs()-before)
	}

	// A stage whose sync fails releases no ack.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	msg := protocol.DataMsg{Epoch: 1, Seq: 4, Msg: protocol.FactsMsg{Ops: []protocol.FactDelta{
		{Fact: ast.NewFact("data", "alice", value.Int(4))},
	}}}
	if err := sender.Send(ctx, "alice", msg); err != nil {
		t.Fatal(err)
	}
	if rep := alice.RunStage(); len(rep.Errors) == 0 || len(spy.syncsAtAck) != 1 {
		t.Errorf("a stage that could not sync its log sent %d acks in all (errors %v), want no new one",
			len(spy.syncsAtAck), rep.Errors)
	}
}

// resetSpy is an endpoint that notes, at every data entry it sends,
// whether the entry's stream was logged and the log synced after that.
type resetSpy struct {
	transport.Endpoint
	wal *store.WAL

	mu         sync.Mutex
	epoch      uint64 // the stream logged by the reset
	syncsAtLog uint64 // the log's fsyncs right after the reset was logged
	sent       []bool // per data entry: sent after a sync covering its reset
}

func (e *resetSpy) Send(ctx context.Context, to string, msg protocol.Payload) error {
	if d, ok := msg.(protocol.DataMsg); ok {
		e.mu.Lock()
		e.sent = append(e.sent, d.Epoch == e.epoch && e.wal.Syncs() > e.syncsAtLog)
		e.mu.Unlock()
	}
	return e.Endpoint.Send(ctx, to, msg)
}

// TestResetLoggedBeforeTransmission: a flush that runs while a stream reset
// is being logged transmits none of the reset stream's entries before the
// reset and its entries are logged and synced. The flush is given 200 ms
// to transmit before the records are logged; it must wait for them.
func TestResetLoggedBeforeTransmission(t *testing.T) {
	bus := transport.NewBus()
	spy := &resetSpy{Endpoint: bus.Endpoint("alice")}
	alice, err := New(Config{Name: "alice", WAL: t.TempDir(), SyncEmit: true}, spy)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	spy.wal = alice.wal
	bus.Endpoint("bob")
	logReset := alice.outbox.onReset
	flushed := make(chan struct{})
	alice.outbox.onReset = func(dst string, epoch uint64, entries []outEntry) {
		go func() {
			alice.FlushOutbox()
			close(flushed)
		}()
		select {
		case <-flushed:
		case <-time.After(200 * time.Millisecond):
		}
		logReset(dst, epoch, entries)
		spy.mu.Lock()
		spy.epoch, spy.syncsAtLog = epoch, spy.wal.Syncs()
		spy.mu.Unlock()
	}
	run := protocol.FactsMsg{Ops: []protocol.FactDelta{{Maint: true, Fact: ast.NewFact("view", "bob", value.Int(1))}}}
	alice.outbox.Reset("bob", run)
	<-flushed
	alice.FlushOutbox()
	spy.mu.Lock()
	defer spy.mu.Unlock()
	if len(spy.sent) == 0 {
		t.Fatal("the reset stream's entry was never transmitted")
	}
	for i, covered := range spy.sent {
		if !covered {
			t.Errorf("data entry %d was transmitted before a sync covering its reset", i+1)
		}
	}
}

// TestLogRestartBounded: after 100 000 inserts and deletes churning 1 000
// live facts, the log never holds — and recovery never replays — more than
// the checkpoint rule's bound of twice the live records plus 8 192.
func TestLogRestartBounded(t *testing.T) {
	const live, churn, perStage = 1000, 100_000, 100
	ctx := context.Background()
	dir := t.TempDir()
	p, err := New(Config{Name: "alice", WAL: dir, SyncEmit: true}, transport.NewBus().Endpoint("alice"))
	if err != nil {
		t.Fatal(err)
	}
	w := p.wal
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
	p, err = New(Config{Name: "alice", WAL: dir, SyncEmit: true}, transport.NewBus().Endpoint("alice"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if n := p.wal.Records(); n > bound {
		t.Errorf("recovery replayed %d records, over the bound %d", n, bound)
	}
	got := p.Query("src")
	if len(got) != live || got[0][0].IntVal() != int64(lo) {
		t.Errorf("recovered %d facts from %v, want %d from %d", len(got), got[0], live, lo)
	}
}

// TestLogSyncsPerUpdate: two durable peers, alice shipping each update of
// src to bob's view, fsync their logs at most 3.1 times per single-fact
// update between them, under either scheduler: at the end of alice's stage
// once per file, wal.log for the update and outbox.log for the entry it
// enqueues, and once at the end of bob's, for the delivery and the
// watermark its ack certifies. Bob's ack costs alice no sync of its own.
func TestLogSyncsPerUpdate(t *testing.T) {
	const updates = 200
	for name, newNetwork := range map[string]func() *Network{"concurrent": NewNetwork, "sequential": NewSequentialNetwork} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			n := newNetwork()
			alice, err := n.NewPeer(Config{Name: "alice", WAL: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer alice.Close()
			bob, err := n.NewPeer(Config{Name: "bob", WAL: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer bob.Close()
			if err := bob.DeclareRelation("view", ast.Intensional, "x"); err != nil {
				t.Fatal(err)
			}
			if err := alice.LoadSource(`
				relation extensional src@alice(x);
				view@bob($x) :- src@alice($x);
			`); err != nil {
				t.Fatal(err)
			}
			settle := func() {
				t.Helper()
				if _, _, err := n.RunToQuiescence(ctx, 100); err != nil {
					t.Fatal(err)
				}
			}
			settle()
			syncs := func() uint64 { return alice.wal.Syncs() + bob.wal.Syncs() }
			before := syncs()
			for i := range updates {
				if err := alice.Apply(ctx, engine.NewBatch().Insert(ast.NewFact("src", "alice", value.Int(int64(i))))); err != nil {
					t.Fatal(err)
				}
				settle()
			}
			if got := len(bob.Query("view")); got != updates {
				t.Fatalf("bob's view holds %d facts, want %d", got, updates)
			}
			perUpdate := float64(syncs()-before) / updates
			t.Logf("%.2f fsyncs per update", perUpdate)
			if perUpdate > 3.1 {
				t.Errorf("%.2f fsyncs per update, want at most 3.1", perUpdate)
			}
		})
	}
}
