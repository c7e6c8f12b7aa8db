package peer

import (
	"context"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/protocol"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/value"
)

// TestDurableOutboxRedeliversAfterRestart exercises the one delivery a
// restarted sender cannot regenerate from its rules: a maintained *delete*.
// After a crash, a fresh engine re-derives and re-sends everything it still
// derives — but a retraction emitted while the destination was unreachable
// exists nowhere except the outbox. A WAL-backed peer must recover it from
// its log and deliver it, or the receiver keeps the stale fact
// forever.
func TestDurableOutboxRedeliversAfterRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	epR, err := transport.ListenTCP(ctx, "rcv", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := New(Config{Name: "rcv"}, epR)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	if err := rcv.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		t.Fatal(err)
	}

	openSender := func(rcvAddr string) *Peer {
		w, err := store.OpenWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := transport.ListenTCP(ctx, "sender", "127.0.0.1:0", map[string]string{"rcv": rcvAddr})
		if err != nil {
			t.Fatal(err)
		}
		ep.DialTimeout = 500 * time.Millisecond
		p, err := New(Config{Name: "sender", WAL: w}, ep)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	drive := func(deadline time.Duration, sender *Peer, done func() bool) bool {
		end := time.Now().Add(deadline)
		for time.Now().Before(end) {
			if sender != nil && sender.HasWork() {
				sender.RunStage()
			}
			if rcv.HasWork() {
				rcv.RunStage()
			}
			if done() {
				return true
			}
			time.Sleep(2 * time.Millisecond)
		}
		return false
	}

	// Phase 1: normal operation — the maintained view reaches the receiver.
	sender := openSender(epR.Addr())
	if err := sender.LoadSource(`
		relation extensional src@sender(x);
		view@rcv($x) :- src@sender($x);
	`); err != nil {
		t.Fatal(err)
	}
	if err := sender.InsertString(`src@sender(1);`); err != nil {
		t.Fatal(err)
	}
	if !drive(10*time.Second, sender, func() bool { return len(rcv.Query("view")) == 1 }) {
		t.Fatalf("view never converged: %v", rcv.Query("view"))
	}

	// Phase 2: the receiver becomes unreachable; the sender retracts the
	// fact (maintained delete enqueued, undeliverable) and crashes.
	sender.Endpoint().(*transport.TCPEndpoint).AddPeer("rcv", "127.0.0.1:1")
	if err := sender.DeleteString(`src@sender(1);`); err != nil {
		t.Fatal(err)
	}
	sender.RunStage()
	if total, _ := sender.OutboxPending(); total == 0 {
		t.Fatalf("retraction was not queued")
	}
	if err := sender.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 3: the sender restarts with the receiver reachable again. Its
	// engine no longer derives view@rcv(1) and so will never re-send a
	// retraction — only the recovered outbox entry can fix the receiver.
	sender = openSender(epR.Addr())
	defer sender.Close()
	if err := sender.LoadSource(`view@rcv($x) :- src@sender($x);`); err != nil {
		t.Fatal(err)
	}
	if !drive(10*time.Second, sender, func() bool { return len(rcv.Query("view")) == 0 }) {
		t.Fatalf("stale fact survived the sender restart: view = %v", rcv.Query("view"))
	}
}

// TestVolatileSenderRestartStartsFreshStream: a volatile sender restarting
// under the same name begins a new stream epoch, which the receiver adopts
// — its re-derived sends must be applied, not misread as replays of the old
// incarnation's sequence numbers and silently dropped.
func TestVolatileSenderRestartStartsFreshStream(t *testing.T) {
	ctx := context.Background()
	epR, err := transport.ListenTCP(ctx, "rcv", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := New(Config{Name: "rcv"}, epR)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	if err := rcv.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		t.Fatal(err)
	}

	openSender := func() *Peer {
		ep, err := transport.ListenTCP(ctx, "sender", "127.0.0.1:0", map[string]string{"rcv": epR.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(Config{Name: "sender"}, ep)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.LoadSource(`
			relation extensional src@sender(x);
			view@rcv($x) :- src@sender($x);
		`); err != nil {
			t.Fatal(err)
		}
		return p
	}
	drive := func(sender *Peer, deadline time.Duration, done func() bool) bool {
		end := time.Now().Add(deadline)
		for time.Now().Before(end) {
			if sender.HasWork() {
				sender.RunStage()
			}
			if rcv.HasWork() {
				rcv.RunStage()
			}
			if done() {
				return true
			}
			time.Sleep(2 * time.Millisecond)
		}
		return false
	}

	// First incarnation delivers two facts (receiver watermark advances).
	sender := openSender()
	if err := sender.InsertString(`src@sender(1);`); err != nil {
		t.Fatal(err)
	}
	if err := sender.InsertString(`src@sender(2);`); err != nil {
		t.Fatal(err)
	}
	if !drive(sender, 10*time.Second, func() bool { return len(rcv.Query("view")) == 2 }) {
		t.Fatalf("initial facts never arrived: %v", rcv.Query("view"))
	}
	if err := sender.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation: volatile restart, fresh state, one new fact. Its
	// stream restarts at seq 1 — without epoch adoption the receiver would
	// dedup it against the old watermark and never see (3).
	sender = openSender()
	defer sender.Close()
	if err := sender.InsertString(`src@sender(3);`); err != nil {
		t.Fatal(err)
	}
	if !drive(sender, 10*time.Second, func() bool {
		for _, tup := range rcv.Query("view") {
			if tup[0].IntVal() == 3 {
				return true
			}
		}
		return false
	}) {
		t.Fatalf("restarted sender's stream was deduplicated against the old incarnation: view = %v", rcv.Query("view"))
	}
}

// TestDurableWatermarkSuppressesReplayAfterRestart: a durable receiver that
// applied a message, then crashed, must not re-apply the sender's
// retransmission after recovery — the applied watermark is durable too.
func TestDurableWatermarkSuppressesReplayAfterRestart(t *testing.T) {
	dir := t.TempDir()

	// Each phase gets a fresh bus (so nothing but the WAL directory's
	// durable state can carry over between them).
	open := func() (*Peer, *transport.BusEndpoint) {
		bus := transport.NewBus()
		w, err := store.OpenWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(Config{Name: "alice", WAL: w, SyncEmit: true}, bus.Endpoint("alice"))
		if err != nil {
			t.Fatal(err)
		}
		return p, bus.Endpoint("fake")
	}

	p, fake := open()
	if err := p.DeclareRelation("data", ast.Extensional, "id"); err != nil {
		t.Fatal(err)
	}
	msg := protocol.DataMsg{Seq: 1, Msg: protocol.FactsMsg{Ops: []protocol.FactDelta{
		{Fact: ast.NewFact("data", "alice", value.Int(7))},
	}}}
	ctx := context.Background()
	if err := fake.Send(ctx, "alice", msg); err != nil {
		t.Fatal(err)
	}
	p.RunStage()
	if got := len(p.Query("data")); got != 1 {
		t.Fatalf("data = %d tuples, want 1", got)
	}
	// The fact is then deleted locally — durably.
	if err := p.DeleteString(`data@alice(7);`); err != nil {
		t.Fatal(err)
	}
	p.RunStage()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart; the sender (not having seen an ack) retransmits seq 1. The
	// recovered watermark must suppress it.
	p, fake = open()
	defer p.Close()
	if err := fake.Send(ctx, "alice", msg); err != nil {
		t.Fatal(err)
	}
	p.RunStage()
	if got := p.Query("data"); len(got) != 0 {
		t.Fatalf("replay after restart resurrected the fact: %v", got)
	}
	// And it re-acks so the sender can finally drop the entry.
	acked := false
	for _, env := range fake.Drain() {
		if a, ok := env.Msg.(protocol.AckMsg); ok && a.Seq >= 1 {
			acked = true
		}
	}
	if !acked {
		t.Fatalf("replay after restart was not re-acked")
	}
}
