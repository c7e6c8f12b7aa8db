package peer

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/value"
)

// resyncTestInterval is fast enough that a periodic advert fires within a
// test, slow enough not to flood the in-process bus.
const resyncTestInterval = 20 * time.Millisecond

// newResyncPeer attaches a fresh volatile peer to the network's bus with
// the outbox timers and the anti-entropy clock shrunk to test speed.
// interval < 0 disables periodic adverts.
func newResyncPeer(t *testing.T, n *Network, name string, interval time.Duration) *Peer {
	t.Helper()
	p, err := New(Config{Name: name, ResyncInterval: interval}, n.Bus().Endpoint(name))
	if err != nil {
		t.Fatal(err)
	}
	shrinkOutboxTimers(p, 10*time.Millisecond)
	n.Add(p)
	return p
}

// shrinkOutboxTimers sets p's retransmission timer to ackTimeout and its
// retry backoff to 2ms doubling up to 400ms, so delivery cycles run at test
// speed. Call it before p enqueues anything: flushers read the fields.
func shrinkOutboxTimers(p *Peer, ackTimeout time.Duration) {
	p.outbox.ackTimeout = ackTimeout
	p.outbox.baseBackoff = 2 * time.Millisecond
	p.outbox.maxBackoff = 400 * time.Millisecond
}

// lossyEndpoint is a link that silently loses the messages its drop func
// selects (none while it is unset).
type lossyEndpoint struct {
	transport.Endpoint
	drop atomic.Pointer[func(protocol.Payload) bool]
}

func (e *lossyEndpoint) Send(ctx context.Context, to string, msg protocol.Payload) error {
	if drop := e.drop.Load(); drop != nil && (*drop)(msg) {
		return nil
	}
	return e.Endpoint.Send(ctx, to, msg)
}

// newLossyPeer is newResyncPeer, adverts off, behind a lossyEndpoint.
func newLossyPeer(t *testing.T, n *Network, name string) (*Peer, *lossyEndpoint) {
	t.Helper()
	link := &lossyEndpoint{Endpoint: n.Bus().Endpoint(name)}
	p, err := New(Config{Name: name, ResyncInterval: -1}, link)
	if err != nil {
		t.Fatal(err)
	}
	shrinkOutboxTimers(p, 10*time.Millisecond)
	n.Add(p)
	return p, link
}

// loadViewSender loads the canonical maintained-view program at the sender.
func loadViewSender(t *testing.T, a *Peer) {
	t.Helper()
	if err := a.LoadSource(`
		relation extensional src@a(x);
		view@b($x) :- src@a($x);
	`); err != nil {
		t.Fatal(err)
	}
}

// TestVolatileReceiverRestartResyncs: a volatile receiver holding a remotely
// maintained view crashes and restarts, and the sender *never changes
// again* — so no delta will ever flow. The sender's periodic digest advert,
// a sequenced entry of the old stream, reaches the restarted (empty)
// receiver mid-sequence: the stream is wedged, so the receiver asks for a
// stream reset, whose full-range repair run restores the view to the
// fault-free fixpoint. The control arm runs the same schedule with
// anti-entropy disabled and must stay diverged: nothing else ever reaches
// the restarted receiver.
func TestVolatileReceiverRestartResyncs(t *testing.T) {
	for _, resync := range []bool{true, false} {
		name := "with-resync"
		interval := resyncTestInterval
		if !resync {
			name = "without-resync"
			interval = -1
		}
		t.Run(name, func(t *testing.T) {
			n := closingNetwork(t)
			a := newResyncPeer(t, n, "a", interval)
			defer a.Close()
			loadViewSender(t, a)
			b := newResyncPeer(t, n, "b", interval)
			if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(42))
			present := map[int64]bool{}
			for i := 0; i < 40; i++ {
				k := rng.Int63n(8)
				var err error
				if present[k] {
					err = a.Delete(ast.NewFact("src", "a", value.Int(k)))
				} else {
					err = a.Insert(ast.NewFact("src", "a", value.Int(k)))
				}
				if err != nil {
					t.Fatal(err)
				}
				present[k] = !present[k]
				drive([]*Peer{a, b}, func() bool { return false }, time.Millisecond)
			}
			var want []value.Tuple
			for k, in := range present {
				if in {
					want = append(want, value.Tuple{value.Int(k)})
				}
			}
			value.SortTuples(want)
			expected := fmt.Sprint(want)
			if expected == "[]" {
				t.Fatal("degenerate schedule: fixpoint is empty")
			}
			if !drive([]*Peer{a, b}, func() bool { return tupleSet(b, "view") == expected }, 10*time.Second) {
				t.Fatalf("pre-crash convergence failed: got %s want %s", tupleSet(b, "view"), expected)
			}
			// Let every in-flight entry be acknowledged before the crash:
			// a leftover unacked entry would be retransmitted into the
			// fresh receiver and wedge the stream whether adverts are on or
			// not. This test pins down the idle sender, whose periodic
			// advert is the only message the fresh receiver ever sees.
			if !drive([]*Peer{a, b}, func() bool { total, _ := a.OutboxPending(); return total == 0 }, 10*time.Second) {
				t.Fatal("sender outbox never drained before the crash")
			}
			// What an unchanged view costs per anti-entropy period: one
			// advert, smaller than the re-send it stands in for.
			a.mu.Lock()
			advert, err := protocol.EncodePayload(a.digestMsgLocked("b"))
			a.mu.Unlock()
			if full := a.ViewRepairBytes("b"); err != nil || uint64(len(advert)) >= full {
				t.Errorf("digest advert is %d bytes (err %v), the view's full-range repair run %d", len(advert), err, full)
			}

			// Crash the receiver and bring up a fresh incarnation under the
			// same name. The sender's relations do not change again.
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			b2 := newResyncPeer(t, n, "b", interval)
			defer b2.Close()
			if err := b2.DeclareRelation("view", ast.Intensional, "x"); err != nil {
				t.Fatal(err)
			}

			if resync {
				if !drive([]*Peer{a, b2}, func() bool { return tupleSet(b2, "view") == expected }, 20*time.Second) {
					t.Fatalf("restarted receiver never resynced:\n got %s\nwant %s\n(sender stats: %+v)",
						tupleSet(b2, "view"), expected, a.Stats())
				}
				if st := b2.Stats(); st.ResyncRequested == 0 {
					t.Errorf("receiver recovered without ever requesting a resync: %+v", st)
				}
				if st := a.Stats(); st.ResyncRangedRepairBytes != a.ViewRepairBytes("b") || st.ResyncRangeDigestBytes != 0 {
					t.Errorf("sender should have repaired the empty receiver by shipping each fact once (%d bytes), no bisection: %+v",
						a.ViewRepairBytes("b"), st)
				}
			} else {
				// Divergence is the documented pre-resync behavior: nothing
				// re-teaches the restarted receiver. Give it ample time to
				// prove no mechanism kicks in.
				drive([]*Peer{a, b2}, func() bool { return false }, 500*time.Millisecond)
				if got := tupleSet(b2, "view"); got == expected {
					t.Fatalf("receiver recovered with resync disabled — the control arm is broken: %s", got)
				}
				if got := len(b2.Query("view")); got != 0 {
					t.Fatalf("view partially refilled without resync: %d tuples", got)
				}
			}
		})
	}
}

// TestReceiverRestartStreamRepairedOnNextSend: with periodic adverts
// disabled, the data-driven repair must still work — a restarted receiver
// that sees the sender's next mid-sequence delta has a wedged stream (the
// acknowledged prefix is gone from the sender), asks for a reset, and the
// reset stream's repair run restores the *whole* view, not just the new delta. On the
// pre-session code this scenario wedged the stream forever: the receiver
// dropped the gap and the sender retransmitted it until the end of time.
func TestReceiverRestartStreamRepairedOnNextSend(t *testing.T) {
	n := closingNetwork(t)
	a := newResyncPeer(t, n, "a", -1)
	defer a.Close()
	loadViewSender(t, a)
	b := newResyncPeer(t, n, "b", -1)
	if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		if err := a.Insert(ast.NewFact("src", "a", value.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if !drive([]*Peer{a, b}, func() bool { return len(b.Query("view")) == 5 }, 10*time.Second) {
		t.Fatalf("initial convergence failed: %v", b.Query("view"))
	}

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := newResyncPeer(t, n, "b", -1)
	defer b2.Close()
	if err := b2.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		t.Fatal(err)
	}

	// The sender changes: one new fact rides the existing stream at a
	// sequence the fresh receiver cannot follow.
	if err := a.Insert(ast.NewFact("src", "a", value.Int(99))); err != nil {
		t.Fatal(err)
	}
	if !drive([]*Peer{a, b2}, func() bool { return len(b2.Query("view")) == 6 }, 20*time.Second) {
		t.Fatalf("restarted receiver never repaired the stream: view = %v (want all 6)", b2.Query("view"))
	}
}

// TestEpochAdoptionDropsStaleSupport: a volatile *sender* that crashes with
// an undelivered retraction re-derives only what it still derives; its old
// incarnation's facts would survive at the receiver forever. Adopting the
// restarted sender's fresh epoch must solicit its advert, whose comparison
// asks for the diverging ranges afresh — the repair no longer covers the
// stale fact, nor anything of a relation the new incarnation does not
// maintain at all — and the receiver drops both and converges to the new
// fixpoint.
func TestEpochAdoptionDropsStaleSupport(t *testing.T) {
	n := closingNetwork(t)
	a := newResyncPeer(t, n, "a", -1)
	loadViewSender(t, a)
	if _, err := a.AddRule(`gone@b($x) :- src@a($x)`); err != nil {
		t.Fatal(err)
	}
	b := newResyncPeer(t, n, "b", -1)
	defer b.Close()
	for _, rel := range []string{"view", "gone"} {
		if err := b.DeclareRelation(rel, ast.Intensional, "x"); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 3; i++ {
		if err := a.Insert(ast.NewFact("src", "a", value.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if !drive([]*Peer{a, b}, func() bool { return len(b.Query("view")) == 3 && len(b.Query("gone")) == 3 }, 10*time.Second) {
		t.Fatalf("initial convergence failed: %v %v", b.Query("view"), b.Query("gone"))
	}

	// The sender crashes; its new incarnation derives only view@b{1, 2} —
	// fact 3 and all of gone@b are the stale support nothing will ever
	// retract explicitly.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a2 := newResyncPeer(t, n, "a", -1)
	defer a2.Close()
	loadViewSender(t, a2)
	for i := int64(1); i <= 2; i++ {
		if err := a2.Insert(ast.NewFact("src", "a", value.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	want := fmt.Sprint([]value.Tuple{{value.Int(1)}, {value.Int(2)}})
	if !drive([]*Peer{a2, b}, func() bool { return tupleSet(b, "view") == want && len(b.Query("gone")) == 0 }, 20*time.Second) {
		t.Fatalf("stale support survived the sender restart:\n got %s and gone@b %s\nwant %s and nothing",
			tupleSet(b, "view"), tupleSet(b, "gone"), want)
	}
}

// TestEpochAdoptionRepairBusySender: the restarted sender of
// TestEpochAdoptionDropsStaleSupport does not fall silent — it emits a delta
// per stage while the receiver is still catching up, so the advert the
// adoption solicits describes a stream position the receiver has not reached
// when it is built. With periodic adverts off nothing but that one advert
// can ever retract the stale support: it must be compared exactly when the
// receiver gets there. The second arm loses the request itself, which the
// receiver repeats on later messages of the stream.
func TestEpochAdoptionRepairBusySender(t *testing.T) {
	for _, loseRequest := range []bool{false, true} {
		t.Run(fmt.Sprintf("loseRequest=%v", loseRequest), func(t *testing.T) {
			n := closingNetwork(t)
			a := newResyncPeer(t, n, "a", -1)
			loadViewSender(t, a)
			if _, err := a.AddRule(`gone@b($x) :- src@a($x)`); err != nil {
				t.Fatal(err)
			}
			b, link := newLossyPeer(t, n, "b")
			defer b.Close()
			for _, rel := range []string{"view", "gone"} {
				if err := b.DeclareRelation(rel, ast.Intensional, "x"); err != nil {
					t.Fatal(err)
				}
			}
			for i := int64(1001); i <= 1003; i++ {
				if err := a.Insert(ast.NewFact("src", "a", value.Int(i))); err != nil {
					t.Fatal(err)
				}
			}
			if !drive([]*Peer{a, b}, func() bool { return len(b.Query("view")) == 3 && len(b.Query("gone")) == 3 }, 10*time.Second) {
				t.Fatalf("initial convergence failed: %v %v", b.Query("view"), b.Query("gone"))
			}

			var lost atomic.Int32
			if loseRequest {
				drop := func(msg protocol.Payload) bool {
					req, ok := msg.(protocol.ResyncRequestMsg)
					return ok && !req.Reset && lost.Add(1) == 1
				}
				link.drop.Store(&drop)
			}
			a.Close()
			a2 := newResyncPeer(t, n, "a", -1)
			defer a2.Close()
			loadViewSender(t, a2)
			// One delta per sender stage; the receiver only gets a turn every
			// tenth, so it lags the stream throughout. The lost-request arm
			// keeps the stream busy past the request limiter.
			const facts = 200
			for i := int64(0); i < facts; i++ {
				if err := a2.Insert(ast.NewFact("src", "a", value.Int(i))); err != nil {
					t.Fatal(err)
				}
				a2.RunStage()
				if i%10 == 0 {
					b.RunStage()
				}
				if loseRequest && i >= facts-10 {
					drive([]*Peer{a2, b}, func() bool { return false }, resyncRequestTTL/8)
				}
			}
			if !drive([]*Peer{a2, b}, func() bool { return len(b.Query("view")) == facts && len(b.Query("gone")) == 0 }, 10*time.Second) {
				t.Fatalf("stale support survived a busy restarted sender: view@b has %d facts (want %d), gone@b %d (want 0)\nreceiver: %+v",
					len(b.Query("view")), facts, len(b.Query("gone")), b.Stats())
			}
			if loseRequest && (lost.Load() < 2 || b.Stats().ResyncRequested < 2) {
				t.Errorf("the lost advert request was never repeated (%d sent): %+v", lost.Load(), b.Stats())
			}
		})
	}
}

// TestShedStreamClearsDroppedRelation: a stream restarted by the sender
// (shed) discards its backlog — here the retractions that emptied a whole
// relation, which the restart's repair run cannot state either, since the
// sender maintains nothing in it any more. The advert that ends the run must
// clear it at the receiver, with the receiver's own advert requests lost.
func TestShedStreamClearsDroppedRelation(t *testing.T) {
	n := closingNetwork(t)
	a, aLink := newLossyPeer(t, n, "a")
	defer a.Close()
	if err := a.LoadSource(`
		relation extensional src@a(x);
		relation extensional aux@a(x);
		view@b($x) :- src@a($x);
		gone@b($x) :- aux@a($x);
	`); err != nil {
		t.Fatal(err)
	}
	b, bLink := newLossyPeer(t, n, "b")
	defer b.Close()
	for _, rel := range []string{"view", "gone"} {
		if err := b.DeclareRelation(rel, ast.Intensional, "x"); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 3; i++ {
		for _, rel := range []string{"src", "aux"} {
			if err := a.Insert(ast.NewFact(rel, "a", value.Int(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !drive([]*Peer{a, b}, func() bool {
		pending, _ := a.OutboxPending()
		return len(b.Query("view")) == 3 && len(b.Query("gone")) == 3 && pending == 0
	}, 10*time.Second) {
		t.Fatalf("initial convergence failed: %v %v", b.Query("view"), b.Query("gone"))
	}

	noAdvertRequests := func(msg protocol.Payload) bool {
		req, ok := msg.(protocol.ResyncRequestMsg)
		return ok && !req.Reset
	}
	bLink.drop.Store(&noAdvertRequests)
	allData := func(msg protocol.Payload) bool { _, ok := msg.(protocol.DataMsg); return ok }
	aLink.drop.Store(&allData)
	for i := int64(1); i <= 3; i++ {
		if err := a.Delete(ast.NewFact("aux", "a", value.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if !drive([]*Peer{a, b}, func() bool { pending, _ := a.OutboxPending(); return pending > 0 }, 10*time.Second) {
		t.Fatal("the retractions never reached the sender's outbox")
	}
	a.shedStream("b")
	aLink.drop.Store(nil)

	want := fmt.Sprint([]value.Tuple{{value.Int(1)}, {value.Int(2)}, {value.Int(3)}})
	if !drive([]*Peer{a, b}, func() bool { return tupleSet(b, "view") == want && len(b.Query("gone")) == 0 }, 10*time.Second) {
		t.Fatalf("the relation the sender dropped survived its stream restart: view@b %s, gone@b %s",
			tupleSet(b, "view"), tupleSet(b, "gone"))
	}
	if st := a.Stats(); st.OutboxSheds != 1 {
		t.Errorf("want exactly the one shed: %+v", st)
	}
}

// TestResyncRestoresDelegations: a restarted receiver lost the rules other
// peers had delegated to it, which the delegating peer maintains there and
// would never re-send of its own accord. The stream reset's repair run
// carries them like any maintained fact, so the delegation is re-installed
// and the delegated flow resumes.
func TestResyncRestoresDelegations(t *testing.T) {
	n := closingNetwork(t)
	// c's rule delegates its residual to b; b evaluates it against data@b.
	c := newResyncPeer(t, n, "c", resyncTestInterval)
	defer c.Close()
	if err := c.LoadSource(`
		relation extensional sel@c(p);
		relation intensional out@c(x);
		sel@c("b");
		out@c($x) :- sel@c($p), data@$p($x);
	`); err != nil {
		t.Fatal(err)
	}
	b := newResyncPeer(t, n, "b", resyncTestInterval)
	if err := b.DeclareRelation("data", ast.Extensional, "x"); err != nil {
		t.Fatal(err)
	}
	if err := b.InsertString(`data@b(7);`); err != nil {
		t.Fatal(err)
	}
	if !drive([]*Peer{c, b}, func() bool { return len(c.Query("out")) == 1 }, 10*time.Second) {
		t.Fatalf("delegated flow never produced out@c: %v", c.Query("out"))
	}

	// b restarts, losing the installed delegation and its data.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := newResyncPeer(t, n, "b", resyncTestInterval)
	defer b2.Close()
	if err := b2.DeclareRelation("data", ast.Extensional, "x"); err != nil {
		t.Fatal(err)
	}
	if err := b2.InsertString(`data@b(8);`); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint([]value.Tuple{{value.Int(8)}})
	if !drive([]*Peer{c, b2}, func() bool { return tupleSet(c, "out") == want }, 20*time.Second) {
		t.Fatalf("delegation was never re-installed after the receiver restart:\n out@c = %s, want %s\n delegated at b2: %v",
			tupleSet(c, "out"), want, b2.DelegatedRules())
	}
}

// TestDelegationDivergenceResendsDelegationsOnly: a receiver that lost an
// installed residual, while every fact the sender maintains there still
// matches, learns it from the sender's periodic advert — the residuals are
// one more relation of the digest — and gets it back through a ranged repair
// of that relation alone, without the sender restarting the stream or
// re-shipping a single maintained fact.
func TestDelegationDivergenceResendsDelegationsOnly(t *testing.T) {
	n := closingNetwork(t)
	link := &lossyEndpoint{Endpoint: n.Bus().Endpoint("c")}
	c, err := New(Config{Name: "c", ResyncInterval: resyncTestInterval}, link)
	if err != nil {
		t.Fatal(err)
	}
	shrinkOutboxTimers(c, 10*time.Millisecond)
	n.Add(c)
	defer c.Close()
	var mu sync.Mutex
	var repaired []string // the relation of every ranged repair c sends
	spy := func(msg protocol.Payload) bool {
		if dm, ok := msg.(protocol.DataMsg); ok {
			if rr, ok := dm.Msg.(protocol.RangeRepairMsg); ok {
				mu.Lock()
				repaired = append(repaired, rr.RelID)
				mu.Unlock()
			}
		}
		return false
	}
	link.drop.Store(&spy)
	if err := c.LoadSource(`
		relation extensional sel@c(p);
		relation extensional base@c(x);
		relation intensional out@c(x);
		sel@c("b");
		base@c(1);
		base@c(2);
		out@c($x) :- sel@c($p), data@$p($x);
		mirror@b($x) :- base@c($x);
	`); err != nil {
		t.Fatal(err)
	}
	b := newResyncPeer(t, n, "b", resyncTestInterval)
	defer b.Close()
	if err := b.DeclareRelation("data", ast.Extensional, "x"); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareRelation("mirror", ast.Intensional, "x"); err != nil {
		t.Fatal(err)
	}
	if err := b.InsertString(`data@b(7);`); err != nil {
		t.Fatal(err)
	}
	if !drive([]*Peer{c, b}, func() bool { return len(c.Query("out")) == 1 && len(b.Query("mirror")) == 2 }, 10*time.Second) {
		t.Fatalf("initial convergence failed: out@c = %v, mirror@b = %v", c.Query("out"), b.Query("mirror"))
	}

	// b loses the installed residual, from its ledger and its program.
	installs := b.Stats().DelegationsIn
	loseTemplates(b, "c")
	b.Poke()
	if !drive([]*Peer{c, b}, func() bool {
		return b.Stats().DelegationsIn > installs && len(b.DelegatedRules()["c"]) == 1 && len(c.Query("out")) == 1
	}, 20*time.Second) {
		t.Fatalf("the residual was never restored: out@c = %v, delegated at b: %v", c.Query("out"), b.DelegatedRules())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(repaired) == 0 {
		t.Fatal("the residual came back without a ranged repair")
	}
	for _, relID := range repaired {
		if relID != engine.TemplateRel+"@b" {
			t.Errorf("c repaired %s too, want the residuals' relation only: %v", relID, repaired)
		}
	}
	if st := c.Stats(); st.OutboxResets != 0 {
		t.Errorf("the lost residual restarted the stream: %+v", st)
	}
}

// TestBisectionAgainstBusySender: the restarted sender of
// TestEpochAdoptionRepairBusySender already maintains more than
// rangedRepairLeaf facts when it answers the solicited advert, so only the
// bisection dialogue can find the three stale facts — while every sender
// stage emits another delta and the receiver lags. A range-digest reply
// stamped with the position it was built at would always trail the delta
// sent before it and be dropped, and with periodic adverts off nothing
// would restart the dialogue; sequenced, it is compared at its own position.
func TestBisectionAgainstBusySender(t *testing.T) {
	n := NewSequentialNetwork()
	newPeer := func(name string) *Peer {
		p, err := n.NewPeer(Config{Name: name, ResyncInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := newPeer("a"), newPeer("b")
	defer b.Close()
	if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		t.Fatal(err)
	}
	loadViewSender(t, a)
	for i := int64(1001); i <= 1003; i++ {
		if err := a.Insert(ast.NewFact("src", "a", value.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, n)
	a.Close()
	a2 := newPeer("a")
	defer a2.Close()
	loadViewSender(t, a2)
	batch := engine.NewBatch()
	for i := int64(0); i < 2*rangedRepairLeaf; i++ {
		batch.Insert(ast.NewFact("src", "a", value.Int(i)))
	}
	if err := a2.Apply(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	a2.RunStage()
	const busy = 100
	for i := int64(0); i < busy; i++ {
		if err := a2.Insert(ast.NewFact("src", "a", value.Int(10_000+i))); err != nil {
			t.Fatal(err)
		}
		a2.RunStage()
		if i%4 == 0 {
			b.RunStage()
		}
	}
	quiesce(t, n)
	if got, want := len(b.Query("view")), 2*rangedRepairLeaf+busy; got != want {
		t.Fatalf("view@b holds %d facts, want %d: the stale support survived (%+v)", got, want, b.Stats())
	}
	if b.Stats().ResyncRangesRequested == 0 || a2.Stats().ResyncRangeDigestBytes == 0 {
		t.Fatalf("the repair did not go through a bisection round: receiver %+v, sender %+v", b.Stats(), a2.Stats())
	}
}

// unreachableEndpoint loses every message to one destination: silently
// (sends succeed, nothing is acked), or failing every send.
type unreachableEndpoint struct {
	transport.Endpoint
	dst  string
	fail bool
}

func (e *unreachableEndpoint) Send(ctx context.Context, to string, msg protocol.Payload) error {
	if to != e.dst {
		return e.Endpoint.Send(ctx, to, msg)
	}
	if e.fail {
		return transport.ErrInjectedFault
	}
	return nil
}

// TestUnreachableDestinationHoldsOneAdvert: a periodic advert is an outbox
// entry, so a destination that never acks would collect one per period
// unless the clock skips the periods in which one is still pending. Over ten
// periods a black-holed destination and one whose sends fail each hold
// exactly one.
func TestUnreachableDestinationHoldsOneAdvert(t *testing.T) {
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("fail=%v", fail), func(t *testing.T) {
			n := closingNetwork(t)
			link := &unreachableEndpoint{Endpoint: n.Bus().Endpoint("a"), dst: "b", fail: fail}
			a, err := New(Config{Name: "a", ResyncInterval: resyncTestInterval}, link)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			shrinkOutboxTimers(a, 10*time.Millisecond)
			n.Add(a)
			loadViewSender(t, a)
			applySrcFacts(t, a, intRange(5))
			drive([]*Peer{a}, func() bool { return false }, 10*resyncTestInterval)

			dq := a.outbox.queue("b")
			dq.mu.Lock()
			adverts := 0
			for _, e := range dq.entries {
				if m, ok := e.msg.(protocol.DigestMsg); ok && m.Advert {
					adverts++
				}
			}
			entries := len(dq.entries)
			dq.mu.Unlock()
			if st := a.Stats(); adverts != 1 || st.ResyncAdverts != 1 {
				t.Fatalf("the unreachable destination's queue holds %d adverts among %d entries, %d enqueued; want exactly one",
					adverts, entries, st.ResyncAdverts)
			}
		})
	}
}

// TestDurableReceiverRestartRepairedUnderLoad: a durable receiver restarts
// with its applied watermark but an empty support ledger, so the sender's
// stream goes on without a wedge, while the sender emits a delta every stage
// and never has an empty queue when its advert clock fires. The next
// periodic advert, compared at its own stream position, finds the ledger
// short and the ranged repair restores the view — with no stream reset.
func TestDurableReceiverRestartRepairedUnderLoad(t *testing.T) {
	n := NewSequentialNetwork()
	dir := t.TempDir()
	openB := func() *Peer {
		b, err := n.NewPeer(Config{Name: "b", WAL: dir, ResyncInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, err := n.NewPeer(Config{Name: "a", ResyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	loadViewSender(t, a)
	b := openB()
	applySrcFacts(t, a, intRange(20))
	quiesce(t, n)
	if len(b.Query("view")) != 20 {
		t.Fatalf("initial convergence failed: %v", b.Query("view"))
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b = openB()
	defer b.Close()
	if len(b.Query("view")) != 0 {
		t.Fatalf("the restarted receiver kept its intensional view: %v", b.Query("view"))
	}

	want := 20
	for i := int64(0); i < 200 && len(b.Query("view")) != want; i++ {
		if err := a.Insert(ast.NewFact("src", "a", value.Int(1000+i))); err != nil {
			t.Fatal(err)
		}
		want++
		a.RunStage()
		if pending, _ := a.OutboxPending(); pending == 0 {
			t.Fatal("the sender's queue emptied: the stream is not under load")
		}
		b.RunStage()
		time.Sleep(time.Millisecond)
	}
	if got := len(b.Query("view")); got != want {
		t.Fatalf("view@b holds %d facts, want %d: the advert never repaired the restarted receiver (sender %+v, receiver %+v)",
			got, want, a.Stats(), b.Stats())
	}
	if st := a.Stats(); st.ResyncAdverts == 0 || st.OutboxResets != 0 || st.ResyncRangedRepairs == 0 {
		t.Errorf("want the repair to come from a periodic advert and a ranged repair, no stream reset: %+v", st)
	}
}
