package peer

import (
	"context"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/value"
)

// TestDeletionRetractsDerivedFacts: deleting a base fact retracts exactly
// the derived facts that lost their last derivation, across a recursive
// view, and the stage loop does it without recomputing from scratch.
func TestDeletionRetractsDerivedFacts(t *testing.T) {
	n, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	if err := alice.LoadSource(`
		relation extensional edge@alice(a, b);
		relation intensional tc@alice(a, b);
		edge@alice("a","b");
		edge@alice("b","c");
		edge@alice("c","d");
		tc@alice($x,$y) :- edge@alice($x,$y);
		tc@alice($x,$z) :- tc@alice($x,$y), edge@alice($y,$z);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(alice, "tc"); len(got) != 6 {
		t.Fatalf("tc = %v, want 6", got)
	}
	if err := alice.DeleteString(`edge@alice("b","c");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	got := tuples(alice, "tc")
	if len(got) != 2 || got[0] != "(a, b)" || got[1] != "(c, d)" {
		t.Errorf("tc after deletion = %v, want [(a, b) (c, d)]", got)
	}
}

// pullHook is a wrapper pull hook over a scripted service: each stage it
// pulls whatever was queued since the previous one.
type pullHook struct{ queued []engine.FactOp }

func (h *pullHook) BeforeStage(_ *Peer, pull *engine.Batch) error {
	for _, op := range h.queued {
		pull.Add(op)
	}
	h.queued = nil
	return nil
}

func (h *pullHook) AfterStage(*Peer, *StageReport) error { return nil }

// queueRows queues a pull of the service rows src@peer(0..n-1).
func (h *pullHook) queueRows(peer string, n int) {
	for i := 0; i < n; i++ {
		h.queued = append(h.queued, engine.FactOp{Op: ast.Derive, Fact: ast.NewFact("src", peer, value.Int(int64(i)))})
	}
}

// TestHookPeerStaysIncremental: a wrapper peer's pull is ordinary ingestion,
// so a stage whose pull (the service's whole state, as wrappers pull it)
// brings one new row maintains the derived view from that one-row delta
// instead of rebuilding all of it, and a pull that brings nothing new skips
// the stage.
func TestHookPeerStaysIncremental(t *testing.T) {
	n := NewSequentialNetwork()
	w, err := n.NewPeer(Config{Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LoadSource(`
		relation extensional src@w(x);
		relation intensional view@w(x);
		view@w($x) :- src@w($x);
	`); err != nil {
		t.Fatal(err)
	}
	h := &pullHook{}
	w.SetHooks(h)
	h.queueRows("w", 5000)
	quiesce(t, n)
	if got := len(w.Query("view")); got != 5000 {
		t.Fatalf("view holds %d rows after the first pull, want 5000", got)
	}
	h.queueRows("w", 5001)
	w.Poke()
	rep := w.RunStage()
	if !rep.Ran || rep.Derived != 1 || len(rep.Errors) > 0 {
		t.Fatalf("stage pulling one new row: ran=%v derived=%d errors=%v, want one derivation",
			rep.Ran, rep.Derived, rep.Errors)
	}
	if got := len(w.Query("view")); got != 5001 {
		t.Fatalf("view holds %d rows, want 5001", got)
	}
	h.queueRows("w", 5001)
	w.Poke()
	if rep := w.RunStage(); rep.Ran {
		t.Fatalf("a pull that changed nothing ran a stage deriving %d", rep.Derived)
	}
}

// TestDeletionPreservesAlternativeDerivation: a derived tuple with two
// independent derivations survives losing one of them.
func TestDeletionPreservesAlternativeDerivation(t *testing.T) {
	n, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	if err := alice.LoadSource(`
		relation extensional a@alice(x);
		relation extensional b@alice(x);
		relation intensional both@alice(x);
		a@alice("v");
		b@alice("v");
		both@alice($x) :- a@alice($x);
		both@alice($x) :- b@alice($x);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if err := alice.DeleteString(`a@alice("v");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(alice, "both"); len(got) != 1 || got[0] != "(v)" {
		t.Fatalf("both = %v, want [(v)]: the b-derivation still stands", got)
	}
	if err := alice.DeleteString(`b@alice("v");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(alice, "both"); len(got) != 0 {
		t.Errorf("both = %v, want empty after losing the last derivation", got)
	}
}

// TestDeletionStreamsExactSubscriberDeltas: subscribers see exactly the net
// retractions and nothing else — no clear-and-rederive churn.
func TestDeletionStreamsExactSubscriberDeltas(t *testing.T) {
	n, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	if err := alice.LoadSource(`
		relation extensional edge@alice(a, b);
		relation intensional tc@alice(a, b);
		edge@alice("a","b");
		edge@alice("b","c");
		tc@alice($x,$y) :- edge@alice($x,$y);
		tc@alice($x,$z) :- tc@alice($x,$y), edge@alice($y,$z);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	deltas, err := alice.Subscribe(ctx, "tc")
	if err != nil {
		t.Fatal(err)
	}

	// Extending the chain streams exactly the two new closure tuples.
	if err := alice.InsertString(`edge@alice("c","d");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	got := drainDeltas(deltas)
	if len(got) != 3 {
		t.Fatalf("deltas after insert = %v, want 3 inserts (c,d) (b,d) (a,d)", got)
	}
	for _, d := range got {
		if d.Delete {
			t.Errorf("unexpected delete delta %v", d)
		}
	}

	// Cutting the chain in the middle streams exactly the lost tuples,
	// as deletions, and nothing for the surviving ones.
	if err := alice.DeleteString(`edge@alice("b","c");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	got = drainDeltas(deltas)
	if len(got) != 4 { // (b,c) (a,c) (b,d) (a,d)
		t.Fatalf("deltas after delete = %v, want 4 deletes", got)
	}
	for _, d := range got {
		if !d.Delete {
			t.Errorf("unexpected insert delta %v", d)
		}
	}
}

// TestMaintainedViewSurvivesUnrelatedStages: a remotely fed view no longer
// evaporates when the receiving peer runs a stage for unrelated reasons —
// the sender's maintained facts hold until explicitly retracted.
func TestMaintainedViewSurvivesUnrelatedStages(t *testing.T) {
	n, ps := newTestNetwork(t, "jules", "emilien")
	jules, emilien := ps["jules"], ps["emilien"]
	if err := emilien.LoadSource(`
		relation extensional pictures@emilien(id);
		pictures@emilien(1);
	`); err != nil {
		t.Fatal(err)
	}
	if err := jules.LoadSource(`
		relation extensional selectedAttendee@jules(attendee);
		relation extensional noise@jules(x);
		relation intensional attendeePictures@jules(id);
		selectedAttendee@jules("emilien");
		attendeePictures@jules($id) :-
			selectedAttendee@jules($a), pictures@$a($id);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(jules, "attendeePictures"); len(got) != 1 {
		t.Fatalf("attendeePictures = %v, want 1", got)
	}
	// Unrelated local churn at jules: the delegated view must not flicker.
	for i := 0; i < 3; i++ {
		if err := jules.Insert(ast.NewFact("noise", "jules", value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
		quiesce(t, n)
		if got := tuples(jules, "attendeePictures"); len(got) != 1 {
			t.Fatalf("attendeePictures after noise %d = %v, want 1", i, got)
		}
	}
	// Retraction at the source still empties the view.
	if err := emilien.DeleteString(`pictures@emilien(1);`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(jules, "attendeePictures"); len(got) != 0 {
		t.Errorf("attendeePictures after source retraction = %v, want empty", got)
	}
}

// TestTransientSeedSurvivesSkippedStage: a transient seed re-delivered (or
// first delivered) during a stage that ends up skipped has not been seen by
// any fixpoint yet — it must hold through the next stage that actually runs
// and expire only at the one after.
func TestTransientSeedSurvivesSkippedStage(t *testing.T) {
	n, ps := newTestNetwork(t, "alice", "bob")
	alice, bob := ps["alice"], ps["bob"]
	if err := bob.LoadSource(`
		relation intensional seed@bob(x);
		relation extensional trigger@bob(x);
		relation extensional out@bob(x);
		out@bob($x) :- seed@bob($x), trigger@bob($x);
	`); err != nil {
		t.Fatal(err)
	}
	if err := alice.DeclareRelation("dummy", ast.Extensional, "x"); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	// Stage 1 at bob consumes the seed (no trigger yet: out stays empty).
	if err := alice.Insert(ast.NewFact("seed", "bob", value.Str("a"))); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	// Re-delivering the same seed is a no-op ingestion: the stage is
	// skipped, but the mark must stay fresh.
	if err := alice.Insert(ast.NewFact("seed", "bob", value.Str("a"))); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	// The trigger arrives: this running stage must still see the seed.
	if err := bob.InsertString(`trigger@bob("a");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(bob, "out"); len(got) != 1 || got[0] != "(a)" {
		t.Fatalf("out = %v, want [(a)]: the re-delivered seed was lost", got)
	}
	// And it still expires afterwards.
	if err := bob.InsertString(`trigger@bob("b");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(bob, "seed"); len(got) != 0 {
		t.Errorf("seed = %v, want empty after expiry", got)
	}
}

// TestRemoteRetractionSparesLocalDerivation: a view tuple supported both by
// a remote maintainer and by a local rule survives the remote retraction,
// and disappears only when the local derivation goes too.
func TestRemoteRetractionSparesLocalDerivation(t *testing.T) {
	n, ps := newTestNetwork(t, "jules", "emilien")
	jules, emilien := ps["jules"], ps["emilien"]
	if err := emilien.LoadSource(`
		relation extensional src@emilien(x);
		src@emilien("v");
		mirror@jules($x) :- src@emilien($x);
	`); err != nil {
		t.Fatal(err)
	}
	if err := jules.LoadSource(`
		relation extensional own@jules(x);
		relation intensional mirror@jules(x);
		own@jules("v");
		mirror@jules($x) :- own@jules($x);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(jules, "mirror"); len(got) != 1 {
		t.Fatalf("mirror = %v, want [(v)]", got)
	}
	// Remote support retracted; the local derivation must keep the tuple.
	if err := emilien.DeleteString(`src@emilien("v");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(jules, "mirror"); len(got) != 1 {
		t.Fatalf("mirror after remote retraction = %v, want [(v)]", got)
	}
	// Last support gone.
	if err := jules.DeleteString(`own@jules("v");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(jules, "mirror"); len(got) != 0 {
		t.Errorf("mirror = %v, want empty", got)
	}
}

// TestTwoSendersSupportOneFact: a view tuple maintained by two senders
// survives the first one's retraction — also across a view rebuild, which
// re-seeds it from the senders' ledgers — and goes with the second one's.
func TestTwoSendersSupportOneFact(t *testing.T) {
	n, ps := newTestNetwork(t, "jules", "emilien", "sigmod")
	jules := ps["jules"]
	for _, name := range []string{"emilien", "sigmod"} {
		if err := ps[name].LoadSource(fmt.Sprintf(`
			relation extensional src@%[1]s(x);
			src@%[1]s("v");
			mirror@jules($x) :- src@%[1]s($x);
		`, name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jules.LoadSource(`relation intensional mirror@jules(x);`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(jules, "mirror"); len(got) != 1 {
		t.Fatalf("mirror = %v, want [(v)]", got)
	}
	if err := ps["emilien"].DeleteString(`src@emilien("v");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(jules, "mirror"); len(got) != 1 {
		t.Fatalf("mirror after one sender's retraction = %v, want [(v)]", got)
	}
	// A program change rebuilds jules' views from scratch.
	if err := jules.LoadSource(`relation extensional other@jules(x);`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(jules, "mirror"); len(got) != 1 {
		t.Fatalf("mirror after a rebuild = %v, want [(v)] re-seeded from sigmod's ledger", got)
	}
	if err := ps["sigmod"].DeleteString(`src@sigmod("v");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(jules, "mirror"); len(got) != 0 {
		t.Errorf("mirror = %v, want empty once neither sender maintains it", got)
	}
}

// TestDelegatedViewSharesStoredKey: a view rule that ships a base fact as it
// is keeps one copy of the fact's key at the sender — the remote view's key
// is the store's, whose string values are substrings of it.
func TestDelegatedViewSharesStoredKey(t *testing.T) {
	n, ps := newTestNetwork(t, "jules", "emilien")
	emilien := ps["emilien"]
	if err := emilien.LoadSource(`
		relation extensional src@emilien(x);
		mirror@jules($x) :- src@emilien($x);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if err := emilien.InsertString(`src@emilien("a picture's worth of bytes");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	stored := emilien.Store().Get("src", "emilien").Tuples()[0][0].StringVal()
	held, _ := emilien.rv.Tree("jules", "mirror@jules").RangeKeys(fullRange.Lo, fullRange.Hi, 0)
	if len(held) != 1 {
		t.Fatalf("remote view holds %q, want one fact", held)
	}
	// The key is the value's kind byte and 8-byte length, then its bytes.
	if unsafe.Add(unsafe.Pointer(unsafe.StringData(held[0])), 9) != unsafe.Pointer(unsafe.StringData(stored)) {
		t.Errorf("the remote view's key is a copy of the stored one")
	}
}

// TestCoalescedMaintainedDeltas: maintained insert/retract (and
// insert/retract/insert) runs from a sender, ingested by the receiver in a
// single stage, must net out correctly — on a rule-less receiver too — and
// stream no contradictory deltas to subscribers.
func TestCoalescedMaintainedDeltas(t *testing.T) {
	n, ps := newTestNetwork(t, "bob", "alice")
	bob := ps["bob"]
	if err := bob.LoadSource(`relation intensional v@bob(x);`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	deltas, err := bob.Subscribe(ctx, "v")
	if err != nil {
		t.Fatal(err)
	}
	alice := ps["alice"].Endpoint()
	fact := ast.NewFact("v", "bob", value.Str("z"))
	var seq uint64
	send := func(del bool) {
		t.Helper()
		seq++
		err := alice.Send(ctx, "bob", protocol.DataMsg{Epoch: 1, Seq: seq, Msg: protocol.FactsMsg{
			Ops: []protocol.FactDelta{{Delete: del, Maint: true, Fact: fact}}}})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Insert + retract coalesced into one stage: net nothing, no zombie.
	send(false)
	send(true)
	quiesce(t, n)
	if got := tuples(bob, "v"); len(got) != 0 {
		t.Fatalf("v after +/- coalesced = %v, want empty", got)
	}
	if got := drainDeltas(deltas); len(got) != 0 {
		t.Fatalf("deltas after +/- coalesced = %v, want none", got)
	}

	// Insert + retract + insert coalesced: net supported.
	send(false)
	send(true)
	send(false)
	quiesce(t, n)
	if got := tuples(bob, "v"); len(got) != 1 {
		t.Fatalf("v after +/-/+ coalesced = %v, want [(z)]", got)
	}
	got := drainDeltas(deltas)
	if len(got) != 1 || got[0].Delete {
		t.Fatalf("deltas after +/-/+ = %v, want one insert", got)
	}

	// A later lone retraction still removes it.
	send(true)
	quiesce(t, n)
	if got := tuples(bob, "v"); len(got) != 0 {
		t.Fatalf("v after retract = %v, want empty", got)
	}
	got = drainDeltas(deltas)
	if len(got) != 1 || !got[0].Delete {
		t.Fatalf("deltas after retract = %v, want one delete", got)
	}
}

// TestIncrementalAndNaiveAgreeAcrossStages drives the same random-ish edit
// script through an incremental peer and a naive-recompute peer and checks
// the materialized views agree after every batch — the peer-level version of
// the engine's equivalence property.
func TestIncrementalAndNaiveAgreeAcrossStages(t *testing.T) {
	build := func(opts engine.Options) (*Network, *Peer) {
		n := NewNetwork()
		p, err := n.NewPeer(Config{Name: "p", Engine: &opts})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.LoadSource(`
			relation extensional edge@p(a, b);
			relation intensional tc@p(a, b);
			relation intensional sym@p(a, b);
			tc@p($x,$y) :- edge@p($x,$y);
			tc@p($x,$z) :- tc@p($x,$y), edge@p($y,$z);
			sym@p($y,$x) :- tc@p($x,$y);
		`); err != nil {
			t.Fatal(err)
		}
		return n, p
	}
	naiveOpts := engine.DefaultOptions()
	naiveOpts.Incremental = false
	nInc, pInc := build(engine.DefaultOptions())
	nNaive, pNaive := build(naiveOpts)

	script := []struct {
		del  bool
		a, b int64
	}{
		{false, 1, 2}, {false, 2, 3}, {false, 3, 4}, {false, 4, 1},
		{true, 2, 3}, {false, 2, 5}, {false, 5, 3}, {true, 4, 1},
		{true, 1, 2}, {false, 1, 3}, {true, 5, 3}, {false, 3, 1},
	}
	for i, s := range script {
		f := ast.NewFact("edge", "p", value.Int(s.a), value.Int(s.b))
		for _, p := range []*Peer{pInc, pNaive} {
			var err error
			if s.del {
				err = p.Delete(f)
			} else {
				err = p.Insert(f)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		quiesce(t, nInc)
		quiesce(t, nNaive)
		for _, rel := range []string{"tc", "sym"} {
			gi, gn := tuples(pInc, rel), tuples(pNaive, rel)
			if len(gi) != len(gn) {
				t.Fatalf("step %d: %s differs: incremental %v, naive %v", i, rel, gi, gn)
			}
			for k := range gi {
				if gi[k] != gn[k] {
					t.Fatalf("step %d: %s differs at %d: %v vs %v", i, rel, k, gi[k], gn[k])
				}
			}
		}
	}
}

// TestDelegatedRuleStaysODelta is the peer-level O(δ) gate: the paper's §2
// delegation between two sequential peers — jules' rule installs
// attendeePictures@jules(…) :- pictures@emilien(…) at emilien — makes a
// picture inserted at emilien ship exactly one fact, and an insert-and-delete
// round trip allocate no more with 5 000 pictures in the album than with 500
// (within 1.2×): emilien maintains the delegated rule from the delta instead
// of re-deriving the album every stage.
func TestDelegatedRuleStaysODelta(t *testing.T) {
	allocs := func(album int) float64 {
		n := NewSequentialNetwork()
		var ps [2]*Peer
		for i, name := range []string{"emilien", "jules"} {
			p, err := n.NewPeer(Config{Name: name})
			if err != nil {
				t.Fatal(err)
			}
			ps[i] = p
		}
		emilien, jules := ps[0], ps[1]
		if err := emilien.LoadSource(`relation extensional pictures@emilien(id, name);`); err != nil {
			t.Fatal(err)
		}
		if err := jules.LoadSource(`
			relation extensional selectedAttendee@jules(attendee);
			relation intensional attendeePictures@jules(id, name);
			selectedAttendee@jules("emilien");
			attendeePictures@jules($id, $name) :- selectedAttendee@jules($a), pictures@$a($id, $name);
		`); err != nil {
			t.Fatal(err)
		}
		b := engine.NewBatch()
		for i := 0; i < album; i++ {
			b.Insert(ast.NewFact("pictures", "emilien", value.Int(int64(i)), value.Str("p.jpg")))
		}
		if err := emilien.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
		quiesce(t, n)
		if got := len(jules.Query("attendeePictures")); got != album {
			t.Fatalf("jules holds %d pictures, want %d", got, album)
		}
		pic := fmt.Sprintf(`pictures@emilien(%d, "new.jpg");`, album)
		if err := emilien.InsertString(pic); err != nil {
			t.Fatal(err)
		}
		if rep := emilien.RunStage(); rep.FactsSent != 1 {
			t.Fatalf("%d pictures: emilien's stage shipped %d facts for one insert, want 1", album, rep.FactsSent)
		}
		quiesce(t, n)
		return testing.AllocsPerRun(20, func() {
			if err := emilien.DeleteString(pic); err != nil {
				t.Fatal(err)
			}
			quiesce(t, n)
			if err := emilien.InsertString(pic); err != nil {
				t.Fatal(err)
			}
			quiesce(t, n)
		})
	}
	small, large := allocs(500), allocs(5000)
	t.Logf("allocations per delete+insert round trip: %.0f with 500 pictures, %.0f with 5000", small, large)
	if large > 1.2*small {
		t.Fatalf("a round trip allocates %.0f with 5000 pictures, %.0f with 500: the delegated rule is not maintained in O(δ)", large, small)
	}
}
