package peer

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/errdefs"
	"repro/internal/value"
)

// drainDeltas reads everything currently buffered on ch.
func drainDeltas(ch <-chan Delta) []Delta {
	var out []Delta
	for {
		select {
		case d, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, d)
		default:
			return out
		}
	}
}

// TestSubscribeDerivedAcrossPeers is the acceptance case: a subscription on
// jules' rule-derived view streams deltas caused by changes at emilien —
// including the deletion when the supporting fact is retracted.
func TestSubscribeDerivedAcrossPeers(t *testing.T) {
	n, ps := newTestNetwork(t, "jules", "emilien")
	jules, emilien := ps["jules"], ps["emilien"]
	if err := emilien.LoadSource(`
		relation extensional pictures@emilien(id, name);
	`); err != nil {
		t.Fatal(err)
	}
	if err := jules.LoadSource(`
		relation extensional selectedAttendee@jules(attendee);
		relation intensional attendeePictures@jules(id, name);
		selectedAttendee@jules("emilien");
		attendeePictures@jules($id,$name) :-
			selectedAttendee@jules($a), pictures@$a($id,$name);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	deltas, err := jules.Subscribe(ctx, "attendeePictures")
	if err != nil {
		t.Fatal(err)
	}

	// An upload at emilien flows through the delegated rule into jules'
	// view and out of the subscription.
	if err := emilien.InsertString(`pictures@emilien(1, "sea.jpg");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	got := drainDeltas(deltas)
	if len(got) != 1 || got[0].Delete || got[0].Rel != "attendeePictures" ||
		got[0].Tuple[1].StringVal() != "sea.jpg" {
		t.Fatalf("deltas after upload = %v, want one insert of sea.jpg", got)
	}

	// Quiescent re-derivation produces no deltas.
	quiesce(t, n)
	if got := drainDeltas(deltas); len(got) != 0 {
		t.Fatalf("spurious deltas with no change: %v", got)
	}

	// Retracting the selection empties the view: one delete delta.
	if err := jules.DeleteString(`selectedAttendee@jules("emilien");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	got = drainDeltas(deltas)
	if len(got) != 1 || !got[0].Delete {
		t.Fatalf("deltas after retraction = %v, want one delete", got)
	}
}

// TestSubscribeExtensional: local inserts and deletes stream too, with the
// Subscribe-time contents as the baseline.
func TestSubscribeExtensional(t *testing.T) {
	n, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	if err := alice.LoadSource(`
		relation extensional data@alice(x);
		data@alice("pre");
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	deltas, err := alice.Subscribe(context.Background(), "data")
	if err != nil {
		t.Fatal(err)
	}
	// The pre-existing tuple is baseline, not a delta.
	if got := drainDeltas(deltas); len(got) != 0 {
		t.Fatalf("baseline leaked as deltas: %v", got)
	}
	if err := alice.InsertString(`data@alice("new");`); err != nil {
		t.Fatal(err)
	}
	if err := alice.DeleteString(`data@alice("pre");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	got := drainDeltas(deltas)
	if len(got) != 2 {
		t.Fatalf("deltas = %v, want delete(pre)+insert(new)", got)
	}
	// Deletions are delivered before insertions.
	if !got[0].Delete || got[0].Tuple[0].StringVal() != "pre" {
		t.Errorf("first delta = %v, want -data(pre)", got[0])
	}
	if got[1].Delete || got[1].Tuple[0].StringVal() != "new" {
		t.Errorf("second delta = %v, want +data(new)", got[1])
	}
}

// TestSubscribeUnknownRelation returns the typed error.
func TestSubscribeUnknownRelation(t *testing.T) {
	_, ps := newTestNetwork(t, "alice")
	_, err := ps["alice"].Subscribe(context.Background(), "ghost")
	if !errors.Is(err, errdefs.ErrUnknownRelation) {
		t.Errorf("err = %v, want ErrUnknownRelation", err)
	}
}

// TestSubscribeCancelClosesChannel: cancelling the context closes the
// stream promptly.
func TestSubscribeCancelClosesChannel(t *testing.T) {
	_, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	if err := alice.DeclareRelation("data", ast.Extensional, "x"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	deltas, err := alice.Subscribe(ctx, "data")
	if err != nil {
		t.Fatal(err)
	}
	if alice.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want 1", alice.Subscribers())
	}
	cancel()
	select {
	case _, ok := <-deltas:
		if ok {
			t.Error("got a delta instead of close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel not closed after cancel")
	}
	if alice.Subscribers() != 0 {
		t.Errorf("subscribers = %d after cancel, want 0", alice.Subscribers())
	}
}

// TestSubscribeCloseOnPeerClose: closing the peer ends all streams.
func TestSubscribeCloseOnPeerClose(t *testing.T) {
	_, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	if err := alice.DeclareRelation("data", ast.Extensional, "x"); err != nil {
		t.Fatal(err)
	}
	deltas, err := alice.Subscribe(context.Background(), "data")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-deltas; ok {
		t.Error("channel still open after peer close")
	}
	if _, err := alice.Subscribe(context.Background(), "data"); !errors.Is(err, errdefs.ErrClosed) {
		t.Errorf("subscribe after close: %v, want ErrClosed", err)
	}
}

// TestSubscriptionsLeaveNoGoroutines: nothing of a subscription outlives its
// channel, even when its context is never cancelled — neither when it is
// shed as a slow consumer nor when the peer closes under it.
func TestSubscriptionsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	n := NewSequentialNetwork()
	alice, err := n.NewPeer(Config{Name: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.DeclareRelation("data", ast.Extensional, "x"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // only once the count is in
	subscribe := func(k int) {
		for i := 0; i < k; i++ {
			if _, err := alice.Subscribe(ctx, "data"); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Half of them overflow their buffers in one stage and are shed.
	subscribe(25)
	b := engine.NewBatch()
	for i := 0; i < SubscribeBuffer+1; i++ {
		b.Insert(ast.NewFact("data", "alice", value.Int(int64(i))))
	}
	if err := alice.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := alice.Stats().SubscriptionDrops; got != 25 {
		t.Fatalf("SubscriptionDrops = %d, want 25", got)
	}
	// The other half end with the peer.
	subscribe(25)
	if err := alice.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 50 subscriptions ended, %d before the peer existed",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubscribeSlowConsumerDropped: a consumer that never reads is
// disconnected instead of wedging the stage loop.
func TestSubscribeSlowConsumerDropped(t *testing.T) {
	n, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	if err := alice.DeclareRelation("data", ast.Extensional, "x"); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	deltas, err := alice.Subscribe(context.Background(), "data")
	if err != nil {
		t.Fatal(err)
	}
	// Overflow the buffer in one stage without ever reading.
	b := engine.NewBatch()
	for i := 0; i < SubscribeBuffer+10; i++ {
		b.Insert(ast.NewFact("data", "alice", value.Int(int64(i))))
	}
	if err := alice.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if alice.Subscribers() != 0 {
		t.Fatalf("slow subscriber not dropped: %d live", alice.Subscribers())
	}
	// The channel still drains what fit, then closes.
	n2 := 0
	for range deltas {
		n2++
	}
	if n2 != SubscribeBuffer {
		t.Errorf("drained %d buffered deltas, want %d", n2, SubscribeBuffer)
	}
}

// TestSubscribeStalledConsumerStageNeverBlocks: a consumer that reads for a
// while and then stalls mid-stream is shed without the stage loop ever
// blocking on its channel — the drop path is non-blocking by construction,
// and this pins it with a watchdog across the overflowing stage.
func TestSubscribeStalledConsumerStageNeverBlocks(t *testing.T) {
	n, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	if err := alice.DeclareRelation("data", ast.Extensional, "x"); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	deltas, err := alice.Subscribe(context.Background(), "data")
	if err != nil {
		t.Fatal(err)
	}
	// A healthy phase first: the consumer keeps up for a few small stages.
	for i := 0; i < 3; i++ {
		if err := alice.Insert(ast.NewFact("data", "alice", value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
		quiesce(t, n)
		select {
		case d := <-deltas:
			if d.Delete {
				t.Fatalf("unexpected delete delta %v", d)
			}
		case <-time.After(time.Second):
			t.Fatal("healthy consumer received nothing")
		}
	}
	// Now the consumer stalls for good. Overflow its buffer across stages
	// while a watchdog asserts every stage still completes promptly.
	b := engine.NewBatch()
	for i := 100; i < 100+SubscribeBuffer+10; i++ {
		b.Insert(ast.NewFact("data", "alice", value.Int(int64(i))))
	}
	if err := alice.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	type staged struct{ rep *StageReport }
	done := make(chan staged, 1)
	go func() { done <- staged{alice.RunStage()} }()
	var rep *StageReport
	select {
	case s := <-done:
		rep = s.rep
	case <-time.After(5 * time.Second):
		t.Fatal("stage blocked on a stalled subscriber")
	}
	found := false
	for _, e := range rep.Errors {
		if errors.Is(e, errdefs.ErrSlowSubscriber) {
			found = true
		}
	}
	if !found {
		t.Errorf("stage report errors = %v, want ErrSlowSubscriber", rep.Errors)
	}
	if alice.Subscribers() != 0 {
		t.Errorf("stalled subscriber still registered: %d live", alice.Subscribers())
	}
	if got := alice.Stats().SubscriptionDrops; got != 1 {
		t.Errorf("SubscriptionDrops = %d, want 1", got)
	}
	// Later stages proceed normally with the subscriber gone.
	if err := alice.Insert(ast.NewFact("data", "alice", value.Int(9999))); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	// The channel drains what fit before the stall, then closes.
	drained := 0
	for range deltas {
		drained++
	}
	if drained != SubscribeBuffer {
		t.Errorf("drained %d buffered deltas, want %d", drained, SubscribeBuffer)
	}
}

// TestNetTuples: a delete and an insert of one tuple in a stage cancel and
// the other deltas stand, and each key is encoded at most once: none that
// the stage's lists hold, one for every other tuple. Netting the first case
// without keys used to encode seven keys for its four tuples.
func TestNetTuples(t *testing.T) {
	tup := func(i int64) value.Tuple { return value.Tuple{value.Int(i)} }
	f, g, h := tup(1), tup(2), tup(3)
	keys := func(ts ...value.Tuple) []string {
		var out []string
		for _, t := range ts {
			out = append(out, t.Key())
		}
		return out
	}
	cases := []struct {
		name              string
		dels, ins         []value.Tuple
		delKeys, insKeys  []string
		wantDels, wantIns []value.Tuple
	}{
		{"keys from the lists", []value.Tuple{f, g}, []value.Tuple{h, f}, keys(f, g), keys(h, f), []value.Tuple{g}, []value.Tuple{h}},
		{"keys encoded", []value.Tuple{g, f}, []value.Tuple{f, h}, nil, nil, []value.Tuple{g}, []value.Tuple{h}},
		{"keys of a prefix", []value.Tuple{f, g}, []value.Tuple{h, f}, keys(f), keys(h), []value.Tuple{g}, []value.Tuple{h}},
		{"nothing cancels", []value.Tuple{g}, []value.Tuple{h}, nil, nil, []value.Tuple{g}, []value.Tuple{h}},
		{"no deletes", nil, []value.Tuple{f, h}, nil, nil, nil, []value.Tuple{f, h}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dels, ins := netTuples(slices.Clone(c.dels), c.delKeys, slices.Clone(c.ins), c.insKeys)
			if !slices.EqualFunc(dels, c.wantDels, value.Tuple.Equal) || !slices.EqualFunc(ins, c.wantIns, value.Tuple.Equal) {
				t.Fatalf("netTuples = -%v +%v, want -%v +%v", dels, ins, c.wantDels, c.wantIns)
			}
			bufD, bufI := make([]value.Tuple, len(c.dels)), make([]value.Tuple, len(c.ins))
			allocs := testing.AllocsPerRun(100, func() {
				copy(bufD, c.dels)
				copy(bufI, c.ins)
				netTuples(bufD, c.delKeys, bufI, c.insKeys)
			})
			encodings := len(c.dels) - len(c.delKeys) + len(c.ins) - len(c.insKeys)
			if len(c.dels) == 0 {
				encodings = 0
			}
			// Beyond one allocation per encoding, only the insert keys' list
			// when the stage's lists do not hold them all.
			limit := encodings
			if len(c.dels) > 0 && len(c.insKeys) < len(c.ins) {
				limit++
			}
			if allocs > float64(limit) {
				t.Errorf("netTuples allocated %.0f objects for %d encodings, want at most %d", allocs, encodings, limit)
			}
		})
	}
}
