package peer

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/value"
)

// TestMalformedResidualsRefused: on the sequenced stream from a, delegations
// b must not take are each refused with a stage error, and none enters a's
// ledger or the program: a residual as an older peer shipped it, a template
// a delegates on another peer's behalf, one delivered one-shot, one whose
// rule does not decode or whose arguments are short, a template reading
// another origin's binding relation, and bindings of another origin's
// template, delivered one-shot or of another arity than the relation's.
// a's own maintained template installs and its own binding is taken.
func TestMalformedResidualsRefused(t *testing.T) {
	n := NewSequentialNetwork()
	b, err := n.NewPeer(Config{Name: "b", ResyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	a := n.Bus().Endpoint("a")
	bindRel := func(origin string) string { return "#bind/" + origin + "/0123456789abcdef" }
	rule := func(origin string) value.Value {
		return value.Blob(ast.Rule{Head: ast.NewAtom("m", "a", ast.V("x")), Body: []ast.Atom{
			ast.NewAtom(bindRel(origin), "b", ast.V("x")), ast.NewAtom("n", "b", ast.V("x"))}}.AppendBinary(nil))
	}
	fact := func(maint bool, rel string, args ...value.Value) protocol.FactDelta {
		return protocol.FactDelta{Maint: maint, Fact: ast.NewFact(rel, "b", args...)}
	}
	for seq, c := range []struct {
		fd      protocol.FactDelta
		refused bool
	}{
		{fact(true, "#residual", value.Str("a"), value.Str("r1"), rule("a")), true},
		{fact(true, engine.TemplateRel, value.Str("mallory"), value.Str("r1"), rule("mallory")), true},
		{fact(false, engine.TemplateRel, value.Str("a"), value.Str("r1"), rule("a")), true},
		{fact(true, engine.TemplateRel, value.Str("a"), value.Str("r1"), value.Blob([]byte{9})), true},
		{fact(true, engine.TemplateRel, value.Str("a"), value.Str("r1")), true},
		{fact(true, engine.TemplateRel, value.Str("a"), value.Str("r1"), rule("mallory")), true},
		{fact(true, bindRel("mallory"), value.Int(1)), true},
		{fact(false, bindRel("a"), value.Int(1)), true},
		{fact(true, engine.TemplateRel, value.Str("a"), value.Str("r1"), rule("a")), false},
		{fact(true, bindRel("a"), value.Int(1)), false},
		{fact(true, bindRel("a"), value.Int(1), value.Int(2)), true}, // not the relation's arity
	} {
		msg := protocol.DataMsg{Epoch: 1, Seq: uint64(seq + 1), Msg: protocol.FactsMsg{Ops: []protocol.FactDelta{c.fd}}}
		if err := a.Send(context.Background(), "b", msg); err != nil {
			t.Fatal(err)
		}
		if rep := b.RunStage(); (len(rep.Errors) == 1) != c.refused {
			t.Errorf("delegation %s: errors %v, want refused %v", c.fd.String(), rep.Errors, c.refused)
		}
	}
	b.mu.Lock()
	sess := b.sessionLocked("a")
	ledger := fmt.Sprint(len(sess.trees), len(sess.ledgerKeys(engine.TemplateRel+"@b")), len(sess.ledgerKeys(bindRel("a")+"@b")))
	b.mu.Unlock()
	if got := b.DelegatedRules()["a"]; ledger != "2 1 1" || len(got) != 1 || b.Stats().DelegationsIn != 2 {
		t.Fatalf("a's ledger holds %s (relations, templates, bindings), b installed %v, took %d; want 2 1 1, a's own template and binding",
			ledger, b.DelegatedRules(), b.Stats().DelegationsIn)
	}
}

// TestDataMsgReplayIsDeduplicated: a retransmitted DataMsg must be re-acked
// but not re-applied — the receiver's watermark gives exactly-once
// application under at-least-once delivery.
func TestDataMsgReplayIsDeduplicated(t *testing.T) {
	n := NewSequentialNetwork()
	p, err := n.NewPeer(Config{Name: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DeclareRelation("data", ast.Extensional, "id"); err != nil {
		t.Fatal(err)
	}
	fake := n.Bus().Endpoint("fake")
	msg := protocol.DataMsg{Seq: 1, Msg: protocol.FactsMsg{Ops: []protocol.FactDelta{
		{Fact: ast.NewFact("data", "alice", value.Int(7))},
	}}}
	if err := fake.Send(context.Background(), "alice", msg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.RunToQuiescence(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	if got := tuples(p, "data"); len(got) != 1 {
		t.Fatalf("data = %v, want 1 tuple", got)
	}
	// The ack must have come back.
	acked := false
	for _, env := range fake.Drain() {
		if a, ok := env.Msg.(protocol.AckMsg); ok && a.Seq == 1 {
			acked = true
		}
	}
	if !acked {
		t.Fatalf("no ack for seq 1")
	}

	// The fact is deleted locally; a replay of seq 1 must not resurrect it.
	if err := p.DeleteString(`data@alice(7);`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.RunToQuiescence(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	if err := fake.Send(context.Background(), "alice", msg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.RunToQuiescence(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	if got := tuples(p, "data"); len(got) != 0 {
		t.Fatalf("replayed DataMsg was re-applied: data = %v", got)
	}
	// And the replay is re-acked so the sender can drop it.
	acked = false
	for _, env := range fake.Drain() {
		if a, ok := env.Msg.(protocol.AckMsg); ok && a.Seq == 1 {
			acked = true
		}
	}
	if !acked {
		t.Fatalf("replay was not re-acked")
	}
}

// TestDataMsgGapIsDroppedUntilRetransmit: an out-of-order DataMsg (gap) is
// dropped without an ack; delivery resumes once the missing predecessor
// arrives and the successor is retransmitted — in-order application no
// matter how the transport reorders.
func TestDataMsgGapIsDroppedUntilRetransmit(t *testing.T) {
	n := NewSequentialNetwork()
	p, err := n.NewPeer(Config{Name: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DeclareRelation("data", ast.Extensional, "id"); err != nil {
		t.Fatal(err)
	}
	fake := n.Bus().Endpoint("fake")
	mk := func(seq uint64, id int64) protocol.DataMsg {
		return protocol.DataMsg{Seq: seq, Msg: protocol.FactsMsg{Ops: []protocol.FactDelta{
			{Fact: ast.NewFact("data", "alice", value.Int(id))},
		}}}
	}
	ctx := context.Background()
	// Seq 2 arrives first: must not apply.
	if err := fake.Send(ctx, "alice", mk(2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.RunToQuiescence(ctx, 50); err != nil {
		t.Fatal(err)
	}
	if got := tuples(p, "data"); len(got) != 0 {
		t.Fatalf("gap applied out of order: data = %v", got)
	}
	// Retransmission in order: 1 then 2.
	if err := fake.Send(ctx, "alice", mk(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fake.Send(ctx, "alice", mk(2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.RunToQuiescence(ctx, 50); err != nil {
		t.Fatal(err)
	}
	if got := tuples(p, "data"); len(got) != 2 {
		t.Fatalf("after in-order retransmit, data = %v, want 2 tuples", got)
	}
}

// TestBareDataRefused: facts, delegations, repairs and digests that arrive
// outside a DataMsg have no sequence number to dedup or order them by. Each
// is refused and counted, and leaves the sender's ledger and the outbox back
// to it as they were — a bare empty full-range repair does not drop the
// sender's support, a bare FactsMsg (sent twice) applies neither time, a
// bare advert claiming the sender maintains nothing asks for no repair.
func TestBareDataRefused(t *testing.T) {
	n := NewSequentialNetwork()
	b, err := n.NewPeer(Config{Name: "b", ResyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		t.Fatal(err)
	}
	a := n.Bus().Endpoint("a")
	facts := func(k int64) protocol.FactsMsg {
		return protocol.FactsMsg{Ops: []protocol.FactDelta{{Maint: true, Fact: ast.NewFact("view", "b", value.Int(k))}}}
	}
	deliver := func(msg protocol.Payload) *StageReport {
		t.Helper()
		if err := a.Send(context.Background(), "b", msg); err != nil {
			t.Fatal(err)
		}
		return b.RunStage()
	}
	if rep := deliver(protocol.DataMsg{Epoch: 1, Seq: 1, Msg: facts(7)}); len(rep.Errors) > 0 {
		t.Fatal(rep.Errors)
	}
	bare := []protocol.Payload{
		protocol.RangeRepairMsg{RelID: "view@b", Ranges: []protocol.HashRange{fullRange}},
		facts(8),
		facts(8),
		protocol.FactsMsg{Ops: []protocol.FactDelta{{Maint: true, Fact: ast.NewFact(engine.TemplateRel, "b",
			value.Str("a"), value.Str("r"), value.Blob(ast.Rule{Head: ast.NewAtom("m", "a")}.AppendBinary(nil)))}}},
		protocol.DigestMsg{Advert: true},
	}
	state := func() string {
		b.mu.Lock()
		defer b.mu.Unlock()
		dq := b.outbox.queue("a")
		dq.mu.Lock()
		defer dq.mu.Unlock()
		return fmt.Sprint(b.sessionLocked("a").ledgerDigest("view@b"), len(dq.entries), dq.pendingAck, len(dq.controls), b.stats.ResyncRequested)
	}
	before := state()
	for _, msg := range bare {
		if rep := deliver(msg); len(rep.Errors) != 1 {
			t.Errorf("bare %T reported %v, want one refusal", msg, rep.Errors)
		}
		if got := tuples(b, "view"); len(got) != 1 || got[0] != "(7)" {
			t.Fatalf("view@b after a bare %T = %v, want [(7)]", msg, got)
		}
		if after := state(); after != before {
			t.Fatalf("a bare %T changed the ledger or the outbox: %s, was %s", msg, after, before)
		}
	}
	if got := b.Stats(); got.RuntimeErrors != uint64(len(bare)) || got.DelegationsIn != 0 {
		t.Errorf("stats after %d bare data messages: %+v", len(bare), got)
	}
	// The sequenced stream is unharmed: a's support is still there to retract.
	retract := facts(7)
	retract.Ops[0].Delete = true
	deliver(protocol.DataMsg{Epoch: 1, Seq: 2, Msg: retract})
	if got := tuples(b, "view"); len(got) != 0 {
		t.Errorf("view@b after the sequenced retraction = %v, want empty", got)
	}
}

// addPeerHook registers a new peer (with staged work) on the network from
// inside another peer's stage — the "peer discovered mid-run" scenario.
type addPeerHook struct {
	n     *Network
	added bool
	err   error
}

func (h *addPeerHook) BeforeStage(*Peer, *engine.Batch) error { return nil }

func (h *addPeerHook) AfterStage(p *Peer, rep *StageReport) error {
	if h.added {
		return nil
	}
	h.added = true
	late, err := h.n.NewPeer(Config{Name: "late"})
	if err != nil {
		h.err = err
		return err
	}
	if err := late.DeclareRelation("data", ast.Extensional, "id"); err != nil {
		h.err = err
		return err
	}
	return late.InsertString(`data@late(1);`)
}

// TestPeerAddedMidRunIsScheduled: RunToQuiescence re-snapshots the peer set
// every round, so a peer registered while the run is in progress gets its
// stages driven by the same call — on both schedulers.
func TestPeerAddedMidRunIsScheduled(t *testing.T) {
	for _, mode := range []string{"concurrent", "sequential"} {
		t.Run(mode, func(t *testing.T) {
			n := closingNetwork(t)
			if mode == "sequential" {
				n = NewSequentialNetwork()
			}
			first, err := n.NewPeer(Config{Name: "first"})
			if err != nil {
				t.Fatal(err)
			}
			h := &addPeerHook{n: n}
			first.SetHooks(h)
			if err := first.InsertString(`seed@first(0);`); err != nil {
				t.Fatal(err)
			}
			if _, _, err := n.RunToQuiescence(context.Background(), 100); err != nil {
				t.Fatal(err)
			}
			if h.err != nil {
				t.Fatal(h.err)
			}
			late := n.Peer("late")
			if late == nil {
				t.Fatal("late peer not registered")
			}
			if got := len(late.Query("data")); got != 1 {
				t.Errorf("late peer was never scheduled: data has %d tuples", got)
			}
		})
	}
}

// TestStageAllSchedulesMidPassWork: StageAll offers a stage to peers that
// gain work while the pass runs (here: the receiver of another stage's
// emission).
func TestStageAllSchedulesMidPassWork(t *testing.T) {
	n := NewSequentialNetwork()
	zed, err := n.NewPeer(Config{Name: "zed"}) // name-sorts after its receiver
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.NewPeer(Config{Name: "abe"}); err != nil {
		t.Fatal(err)
	}
	if err := zed.LoadSource(`
		relation extensional src@zed(x);
		sink@abe($x) :- src@zed($x);
	`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.RunToQuiescence(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	// Now only zed has work; its stage hands abe work mid-pass.
	if err := zed.InsertString(`src@zed(1);`); err != nil {
		t.Fatal(err)
	}
	reps := n.StageAll()
	if len(reps) < 2 {
		t.Fatalf("StageAll ran %d stages; the receiver gaining work mid-pass was skipped", len(reps))
	}
	if got := len(n.Peer("abe").Query("sink")); got != 1 {
		t.Errorf("sink@abe = %d tuples, want 1", got)
	}
}

// TestSequentialNetworkDeterministic: two identical runs over sequential
// networks produce identical round/stage counts and identical bus traffic —
// the property deterministic tests rely on.
func TestSequentialNetworkDeterministic(t *testing.T) {
	run := func() (int, int, uint64, string) {
		n := NewSequentialNetwork()
		jules, err := n.NewPeer(Config{Name: "jules"})
		if err != nil {
			t.Fatal(err)
		}
		emilien, err := n.NewPeer(Config{Name: "emilien"})
		if err != nil {
			t.Fatal(err)
		}
		if err := emilien.LoadSource(`
			relation extensional pictures@emilien(id);
			pictures@emilien(1);
			pictures@emilien(2);
		`); err != nil {
			t.Fatal(err)
		}
		if err := jules.LoadSource(`
			relation extensional sel@jules(a);
			relation intensional view@jules(id);
			sel@jules("emilien");
			view@jules($id) :- sel@jules($a), pictures@$a($id);
		`); err != nil {
			t.Fatal(err)
		}
		rounds, stages, err := n.RunToQuiescence(context.Background(), 100)
		if err != nil {
			t.Fatal(err)
		}
		return rounds, stages, n.Bus().Stats().MessagesSent, fmt.Sprint(jules.Query("view"))
	}
	r1, s1, m1, v1 := run()
	r2, s2, m2, v2 := run()
	if r1 != r2 || s1 != s2 || m1 != m2 || v1 != v2 {
		t.Errorf("sequential runs diverged: (%d,%d,%d,%s) vs (%d,%d,%d,%s)", r1, s1, m1, v1, r2, s2, m2, v2)
	}
	if v1 != "[(1) (2)]" {
		t.Errorf("view = %s, want [(1) (2)]", v1)
	}
}

// TestCloseCancelsInFlightDial: closing a peer aborts an outbox dial to a
// black-holed destination promptly instead of hanging to DialTimeout.
func TestCloseCancelsInFlightDial(t *testing.T) {
	ctx := context.Background()
	// 192.0.2.0/24 (TEST-NET-1) black-holes SYNs on most systems; the dial
	// hangs until its timeout.
	ep, err := transport.ListenTCP(ctx, "sender", "127.0.0.1:0", map[string]string{"rcv": "192.0.2.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	ep.DialTimeout = 30 * time.Second
	p, err := New(Config{Name: "sender"}, ep)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadSource(`
		relation extensional src@sender(x);
		view@rcv($x) :- src@sender($x);
		src@sender(1);
	`); err != nil {
		t.Fatal(err)
	}
	p.RunStage() // enqueues; the flusher starts dialing the black hole
	time.Sleep(20 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- p.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an in-flight dial")
	}
}

// TestResetDropsPendingDigests: a stream reset renumbers the pending entries
// behind the repair run and its advert — except digests. Each describes the
// stream position it was enqueued at, which the reset discards, and the
// run's own advert supersedes them: an idle sender's periodic advert, still
// pending when the restarted receiver it wedged asks for the reset, must not
// be compared again behind the run.
func TestResetDropsPendingDigests(t *testing.T) {
	n := closingNetwork(t)
	a, err := New(Config{Name: "a", ResyncInterval: -1}, &unreachableEndpoint{Endpoint: n.Bus().Endpoint("a"), dst: "b"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	fact := func(k int64) protocol.FactsMsg {
		return protocol.FactsMsg{Ops: []protocol.FactDelta{{Maint: true, Fact: ast.NewFact("view", "b", value.Int(k))}}}
	}
	a.outbox.EnqueueData("b", fact(1))
	a.outbox.EnqueueData("b", protocol.DigestMsg{Advert: true})
	a.outbox.EnqueueData("b", protocol.DigestMsg{Rels: map[string][]protocol.RangeDigest{"view@b": {{Lo: 1, Hi: 2}}}})
	a.outbox.EnqueueData("b", fact(2))
	run := protocol.RangeRepairMsg{RelID: "view@b", Ranges: []protocol.HashRange{fullRange}}
	advert := protocol.DigestMsg{Advert: true, Rels: map[string][]protocol.RangeDigest{"view@b": {{Lo: 0, Hi: ^uint64(0), Hash: 1, Count: 1}}}}
	a.outbox.Reset("b", run, advert)

	dq := a.outbox.queue("b")
	dq.mu.Lock()
	defer dq.mu.Unlock()
	want := []protocol.Payload{run, advert, fact(1), fact(2)}
	if len(dq.entries) != len(want) || dq.nextSeq != uint64(len(want)) {
		t.Fatalf("reset stream holds %d entries up to seq %d, want %d", len(dq.entries), dq.nextSeq, len(want))
	}
	for i, e := range dq.entries {
		if e.seq != uint64(i+1) || !reflect.DeepEqual(e.msg, want[i]) {
			t.Errorf("entry %d = seq %d %#v, want seq %d %#v", i, e.seq, e.msg, i+1, want[i])
		}
	}
}

// TestOutboxPendingAllocatesNothing: the scheduler asks every peer's outbox
// for its pending count each round; reading the sessions takes no copy.
func TestOutboxPendingAllocatesNothing(t *testing.T) {
	n := NewSequentialNetwork()
	p, err := n.NewPeer(Config{Name: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	for _, dst := range []string{"bob", "carol"} {
		p.outbox.EnqueueData(dst, protocol.FactsMsg{Ops: []protocol.FactDelta{{Fact: ast.NewFact("data", dst, value.Int(1))}}})
	}
	if total, _ := p.outbox.Pending(); total != 2 {
		t.Fatalf("pending = %d, want 2", total)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.outbox.Pending() }); allocs != 0 {
		t.Fatalf("Pending allocates %.1f objects per call, want 0", allocs)
	}
}

// TestSchedulerIdleFlushAllocatesNothing: the scheduler and every sync-emit
// stage flush all of a peer's sessions; once the traffic is acknowledged a
// session with nothing to send is passed over without an allocation, with
// adverts off and with an advert period that has not elapsed.
func TestSchedulerIdleFlushAllocatesNothing(t *testing.T) {
	for _, resync := range []time.Duration{-1, time.Hour} {
		n := closingNetwork(t)
		var peers []*Peer
		for _, name := range []string{"a", "b", "c"} {
			p, err := n.NewPeer(Config{Name: name, SyncEmit: true, ResyncInterval: resync})
			if err != nil {
				t.Fatal(err)
			}
			peers = append(peers, p)
		}
		a := peers[0]
		if err := a.LoadSource(`
			relation extensional src@a(x);
			view@b($x) :- src@a($x);
			view@c($x) :- src@a($x);
			src@a(1);
		`); err != nil {
			t.Fatal(err)
		}
		if _, _, err := n.RunToQuiescence(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		if len(a.outbox.snapshot()) != 2 || len(peers[1].outbox.snapshot()) != 1 {
			t.Fatalf("resync %v: the peers hold no sessions to flush", resync)
		}
		for _, p := range peers {
			if total, _ := p.OutboxPending(); total != 0 {
				t.Fatalf("resync %v: %s has %d entries pending after quiescence", resync, p.Name(), total)
			}
			if allocs := testing.AllocsPerRun(100, func() { p.FlushOutbox() }); allocs != 0 {
				t.Errorf("resync %v: FlushAll over %s's idle sessions allocates %.1f objects, want 0", resync, p.Name(), allocs)
			}
		}
	}
}

// TestOutboxSendDerivesNoContext: flushing one data entry over a bus
// endpoint allocates no more than handing the same message to the endpoint
// directly — the send runs under the peer's own context, with no derived
// context and no timer per message.
func TestOutboxSendDerivesNoContext(t *testing.T) {
	n := NewSequentialNetwork()
	p, err := n.NewPeer(Config{Name: "alice", ResyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	bob := n.Bus().Endpoint("bob") // a bare endpoint: nothing acks
	p.outbox.EnqueueData("bob", protocol.FactsMsg{Ops: []protocol.FactDelta{{Fact: ast.NewFact("data", "bob", value.Int(1))}}})
	dq := p.outbox.queue("bob")
	flushOne := func() {
		dq.mu.Lock()
		dq.resend()
		dq.mu.Unlock()
		if !p.outbox.FlushAll() {
			t.Fatal("the flush sent nothing")
		}
	}
	flushOne()
	if got := len(bob.Drain()); got != 1 {
		t.Fatalf("bob received %d envelopes, want 1", got)
	}
	e := dq.entries[0]
	sendOne := func() {
		if err := p.ep.Send(p.ctx, "bob", protocol.DataMsg{Epoch: dq.epoch, Seq: e.seq, Msg: e.msg}); err != nil {
			t.Fatal(err)
		}
	}
	direct := testing.AllocsPerRun(200, sendOne)
	flushed := testing.AllocsPerRun(200, flushOne)
	if flushed > direct {
		t.Errorf("flushing one entry allocates %.1f objects, sending it directly %.1f", flushed, direct)
	}
	t.Logf("one data entry: %.1f allocations flushed, %.1f sent directly", flushed, direct)
}
