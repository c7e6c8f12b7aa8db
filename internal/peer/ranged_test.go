package peer

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/value"
)

// newRangedPeer attaches a volatile peer with the anti-entropy clock and
// outbox timers shrunk to test speed. When faults is non-nil the peer talks
// through a fault-injecting endpoint.
func newRangedPeer(t *testing.T, n *Network, name string, faults *transport.FaultConfig) *Peer {
	t.Helper()
	ep := transport.Endpoint(n.Bus().Endpoint(name))
	if faults != nil {
		ep = transport.Faulty(ep, *faults)
	}
	p, err := New(Config{Name: name, ResyncInterval: resyncTestInterval}, ep)
	if err != nil {
		t.Fatal(err)
	}
	shrinkOutboxTimers(p, 10*time.Millisecond)
	n.Add(p)
	return p
}

// applySrcFacts stages one batch inserting src@a(k) for every key.
func applySrcFacts(t *testing.T, a *Peer, keys []int64) {
	t.Helper()
	b := engine.NewBatch()
	for _, k := range keys {
		b.Insert(ast.NewFact("src", "a", value.Int(k)))
	}
	if err := a.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
}

// fixpointFor computes the fault-free fixpoint of the maintained view for
// the given sender facts, on a pristine network with no failures or
// restarts — the reference every repair must reproduce exactly.
func fixpointFor(t *testing.T, keys []int64) string {
	t.Helper()
	n := closingNetwork(t)
	a := newRangedPeer(t, n, "a", nil)
	defer a.Close()
	loadViewSender(t, a)
	b := newRangedPeer(t, n, "b", nil)
	defer b.Close()
	if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		t.Fatal(err)
	}
	applySrcFacts(t, a, keys)
	want := len(keys)
	if !drive([]*Peer{a, b}, func() bool { return len(b.Query("view")) == want }, 10*time.Second) {
		t.Fatalf("reference pair never converged to %d facts", want)
	}
	return tupleSet(b, "view")
}

func intRange(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// mutateKeys drops the keys in `drop` and appends `add` fresh keys past n.
func mutateKeys(n int, drop map[int64]bool, add int) []int64 {
	var out []int64
	for i := 0; i < n; i++ {
		if !drop[int64(i)] {
			out = append(out, int64(i))
		}
	}
	for i := 0; i < add; i++ {
		out = append(out, int64(n+i))
	}
	return out
}

// TestSenderRestartRangedRepair: a receiver holds a large, almost-correct
// maintained view when its sender restarts without the facts it deleted
// while down. The divergence is repaired through digest bisection and the
// repair traffic is a fraction of what re-shipping the view costs — a
// fraction that shrinks as the view grows: O(δ log n) against O(n).
func TestSenderRestartRangedRepair(t *testing.T) {
	for _, tc := range []struct {
		viewSize, divergence int // the restarted sender lost and gained `divergence` evenly spaced keys
		minRatio             uint64
		long                 bool
	}{
		{viewSize: 3000, divergence: 3, minRatio: 4},
		{viewSize: 100_000, divergence: 32, minRatio: 20, long: true},
	} {
		t.Run(fmt.Sprint(tc.viewSize), func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("100k-fact tier")
			}
			drop := map[int64]bool{}
			for i := 0; i < tc.divergence; i++ {
				drop[int64(i*(tc.viewSize/tc.divergence)+tc.viewSize/(2*tc.divergence))] = true
			}
			finalKeys := mutateKeys(tc.viewSize, drop, tc.divergence)
			// view@b mirrors src@a, so the fixpoint is the final key set; its
			// digest makes every convergence poll O(1).
			var want store.Digest
			for _, k := range finalKeys {
				want.Add(value.Tuple{value.Int(k)}.Key())
			}

			n := closingNetwork(t)
			a := newRangedPeer(t, n, "a", nil)
			loadViewSender(t, a)
			b := newRangedPeer(t, n, "b", nil)
			defer b.Close()
			if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
				t.Fatal(err)
			}
			view := b.Store().Get("view", "b")
			applySrcFacts(t, a, intRange(tc.viewSize))
			if !drive([]*Peer{a, b}, func() bool {
				pending, _ := a.OutboxPending()
				return view.Len() == tc.viewSize && pending == 0
			}, 60*time.Second) {
				t.Fatalf("initial load never converged")
			}

			// Crash the sender; its fresh incarnation never knew the dropped keys.
			a.Close()
			a2 := newRangedPeer(t, n, "a", nil)
			defer a2.Close()
			loadViewSender(t, a2)
			applySrcFacts(t, a2, finalKeys)
			if !drive([]*Peer{a2, b}, func() bool { return view.Digest() == want }, 60*time.Second) {
				t.Fatalf("restarted pair never converged: view@b digests %+v, want %+v", view.Digest(), want)
			}
			s := a2.Stats()
			if s.ResyncRangedRepairs == 0 {
				t.Fatalf("sender served no ranged repairs")
			}
			// The full re-send this repair is measured against: the encoded size of
			// the view's full-range repair run.
			fullBytes := a2.ViewRepairBytes("b")
			cost := s.ResyncRangedRepairBytes + s.ResyncRangeDigestBytes
			t.Logf("repair %d bytes (%d repair + %d digest), full re-send %d bytes: %.1fx",
				cost, s.ResyncRangedRepairBytes, s.ResyncRangeDigestBytes, fullBytes, float64(fullBytes)/float64(cost))
			if cost*tc.minRatio > fullBytes {
				t.Errorf("ranged repair cost %d bytes; want at most 1/%d of the %d-byte full re-send", cost, tc.minRatio, fullBytes)
			}
		})
	}
}

// convergedViewPair loads viewSize facts into the canonical maintained view
// and drives sender and receiver until it has crossed and every ack landed.
func convergedViewPair(t *testing.T, viewSize int, interval time.Duration) (a, b *Peer) {
	t.Helper()
	n := closingNetwork(t)
	a = newResyncPeer(t, n, "a", interval)
	t.Cleanup(func() { a.Close() })
	loadViewSender(t, a)
	b = newResyncPeer(t, n, "b", interval)
	t.Cleanup(func() { b.Close() })
	if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		t.Fatal(err)
	}
	applySrcFacts(t, a, intRange(viewSize))
	if !drive([]*Peer{a, b}, func() bool {
		pending, _ := a.OutboxPending()
		return len(b.Query("view")) == viewSize && pending == 0
	}, 20*time.Second) {
		t.Fatalf("initial load never converged")
	}
	return a, b
}

// TestEmptyLedgerRangeAskedOutright: a receiver that follows the stream but
// holds nothing of a relation the sender counts well over rangedRepairLeaf
// facts in does not bisect — every subrange could only differ too. The
// advert alone routes it: one repair request for the full range, no
// range-digest round, each fact shipped once.
func TestEmptyLedgerRangeAskedOutright(t *testing.T) {
	const viewSize = 3 * rangedRepairLeaf
	a, b := convergedViewPair(t, viewSize, resyncTestInterval)
	b.mu.Lock()
	ledger := b.sessionLocked("a")
	keys, _ := ledger.trees["view@b"].RangeKeys(fullRange.Lo, fullRange.Hi, 0)
	for _, key := range keys {
		ledger.ledgerRemove("view@b", key)
	}
	b.mu.Unlock()

	a.mu.Lock()
	want := a.rv.Tree("b", "view@b").Root()
	a.mu.Unlock()
	if !drive([]*Peer{a, b}, func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return ledger.ledgerDigest("view@b") == want
	}, 10*time.Second) {
		t.Fatalf("the emptied ledger was never repaired")
	}
	as, bs := a.Stats(), b.Stats()
	if bs.ResyncRangesRequested != 1 || as.ResyncRangeDigestBytes != 0 ||
		as.ResyncRangedRepairs != 1 || as.ResyncRangedRepairBytes != a.ViewRepairBytes("b") {
		t.Errorf("want one full-range request answered by one full re-send (%d bytes) and no bisection:\nsender %+v\nreceiver %+v",
			a.ViewRepairBytes("b"), as, bs)
	}
	if len(b.Query("view")) != viewSize {
		t.Errorf("view@b holds %d facts, want %d", len(b.Query("view")), viewSize)
	}
}

// TestBroadDivergenceAsksForRanges: a round whose mismatching ranges would
// fan out into more than rangedMaxRound digests is not bisected further —
// the receiver asks for the ranges themselves.
func TestBroadDivergenceAsksForRanges(t *testing.T) {
	const viewSize = 5000
	const ranges = rangedMaxRound/rangedBisectFanout + 1
	a, b := convergedViewPair(t, viewSize, -1)

	// A round of digests disagreeing with an intact ledger on every range of
	// an even partition of the hash line, each too populous for a leaf.
	round := make([]protocol.RangeDigest, ranges)
	step := fullRange.Hi / ranges
	b.mu.Lock()
	for i := range round {
		lo := uint64(i) * step
		hi := lo + step - 1
		if i == ranges-1 {
			hi = fullRange.Hi
		}
		d := b.sessionLocked("a").rangeDigest("view@b", lo, hi)
		if d.Count == 0 {
			t.Fatalf("ledger holds nothing in [%x,%x]: the round would not test the fan-out bound", lo, hi)
		}
		round[i] = protocol.RangeDigest{Lo: lo, Hi: hi, Hash: ^d.Hash, Count: 2 * rangedRepairLeaf}
	}
	b.compareRangesLocked("a", "view@b", round)
	b.mu.Unlock()
	b.Poke()

	if !drive([]*Peer{a, b}, func() bool {
		pending, _ := a.OutboxPending()
		return a.Stats().ResyncRangedRepairs > 0 && pending == 0
	}, 10*time.Second) {
		t.Fatalf("the ranges were never re-shipped: %+v", a.Stats())
	}
	as, bs := a.Stats(), b.Stats()
	if bs.ResyncRangesRequested != ranges || as.ResyncRangeDigestBytes != 0 {
		t.Errorf("want %d ranges asked for outright and no digest round served:\nsender %+v\nreceiver %+v", ranges, as, bs)
	}
	if as.ResyncRangedRepairBytes < a.ViewRepairBytes("b") || len(b.Query("view")) != viewSize {
		t.Errorf("the re-shipped ranges cover %d of the view's %d bytes; view@b holds %d facts, want %d",
			as.ResyncRangedRepairBytes, a.ViewRepairBytes("b"), len(b.Query("view")), viewSize)
	}
}

// repairCutEndpoint is a link that dies mid-run: while armed it delivers the
// first sequenced repair message and fails every later one.
type repairCutEndpoint struct {
	transport.Endpoint
	armed  atomic.Bool
	passed atomic.Int32
}

func (e *repairCutEndpoint) Send(ctx context.Context, to string, msg protocol.Payload) error {
	if dm, ok := msg.(protocol.DataMsg); ok && e.armed.Load() {
		if _, ok := dm.Msg.(protocol.RangeRepairMsg); ok && e.passed.Add(1) > 1 {
			return transport.ErrInjectedFault
		}
	}
	return e.Endpoint.Send(ctx, to, msg)
}

// TestChunkedRepairRestart: the full-range repair of a view larger than
// repairChunkOps ships as a run of bounded, self-contained messages. The
// run is cut after its first message and the receiver killed: what it had
// applied is exactly the sender's facts over the hash range that message
// stated and nothing beyond it — no buffering, no half-applied range — and
// its successor still converges to the fault-free fixpoint.
func TestChunkedRepairRestart(t *testing.T) {
	const viewSize = repairChunkOps + 1000
	n := closingNetwork(t)
	link := &repairCutEndpoint{Endpoint: n.Bus().Endpoint("a")}
	a, err := New(Config{Name: "a", ResyncInterval: resyncTestInterval}, link)
	if err != nil {
		t.Fatal(err)
	}
	shrinkOutboxTimers(a, 10*time.Millisecond)
	n.Add(a)
	defer a.Close()
	loadViewSender(t, a)
	b := newRangedPeer(t, n, "b", nil)
	if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		t.Fatal(err)
	}
	applySrcFacts(t, a, intRange(viewSize))
	// Converge AND let the ack land: once the sender drops the acknowledged
	// prefix, plain retransmission can never recover a restarted receiver —
	// only a stream reset around the full-range repair can.
	if !drive([]*Peer{a, b}, func() bool {
		pending, _ := a.OutboxPending()
		return len(b.Query("view")) == viewSize && pending == 0
	}, 20*time.Second) {
		t.Fatalf("initial load never converged")
	}
	want := tupleSet(b, "view")

	// The sender's view cut exactly as the repair run cuts it.
	a.mu.Lock()
	_, firstEnd := a.rv.RangeFacts("b", "view@b", 0, fullRange.Hi, repairChunkOps)
	tree := a.rv.Tree("b", "view@b")
	wantFirst := tree.RangeDigest(0, firstEnd)
	a.mu.Unlock()
	if wantFirst.Count != repairChunkOps || firstEnd == fullRange.Hi {
		t.Fatalf("first chunk covers %d facts to %x; want %d and a cut", wantFirst.Count, firstEnd, repairChunkOps)
	}

	// The receiver loses everything; the reset stream's run is cut after its
	// first message, and the receiver dies again with only that applied.
	link.armed.Store(true)
	b.Close()
	b2 := newRangedPeer(t, n, "b", nil)
	if err := b2.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		t.Fatal(err)
	}
	if !drive([]*Peer{a, b2}, func() bool { return len(b2.Query("view")) > 0 }, 20*time.Second) {
		t.Fatalf("restarted receiver never received the first repair message")
	}
	b2.mu.Lock()
	ledger := b2.sessionLocked("a")
	gotFirst, gotRest := ledger.rangeDigest("view@b", 0, firstEnd), ledger.rangeDigest("view@b", firstEnd+1, fullRange.Hi)
	b2.mu.Unlock()
	if gotFirst != wantFirst || gotRest.Count != 0 || len(b2.Query("view")) != repairChunkOps {
		t.Fatalf("cut run left %+v in the applied range (want %+v), %d facts beyond it, %d in the view",
			gotFirst, wantFirst, gotRest.Count, len(b2.Query("view")))
	}
	b2.Close()
	link.armed.Store(false)

	b3 := newRangedPeer(t, n, "b", nil)
	defer b3.Close()
	if err := b3.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		t.Fatal(err)
	}
	if !drive([]*Peer{a, b3}, func() bool { return tupleSet(b3, "view") == want }, 20*time.Second) {
		t.Fatalf("receiver restarted mid-run never recovered: %d of %d facts", len(b3.Query("view")), viewSize)
	}
}

// TestRangedDifferentialUnderFaults is the differential property test: a
// randomized divergence schedule — sender restart with lost retractions,
// receiver restart, live mutations after both — runs through a transport
// that drops, duplicates and reorders, and must converge to exactly the
// fault-free recompute fixpoint.
func TestRangedDifferentialUnderFaults(t *testing.T) {
	seeds := []int64{21, 22, 23}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const viewSize = 400
			drop := map[int64]bool{}
			for len(drop) < 5 {
				drop[rng.Int63n(viewSize)] = true
			}
			restartKeys := mutateKeys(viewSize, drop, 3)
			// Live mutations after the restarts: delete a few survivors,
			// add a few more fresh keys.
			finalKeys := restartKeys[:0:0]
			lateDrop := map[int64]bool{}
			for len(lateDrop) < 3 {
				k := restartKeys[rng.Intn(len(restartKeys))]
				lateDrop[k] = true
			}
			for _, k := range restartKeys {
				if !lateDrop[k] {
					finalKeys = append(finalKeys, k)
				}
			}
			finalKeys = append(finalKeys, viewSize+100, viewSize+101)
			want := fixpointFor(t, finalKeys)

			cfg := transport.FaultConfig{Seed: seed, Drop: 0.15, Dup: 0.1, Reorder: 0.1}
			n := closingNetwork(t)
			a := newRangedPeer(t, n, "a", &cfg)
			loadViewSender(t, a)
			b := newRangedPeer(t, n, "b", &cfg)
			if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
				t.Fatal(err)
			}
			applySrcFacts(t, a, intRange(viewSize))
			if !drive([]*Peer{a, b}, func() bool { return len(b.Query("view")) == viewSize }, 20*time.Second) {
				t.Fatalf("initial load never converged under faults")
			}

			// Sender crashes; its fresh incarnation owes retractions
			// it will never send as deltas.
			a.Close()
			a2 := newRangedPeer(t, n, "a", &cfg)
			defer a2.Close()
			loadViewSender(t, a2)
			applySrcFacts(t, a2, restartKeys)
			if !drive([]*Peer{a2, b}, func() bool { return len(b.Query("view")) == len(restartKeys) }, 30*time.Second) {
				t.Fatalf("post-restart repair never converged: %d facts, want %d",
					len(b.Query("view")), len(restartKeys))
			}

			// Receiver crashes too, then the sender keeps mutating.
			b.Close()
			b2 := newRangedPeer(t, n, "b", &cfg)
			defer b2.Close()
			if err := b2.DeclareRelation("view", ast.Intensional, "x"); err != nil {
				t.Fatal(err)
			}
			mb := engine.NewBatch()
			for k := range lateDrop {
				mb.Delete(ast.NewFact("src", "a", value.Int(k)))
			}
			mb.Insert(ast.NewFact("src", "a", value.Int(viewSize+100)))
			mb.Insert(ast.NewFact("src", "a", value.Int(viewSize+101)))
			if err := a2.Apply(context.Background(), mb); err != nil {
				t.Fatal(err)
			}
			if !drive([]*Peer{a2, b2}, func() bool { return tupleSet(b2, "view") == want }, 30*time.Second) {
				t.Fatalf("diverged from the fault-free fixpoint:\n got %.160s\nwant %.160s",
					tupleSet(b2, "view"), want)
			}
			s := a2.Stats()
			if s.ResyncRangedRepairs == 0 {
				t.Errorf("repaired without any ranged repair message")
			}
		})
	}
}

// TestWideRepairRequestServedInBoundedChunks: one request for the whole hash
// line over a 10k-fact view — what a fresh receiver legitimately sends and a
// hostile one can always send — is served as bounded messages whose ranges
// partition the request in hash order, without gap or overlap, each carrying
// exactly the facts of its own ranges.
func TestWideRepairRequestServedInBoundedChunks(t *testing.T) {
	const viewSize = 10_000
	n := closingNetwork(t)
	a := newRangedPeer(t, n, "a", nil)
	defer a.Close()
	loadViewSender(t, a)
	applySrcFacts(t, a, intRange(viewSize))
	a.RunStage()

	a.mu.Lock()
	a.handleRangeRequestLocked("b", protocol.RangeRequestMsg{
		RelID: "view@b", Repair: []protocol.HashRange{fullRange}})
	a.mu.Unlock()
	dq := a.outbox.queue("b")
	dq.mu.Lock()
	entries := append([]outEntry(nil), dq.entries...)
	dq.mu.Unlock()

	msgs, facts := 0, map[string]bool{}
	next, done := uint64(0), false
	for _, e := range entries {
		m, ok := e.msg.(protocol.RangeRepairMsg)
		if !ok {
			continue
		}
		msgs++
		if len(m.Ops) == 0 || len(m.Ops) > repairChunkOps {
			t.Errorf("repair message %d carries %d ops, want 1..%d", msgs, len(m.Ops), repairChunkOps)
		}
		lo := next
		for _, r := range m.Ranges {
			if done || r.Lo != next || r.Hi < r.Lo {
				t.Fatalf("repair message %d states [%x,%x]; the partition continues at %x (complete: %v)", msgs, r.Lo, r.Hi, next, done)
			}
			next, done = r.Hi+1, r.Hi == fullRange.Hi
		}
		for _, fd := range m.Ops {
			key := fd.Fact.Args.Key()
			if h := store.KeyHash(key); h < lo || h > next-1 || facts[key] {
				t.Fatalf("repair message %d carries %s outside its own ranges [%x,%x] (or twice)", msgs, fd, lo, next-1)
			}
			facts[key] = true
		}
	}
	if !done || len(facts) != viewSize {
		t.Errorf("run covers the hash line up to %x (complete: %v) with %d facts, want all %d", next-1, done, len(facts), viewSize)
	}
	if want := (viewSize + repairChunkOps - 1) / repairChunkOps; msgs != want {
		t.Errorf("%d-fact view served in %d messages, want %d", viewSize, msgs, want)
	}
}

// TestSplitRange: the subranges of a bisection round are ordered, disjoint
// and cover the parent exactly, whatever its width — including the uint64
// overflow at the top of the hash line.
func TestSplitRange(t *testing.T) {
	max := ^uint64(0)
	for _, tc := range []struct {
		name   string
		r      protocol.HashRange
		pieces int
	}{
		{"full range", fullRange, rangedBisectFanout},
		{"single point", protocol.HashRange{Lo: 42, Hi: 42}, 1},
		{"narrower than the fan-out", protocol.HashRange{Lo: 100, Hi: 104}, 5},
		{"exactly the fan-out", protocol.HashRange{Lo: 0, Hi: rangedBisectFanout - 1}, rangedBisectFanout},
		{"uneven width", protocol.HashRange{Lo: 7, Hi: 7 + 100}, 15},
		{"top of the line", protocol.HashRange{Lo: max - 1000, Hi: max}, rangedBisectFanout},
		{"single point at the top", protocol.HashRange{Lo: max, Hi: max}, 1},
		{"upper half", protocol.HashRange{Lo: 1 << 63, Hi: max}, rangedBisectFanout},
	} {
		got := splitRange(tc.r)
		if len(got) != tc.pieces {
			t.Errorf("%s: %d subranges, want %d: %v", tc.name, len(got), tc.pieces, got)
		}
		next := tc.r.Lo
		for i, s := range got {
			if s.Lo != next || s.Hi < s.Lo || s.Hi > tc.r.Hi {
				t.Fatalf("%s: subrange %d is [%x,%x], want it to start at %x inside [%x,%x]", tc.name, i, s.Lo, s.Hi, next, tc.r.Lo, tc.r.Hi)
			}
			next = s.Hi + 1
		}
		if last := got[len(got)-1].Hi; last != tc.r.Hi {
			t.Errorf("%s: subranges end at %x, want %x", tc.name, last, tc.r.Hi)
		}
	}
}

// ViewRepairBytes returns what re-sending everything this peer maintains at
// dst costs on the wire: the encoded size of the view's full-range repair
// run, the baseline a narrower repair is measured against.
func (p *Peer) ViewRepairBytes(dst string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return repairBytes(p.viewRepairsLocked(dst))
}
