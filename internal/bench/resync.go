package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/peer"
	"repro/internal/protocol"
	"repro/internal/store"
	"repro/internal/value"
)

// ResyncResult measures experiment P8: recovery of a restarted volatile
// receiver via anti-entropy resync, and the steady-state cost of the digest
// protocol versus naively re-sending the full view every period.
type ResyncResult struct {
	Ops          int
	FixpointRows int  // rows of the fault-free fixpoint view
	Recovered    bool // receiver contents equal the fixpoint after restart
	RowsAfter    int  // rows at the receiver when the run ended
	RecoveryTime time.Duration

	// Resync work actually performed: repair requests the receiver sent,
	// and what the sender served — repair messages, their encoded size, and
	// the encoded size of range-digest replies (bisection rounds beyond the
	// advert; an empty receiver needs none).
	Requests         uint64
	Repairs          uint64
	RepairBytes      uint64
	RangeDigestBytes uint64

	// Steady-state anti-entropy cost per period on an *unchanged* view:
	// what one digest advert costs on the wire versus what naively
	// re-sending the whole maintained view would cost — the encoded size of
	// its full-range repair run as the sender cuts it
	// (peer.ViewRepairBytes). A restarted receiver's repair costs exactly
	// that when every maintained fact is shipped once.
	DigestBytes   int
	FullViewBytes uint64
}

// resyncBenchInterval paces the anti-entropy adverts fast enough for a
// bench run.
const resyncBenchInterval = 25 * time.Millisecond

// RunReceiverRestart drives a seeded random insert/delete stream into a
// maintained remote view, converges, kills and restarts the volatile
// receiver, and — with no further sender-side change — reports whether the
// receiver recovered the fault-free fixpoint. With resync disabled
// (the pre-anti-entropy behavior) the run must end diverged: nothing ever
// re-teaches the restarted receiver.
func RunReceiverRestart(ops int, resync bool) (ResyncResult, error) {
	interval := resyncBenchInterval
	if !resync {
		interval = -1
	}
	n := peer.NewNetwork()
	mkPeer := func(name string) (*peer.Peer, error) {
		p, err := peer.New(peer.Config{
			Name:             name,
			OutboxAckTimeout: 10 * time.Millisecond,
			OutboxBackoff:    2 * time.Millisecond,
			ResyncInterval:   interval,
		}, n.Bus().Endpoint(name))
		if err != nil {
			return nil, err
		}
		n.Add(p)
		return p, nil
	}
	a, err := mkPeer("a")
	if err != nil {
		return ResyncResult{}, err
	}
	defer a.Close()
	if err := a.LoadSource(`
		relation extensional src@a(x);
		view@b($x) :- src@a($x);
	`); err != nil {
		return ResyncResult{}, err
	}
	b, err := mkPeer("b")
	if err != nil {
		return ResyncResult{}, err
	}
	if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		return ResyncResult{}, err
	}

	driveAll := func(ps ...*peer.Peer) {
		for _, p := range ps {
			if p.HasWork() {
				p.RunStage()
			}
		}
	}
	until := func(ps []*peer.Peer, deadline time.Duration, done func() bool) bool {
		end := time.Now().Add(deadline)
		for time.Now().Before(end) {
			driveAll(ps...)
			if done() {
				return true
			}
			time.Sleep(500 * time.Microsecond)
		}
		return false
	}

	// Seeded random update stream; the final present-set is the fixpoint.
	rng := rand.New(rand.NewSource(20130819))
	present := map[int64]bool{}
	for i := 0; i < ops; i++ {
		k := rng.Int63n(32)
		var err error
		if present[k] {
			err = a.Delete(ast.NewFact("src", "a", value.Int(k)))
		} else {
			err = a.Insert(ast.NewFact("src", "a", value.Int(k)))
		}
		if err != nil {
			return ResyncResult{}, err
		}
		present[k] = !present[k]
		driveAll(a, b)
	}
	var want []value.Tuple
	for k, in := range present {
		if in {
			want = append(want, value.Tuple{value.Int(k)})
		}
	}
	value.SortTuples(want)
	res := ResyncResult{Ops: ops, FixpointRows: len(want)}

	// The fault-free fixpoint, as an O(1)-comparable content digest: the
	// same incrementally maintained fold the receiver's view relation keeps
	// (store.Relation.Digest), so every convergence poll is a constant-time
	// compare instead of a sort.
	var wantDig store.Digest
	for _, t := range want {
		wantDig.Add(t.Key())
	}
	atFixpoint := func(p *peer.Peer) bool {
		return p.Store().Get("view", "b").Digest() == wantDig
	}

	if !until([]*peer.Peer{a, b}, 30*time.Second, func() bool { return atFixpoint(b) }) {
		return res, fmt.Errorf("p8: pre-crash convergence failed: %v", b.Query("view"))
	}
	// Drain every in-flight ack so the crash leaves no retransmission that
	// would repair the stream as a side effect — the scenario under test is
	// the idle sender.
	if !until([]*peer.Peer{a, b}, 10*time.Second, func() bool {
		total, _ := a.OutboxPending()
		return total == 0
	}) {
		return res, fmt.Errorf("p8: sender outbox never drained")
	}

	// Steady-state anti-entropy cost on the (now unchanged) view: one
	// digest advert versus one naive full re-send of the same view.
	advert := protocol.DigestMsg{
		Epoch:   1,
		AsOfSeq: uint64(ops),
		Rels:    map[string]protocol.RelDigest{"view@b": {Hash: wantDig.Hash, Count: wantDig.Count}},
	}
	db, err := protocol.EncodePayload(advert)
	if err != nil {
		return res, err
	}
	res.DigestBytes = len(db)
	res.FullViewBytes = a.ViewRepairBytes("b")

	// Kill the receiver; bring up a fresh volatile incarnation. The sender
	// changes nothing from here on.
	if err := b.Close(); err != nil {
		return res, err
	}
	b2, err := mkPeer("b")
	if err != nil {
		return res, err
	}
	defer b2.Close()
	if err := b2.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		return res, err
	}

	start := time.Now()
	if resync {
		res.Recovered = until([]*peer.Peer{a, b2}, 30*time.Second, func() bool { return atFixpoint(b2) })
		res.RecoveryTime = time.Since(start)
	} else {
		// Generous grace period: prove that no mechanism kicks in.
		until([]*peer.Peer{a, b2}, 400*time.Millisecond, func() bool { return false })
		res.Recovered = atFixpoint(b2)
	}
	res.RowsAfter = len(b2.Query("view"))
	res.Requests = b2.Stats().ResyncRequested
	s := a.Stats()
	res.Repairs, res.RepairBytes, res.RangeDigestBytes = s.ResyncRangedRepairs, s.ResyncRangedRepairBytes, s.ResyncRangeDigestBytes
	return res, nil
}

// LargeViewResult measures the large-view tier of experiment P8: a sender
// restart against a receiver whose huge maintained view is almost correct,
// repaired through the Merkle-ranged bisection dialogue.
type LargeViewResult struct {
	ViewSize   int
	Divergence int // keys the restarted sender lost + keys it gained
	Recovered  bool
	Recovery   time.Duration

	// Sender-side repair traffic actually served.
	RangedRepairs   uint64
	RangedBytes     uint64 // RangeRepairMsg bytes
	DigestBytes     uint64 // RangeDigestMsg reply bytes
	RangesRequested uint64 // receiver-side: leaf ranges whose repair was asked

	// RepairBytes is what the repair cost on the wire: bisection digests
	// plus ranged repairs.
	RepairBytes uint64

	// FullViewBytes is the encoded size of the final fixpoint's full-range
	// repair run (peer.ViewRepairBytes) — the counterfactual cost of
	// re-sending the whole view at this tier.
	FullViewBytes uint64
}

// RunLargeViewRepair loads a maintained view of viewSize facts, converges,
// then restarts the *sender* as a fresh incarnation that lost `divergence`
// of its facts and gained `divergence` new ones. The receiver's ledger is
// intact and almost correct — the scenario the bisection dialogue exists for.
func RunLargeViewRepair(viewSize, divergence int) (LargeViewResult, error) {
	res := LargeViewResult{ViewSize: viewSize, Divergence: 2 * divergence}
	n := peer.NewNetwork()
	mkPeer := func(name string) (*peer.Peer, error) {
		p, err := peer.New(peer.Config{
			Name:             name,
			OutboxAckTimeout: 20 * time.Millisecond,
			OutboxBackoff:    5 * time.Millisecond,
			ResyncInterval:   resyncBenchInterval,
		}, n.Bus().Endpoint(name))
		if err != nil {
			return nil, err
		}
		n.Add(p)
		return p, nil
	}
	program := `
		relation extensional src@a(x);
		view@b($x) :- src@a($x);
	`
	a, err := mkPeer("a")
	if err != nil {
		return res, err
	}
	defer a.Close()
	if err := a.LoadSource(program); err != nil {
		return res, err
	}
	b, err := mkPeer("b")
	if err != nil {
		return res, err
	}
	defer b.Close()
	if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		return res, err
	}

	until := func(ps []*peer.Peer, deadline time.Duration, done func() bool) bool {
		end := time.Now().Add(deadline)
		for time.Now().Before(end) {
			worked := false
			for _, p := range ps {
				if p.HasWork() {
					p.RunStage()
					worked = true
				}
			}
			if done() {
				return true
			}
			if !worked {
				time.Sleep(500 * time.Microsecond)
			}
		}
		return false
	}
	apply := func(p *peer.Peer, keys []int64) error {
		batch := engine.NewBatch()
		for _, k := range keys {
			batch.Insert(ast.NewFact("src", "a", value.Int(k)))
		}
		return p.Apply(context.Background(), batch)
	}
	digestOf := func(keys []int64) store.Digest {
		var d store.Digest
		for _, k := range keys {
			d.Add(value.Tuple{value.Int(k)}.Key())
		}
		return d
	}

	// Initial load: keys 0..viewSize-1, converged and fully acked (so the
	// crash leaves no retransmission that would mask the repair path).
	initial := make([]int64, viewSize)
	for i := range initial {
		initial[i] = int64(i)
	}
	wantInit := digestOf(initial)
	if err := apply(a, initial); err != nil {
		return res, err
	}
	viewDigest := func(p *peer.Peer) store.Digest { return p.Store().Get("view", "b").Digest() }
	if !until([]*peer.Peer{a, b}, 120*time.Second, func() bool { return viewDigest(b) == wantInit }) {
		return res, fmt.Errorf("p8 large-view: initial convergence failed at %d facts", viewSize)
	}
	if !until([]*peer.Peer{a, b}, 30*time.Second, func() bool {
		total, _ := a.OutboxPending()
		return total == 0
	}) {
		return res, fmt.Errorf("p8 large-view: sender outbox never drained")
	}

	// Sender crash: the fresh incarnation never knew `divergence` evenly
	// spaced keys and holds `divergence` new ones — a small δ in a huge,
	// otherwise intact receiver ledger.
	if err := a.Close(); err != nil {
		return res, err
	}
	step := viewSize / divergence
	lost := map[int64]bool{}
	for i := 0; i < divergence; i++ {
		lost[int64(i*step)] = true
	}
	var final []int64
	for _, k := range initial {
		if !lost[k] {
			final = append(final, k)
		}
	}
	for i := 0; i < divergence; i++ {
		final = append(final, int64(viewSize+i))
	}
	wantFinal := digestOf(final)

	a2, err := mkPeer("a")
	if err != nil {
		return res, err
	}
	defer a2.Close()
	if err := a2.LoadSource(program); err != nil {
		return res, err
	}
	if err := apply(a2, final); err != nil {
		return res, err
	}
	start := time.Now()
	res.Recovered = until([]*peer.Peer{a2, b}, 120*time.Second, func() bool { return viewDigest(b) == wantFinal })
	res.Recovery = time.Since(start)

	s := a2.Stats()
	res.RangedRepairs = s.ResyncRangedRepairs
	res.RangedBytes = s.ResyncRangedRepairBytes
	res.DigestBytes = s.ResyncRangeDigestBytes
	res.RangesRequested = b.Stats().ResyncRangesRequested
	res.RepairBytes = res.RangedBytes + res.DigestBytes

	res.FullViewBytes = a2.ViewRepairBytes("b")
	return res, nil
}
