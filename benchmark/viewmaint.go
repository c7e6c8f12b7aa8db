package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/peer"
	"repro/internal/value"
)

// viewMaintInst is one peer on a sequential network with no transport:
// a two-level join view plus transitive closure over chains, maintained
// under single-fact inserts and deletes.
type viewMaintInst struct {
	offWire
	gen   *vmGen
	net   *peer.Network
	p     *peer.Peer
	view  <-chan peer.Delta
	reach <-chan peer.Delta
	stop  context.CancelFunc

	builtMS float64 // fixpoint time of the stages that built the views
}

func setupViewMaint(ctx context.Context, seed int64, sc scale, _ string) (_ instance, err error) {
	v := &viewMaintInst{gen: newVMGen(seed, sc), net: peer.NewSequentialNetwork()}
	defer func() {
		if err != nil {
			v.close()
		}
	}()
	if v.p, err = v.net.NewPeer(peer.Config{Name: "p", ResyncInterval: -1}); err != nil {
		return nil, err
	}
	if err = v.p.LoadSource(viewMaintProgram()); err != nil {
		return nil, err
	}
	if err = v.p.Apply(ctx, batchOf(v.gen.baseFacts())); err != nil {
		return nil, err
	}
	v.builtMS = fullStageMS(v.net.StageAll())
	if _, _, err = v.net.RunToQuiescence(ctx, 0); err != nil {
		return nil, err
	}
	sctx, stop := context.WithCancel(context.Background())
	v.stop = stop
	if v.view, err = v.p.Subscribe(sctx, "view"); err != nil {
		return nil, err
	}
	if v.reach, err = v.p.Subscribe(sctx, "reach"); err != nil {
		return nil, err
	}
	// Warm ops: the first deletions build the rederivation indexes.
	warm := newRecorder(time.Now(), 0, nil)
	for i := 0; i < 64; i++ {
		v.step(ctx, warm)
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("%d of %d warm-up operations failed", warm.failed, warm.attempted)
	}
	return v, nil
}

func (v *viewMaintInst) run(ctx context.Context, until time.Time, rec *recorder) {
	for ctx.Err() == nil && time.Now().Before(until) {
		v.step(ctx, rec)
	}
}

// step applies one generated op, runs to quiescence and looks for the delta
// that op must produce on its subscription.
func (v *viewMaintInst) step(ctx context.Context, rec *recorder) {
	op := v.gen.next()
	f := v.gen.fact(op)
	b := oneOp(f, op.del)
	t0 := time.Now()
	tr := rec.tracer(t0)
	if err := v.p.Apply(ctx, b); err != nil {
		rec.fail(err)
		return
	}
	t1 := time.Now()
	rounds, _, err := v.net.RunToQuiescence(ctx, 0)
	if err != nil {
		rec.fail(err)
		return
	}
	t2 := time.Now()
	match := func(d peer.Delta) bool {
		return d.Delete == op.del && d.Tuple[0].IntVal() == op.a && d.Tuple[1].IntVal() == op.b
	}
	// Both channels are emptied every step; only the op's own relation
	// can confirm it.
	inView, inReach := drainFor(v.view, match), drainFor(v.reach, match)
	seen := inView && !op.link || inReach && op.link
	t3 := time.Now()
	if !seen {
		rec.fail(fmt.Errorf("no delta for %v of %s", op, f))
		return
	}
	rec.done(sample{start: t0, end: t3, updates: 1, traced: tr != nil})
	if tr != nil {
		rec.quiesced(rounds)
		id := rec.nextUpdate()
		root := tr.add("update", t0, t3, -1, id)
		tr.add("peer.apply", t0, t1, root, id)
		tr.add("peer.run_to_quiescence", t1, t2, root, id)
		tr.add("driver.drain_deltas", t2, t3, root, id)
	}
}

// drainFor empties a subscription channel without blocking and reports
// whether any delta satisfied want. On a sequential network the stage has
// committed, and so delivered every delta, before RunToQuiescence returned.
func drainFor(ch <-chan peer.Delta, want func(peer.Delta) bool) bool {
	seen := false
	for {
		select {
		case d, ok := <-ch:
			if !ok {
				return seen
			}
			seen = seen || want(d)
		default:
			return seen
		}
	}
}

func (v *viewMaintInst) peers() []*peer.Peer { return []*peer.Peer{v.p} }
func (v *viewMaintInst) counters() (peer.Stats, engineCounters) {
	return peerSet{v.p}.counters()
}

func (v *viewMaintInst) verify(ctx context.Context) (int, int, error) {
	ref, err := newReference(ctx, []peerProgram{{"p", viewMaintProgram()}}, v.gen.baseFacts())
	if err != nil {
		return 0, 0, err
	}
	defer ref.close()
	checked, bad := ref.compare(v.p, "p", "view", "hot", "reach")
	return checked, bad, nil
}

func (v *viewMaintInst) close() {
	if v.stop != nil {
		v.stop()
	}
	if v.p != nil {
		v.p.Close()
	}
}

func (v *viewMaintInst) probe(ctx context.Context, lm layerMetrics) error {
	if err := probePrograms(lm, []peerProgram{{"p", viewMaintProgram()}}, 9); err != nil {
		return err
	}
	lm.set("engine.full_stage_ms", v.builtMS, 1)
	var tuples []value.Tuple
	for _, id := range v.gen.data[:min(len(v.gen.data), 20_000)] {
		tuples = append(tuples, v.gen.dataFact(id).Args)
	}
	probeStore(lm, tuples)
	probeValue(lm, tuples)
	var ops []probeOp
	for i := 0; i < 400; i++ {
		op := v.gen.next()
		ops = append(ops, probeOp{at: v.p, batch: oneOp(v.gen.fact(op), op.del), del: op.del})
	}
	_, err := probeStages(ctx, lm, v.net, ops, false)
	return err
}
