package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/peer"
	"repro/internal/transport"
	"repro/internal/value"
)

// swarmInst is a follower graph of trivial peers in one process: every peer
// is an author whose posts are pushed into each follower's feed by a rule
// at the author. All peers share one mux and one interner and run under the
// concurrent wake-queue scheduler.
type swarmInst struct {
	offWire
	sc       scale
	plan     *swarmPlan
	net      *peer.Network
	mux      *transport.Mux
	interner *value.Interner
	ps       peerSet
}

// swarmProgram is peer a's program: its relations and one push rule per
// follower.
func swarmProgram(a int, followers []int) string {
	name := swarmPeerName(a)
	var sb strings.Builder
	fmt.Fprintf(&sb, "relation extensional post@%s(id);\nrelation intensional feed@%s(author, id);\n", name, name)
	for _, f := range followers {
		fmt.Fprintf(&sb, "feed@%s(%q, $i) :- post@%s($i);\n", swarmPeerName(f), name, name)
	}
	return sb.String()
}

// swarmRounds bounds RunToQuiescence: fan-out plus ack round-trips across a
// large population need more than the default budget.
const swarmRounds = 10_000

func setupSwarm(ctx context.Context, seed int64, sc scale, _ string) (_ instance, err error) {
	s := &swarmInst{sc: sc, plan: newSwarmPlan(seed, sc), net: peer.NewNetwork(),
		mux: transport.NewMux(), interner: value.NewInterner()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	cfg := peer.Config{
		// Flush inside RunStage and under the scheduler: thousands of peers
		// cannot each afford flusher goroutines and anti-entropy timers.
		SyncEmit: true, ResyncInterval: -1, Interner: s.interner,
	}
	for a, followers := range s.plan.followers {
		cfg.Name = swarmPeerName(a)
		p, err := peer.New(cfg, s.mux.Endpoint(cfg.Name))
		if err != nil {
			return nil, err
		}
		s.ps = append(s.ps, p)
		s.net.Add(p)
		if err = p.LoadSource(swarmProgram(a, followers)); err != nil {
			return nil, err
		}
	}
	for a, posts := range s.plan.posts {
		var facts []ast.Fact
		for _, post := range posts {
			facts = append(facts, swarmOp{author: a, post: post}.fact())
		}
		if err = s.ps[a].Apply(ctx, batchOf(facts)); err != nil {
			return nil, err
		}
	}
	if _, _, err = s.net.RunToQuiescence(ctx, swarmRounds); err != nil {
		return nil, err
	}
	warm := newRecorder(time.Now(), 0, nil)
	for i := 0; i < 4; i++ {
		s.round(ctx, warm)
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("%d of %d warm-up rounds failed", warm.failed, warm.attempted)
	}
	return s, nil
}

func (s *swarmInst) run(ctx context.Context, until time.Time, rec *recorder) {
	for ctx.Err() == nil && time.Now().Before(until) {
		s.round(ctx, rec)
	}
}

// round posts and deletes at seeded authors, then converges every feed.
func (s *swarmInst) round(ctx context.Context, rec *recorder) {
	ops := s.plan.round(s.sc.swRoundPosts, s.sc.swRoundDeletes)
	t0 := time.Now()
	tr := rec.tracer(t0)
	for _, op := range ops {
		if err := s.ps[op.author].Apply(ctx, oneOp(op.fact(), op.del)); err != nil {
			rec.fail(err)
			return
		}
	}
	t1 := time.Now()
	scans0 := s.net.SchedulerScans()
	rounds, _, err := s.net.RunToQuiescence(ctx, swarmRounds)
	if err != nil {
		rec.fail(err)
		return
	}
	t2 := time.Now()
	rec.done(sample{start: t0, end: t2, updates: len(ops), traced: tr != nil})
	if tr != nil {
		rec.quiesced(rounds)
		rec.scanned(s.net.SchedulerScans() - scans0)
		id := rec.nextUpdate()
		root := tr.add("round", t0, t2, -1, id)
		tr.add("peer.apply", t0, t1, root, id)
		tr.add("peer.run_to_quiescence", t1, t2, root, id)
	}
}

func (s *swarmInst) peers() []*peer.Peer                    { return s.ps }
func (s *swarmInst) counters() (peer.Stats, engineCounters) { return s.ps.counters() }

// verify builds the whole swarm again as the reference — sequential
// scheduler, bus transport, no interner, recomputing engines — loads the
// posts that are live now, and compares every peer's feed.
func (s *swarmInst) verify(ctx context.Context) (int, int, error) {
	var programs []peerProgram
	var facts []ast.Fact
	for a, followers := range s.plan.followers {
		programs = append(programs, peerProgram{swarmPeerName(a), swarmProgram(a, followers)})
		for _, post := range s.plan.posts[a] {
			facts = append(facts, swarmOp{author: a, post: post}.fact())
		}
	}
	ref, err := newReference(ctx, programs, facts)
	if err != nil {
		return 0, 0, err
	}
	defer ref.close()
	checked, bad := 0, 0
	for _, p := range s.ps {
		c, b := ref.compare(p, p.Name(), "feed")
		checked, bad = checked+c, bad+b
	}
	return checked, bad, nil
}

func (s *swarmInst) close() {
	for _, p := range s.ps {
		p.Close()
	}
	s.mux.Close()
}

func (s *swarmInst) probe(ctx context.Context, lm layerMetrics) error {
	var programs []peerProgram
	var tuples []value.Tuple
	for a, followers := range s.plan.followers {
		programs = append(programs, peerProgram{swarmPeerName(a), swarmProgram(a, followers)})
		for _, post := range s.plan.posts[a] {
			if len(tuples) < 20_000 {
				tuples = append(tuples, value.Tuple{value.Str(swarmPeerName(a)), value.Str(post)})
			}
		}
	}
	if err := probePrograms(lm, programs, 1); err != nil {
		return err
	}
	probeStore(lm, tuples)
	probeValue(lm, tuples)
	post := swarmOp{author: 0, post: s.plan.newPost()}.fact()
	if err := probeInProcess(ctx, lm, post); err != nil {
		return err
	}
	var feed []ast.Fact
	for _, t := range tuples[:min(len(tuples), 64)] {
		feed = append(feed, ast.Fact{Rel: "feed", Peer: swarmPeerName(1), Args: t})
	}
	probeRemoteView(lm, swarmPeerName(1), feed)

	stored := 0
	for _, p := range s.ps {
		for _, rel := range []string{"post", "feed"} {
			stored += p.Store().Get(rel, p.Name()).Len()
		}
	}
	st := s.interner.Stats()
	lm.set("value.intern_entries", float64(st.Strings+st.Tuples), 1)
	lm.set("value.intern_hit_ratio", 1-float64(st.Tuples)/float64(stored), stored)

	var ops []probeOp
	for _, op := range s.plan.round(s.sc.swRoundPosts, s.sc.swRoundDeletes) {
		ops = append(ops, probeOp{at: s.ps[op.author], batch: oneOp(op.fact(), op.del), del: op.del})
	}
	_, err := probeStages(ctx, lm, s.net, ops, false)
	return err
}
