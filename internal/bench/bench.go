// Package bench holds the workload generators and experiment runners behind
// the repository's benchmark suite (root bench_test.go) and the experiment
// harness (cmd/wdlbench). Each Run* function builds a fresh deployment,
// exercises one aspect the paper demonstrates — fixpoint computation,
// stage pipelining, delegation, distribution, transports — and returns
// measurements.
package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/peer"
	"repro/internal/protocol"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/value"
)

// ChainEdges returns edges 0->1->2->…->n (n edges).
func ChainEdges(n int) [][2]int64 {
	out := make([][2]int64, n)
	for i := range out {
		out[i] = [2]int64{int64(i), int64(i + 1)}
	}
	return out
}

// BinaryTreeEdges returns parent->child edges of a complete binary tree
// with n nodes, a bushier fixpoint workload than a chain.
func BinaryTreeEdges(n int) [][2]int64 {
	var out [][2]int64
	for i := 1; i < n; i++ {
		out = append(out, [2]int64{int64((i - 1) / 2), int64(i)})
	}
	return out
}

// TCResult measures one transitive-closure fixpoint.
type TCResult struct {
	Edges      int
	Derived    int
	Iterations int
	Duration   time.Duration
}

// RunTC loads the given edges into a single peer's store and runs the
// classic transitive-closure program to fixpoint.
func RunTC(edges [][2]int64) (TCResult, error) {
	db := store.New()
	edge, err := db.Declare(store.Schema{Name: "edge", Peer: "local", Kind: ast.Extensional, Cols: []string{"a", "b"}})
	if err != nil {
		return TCResult{}, err
	}
	if _, err := db.Declare(store.Schema{Name: "tc", Peer: "local", Kind: ast.Intensional, Cols: []string{"a", "b"}}); err != nil {
		return TCResult{}, err
	}
	for _, e := range edges {
		edge.Insert(value.Tuple{value.Int(e[0]), value.Int(e[1])})
	}
	e := engine.New("local", db, engine.DefaultOptions())
	prog, err := e.CompileProgram([]ast.Rule{
		mustRule("t1", `tc@local($x,$y) :- edge@local($x,$y);`),
		mustRule("t2", `tc@local($x,$z) :- tc@local($x,$y), edge@local($y,$z);`),
	})
	if err != nil {
		return TCResult{}, err
	}
	start := time.Now()
	res := e.RunStage(prog)
	return TCResult{
		Edges:      len(edges),
		Derived:    res.Derived,
		Iterations: res.Iterations,
		Duration:   time.Since(start),
	}, joinErrs(res.Errors)
}

// StageDecomposition measures the three steps of one peer stage
// (experiment P2): ingest of n remote facts, fixpoint over a join view, and
// emission of the derived facts to a remote sink.
type StageDecomposition struct {
	Facts    int
	Ingest   time.Duration
	Fixpoint time.Duration
	Emit     time.Duration
}

// RunStageDecomposition builds a two-peer network, queues nFacts at the
// subject peer, runs its stage and reports the per-step latencies.
func RunStageDecomposition(nFacts int) (StageDecomposition, error) {
	net := peer.NewNetwork()
	subject, err := net.NewPeer(peer.Config{Name: "subject"})
	if err != nil {
		return StageDecomposition{}, err
	}
	if _, err := net.NewPeer(peer.Config{Name: "sink"}); err != nil {
		return StageDecomposition{}, err
	}
	err = subject.LoadSource(`
		relation extensional in@subject(id, payload);
		relation intensional view@subject(id, payload);
		view@subject($i,$p) :- in@subject($i,$p);
		out@sink($i) :- view@subject($i,$p);
	`)
	if err != nil {
		return StageDecomposition{}, err
	}
	subject.RunStage() // initial compile stage
	for i := 0; i < nFacts; i++ {
		err := subject.Insert(ast.NewFact("in", "subject",
			value.Int(int64(i)), value.Str(fmt.Sprintf("payload-%d", i))))
		if err != nil {
			return StageDecomposition{}, err
		}
	}
	rep := subject.RunStage()
	return StageDecomposition{
		Facts:    nFacts,
		Ingest:   rep.Ingest,
		Fixpoint: rep.Fixpoint,
		Emit:     rep.Emit,
	}, joinErrs(rep.Errors)
}

// FanoutResult measures a delegation fan-out run (experiment P3).
type FanoutResult struct {
	Peers     int
	Rounds    int
	Stages    int
	Collected int
	Messages  uint64
	Duration  time.Duration
}

// RunDelegationFanout builds a coordinator plus n member peers, each
// holding factsPerPeer data facts. The coordinator's single rule
//
//	all@coord($x) :- members@coord($p), data@$p($x)
//
// delegates one residual rule to every member at run time. The run measures
// wall-clock time to quiescence.
func RunDelegationFanout(nPeers, factsPerPeer int) (FanoutResult, error) {
	net, err := fanoutNetwork(nPeers, factsPerPeer)
	if err != nil {
		return FanoutResult{}, err
	}
	coord := net.Peer("coord")
	if _, err := coord.AddRule(`all@coord($x) :- members@coord($p), data@$p($x);`); err != nil {
		return FanoutResult{}, err
	}
	start := time.Now()
	rounds, stages, err := net.RunToQuiescence(context.Background(), 0)
	if err != nil {
		return FanoutResult{}, err
	}
	return FanoutResult{
		Peers:     nPeers,
		Rounds:    rounds,
		Stages:    stages,
		Collected: len(coord.Query("all")),
		Messages:  net.Bus().Stats().MessagesSent,
		Duration:  time.Since(start),
	}, nil
}

// RunPreinstalledFanout is the baseline for P3: instead of delegating at
// run time, the residual rules are installed at the members up front (what
// a static distributed-datalog deployment would do).
func RunPreinstalledFanout(nPeers, factsPerPeer int) (FanoutResult, error) {
	net, err := fanoutNetwork(nPeers, factsPerPeer)
	if err != nil {
		return FanoutResult{}, err
	}
	coord := net.Peer("coord")
	for i := 0; i < nPeers; i++ {
		member := net.Peer(fmt.Sprintf("m%03d", i))
		rule := fmt.Sprintf(`all@coord($x) :- data@%s($x);`, member.Name())
		if _, err := member.AddRule(rule); err != nil {
			return FanoutResult{}, err
		}
	}
	start := time.Now()
	rounds, stages, err := net.RunToQuiescence(context.Background(), 0)
	if err != nil {
		return FanoutResult{}, err
	}
	return FanoutResult{
		Peers:     nPeers,
		Rounds:    rounds,
		Stages:    stages,
		Collected: len(coord.Query("all")),
		Messages:  net.Bus().Stats().MessagesSent,
		Duration:  time.Since(start),
	}, nil
}

func fanoutNetwork(nPeers, factsPerPeer int) (*peer.Network, error) {
	net := peer.NewNetwork()
	coord, err := net.NewPeer(peer.Config{Name: "coord"})
	if err != nil {
		return nil, err
	}
	if err := coord.DeclareRelation("members", ast.Extensional, "p"); err != nil {
		return nil, err
	}
	if err := coord.DeclareRelation("all", ast.Extensional, "x"); err != nil {
		return nil, err
	}
	for i := 0; i < nPeers; i++ {
		name := fmt.Sprintf("m%03d", i)
		m, err := net.NewPeer(peer.Config{Name: name})
		if err != nil {
			return nil, err
		}
		if err := m.DeclareRelation("data", ast.Extensional, "x"); err != nil {
			return nil, err
		}
		for j := 0; j < factsPerPeer; j++ {
			err := m.Insert(ast.NewFact("data", name, value.Str(fmt.Sprintf("%s-%d", name, j))))
			if err != nil {
				return nil, err
			}
		}
		if err := coord.Insert(ast.NewFact("members", "coord", value.Str(name))); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// DistributionResult measures experiment P4: answering a cross-peer join
// with in-place distributed evaluation (delegation) versus shipping every
// base fact to a central peer first.
type DistributionResult struct {
	Peers        int
	Answers      int
	Messages     uint64
	FactsShipped uint64
	Duration     time.Duration
}

// factsShipped sums the facts received across all peers of the network —
// the data volume that crossed peer boundaries.
func factsShipped(net *peer.Network) uint64 {
	var sum uint64
	for _, p := range net.Peers() {
		sum += p.Stats().FactsIn
	}
	return sum
}

// RunDistributedJoin evaluates, at the querying peer,
//
//	match@q($x) :- wanted@q($p, $x), data@$p($x)
//
// where wanted names (peer, item) pairs: only matching items travel.
func RunDistributedJoin(nPeers, factsPerPeer, wantedPerPeer int) (DistributionResult, error) {
	net, q, err := distributionNetwork(nPeers, factsPerPeer, wantedPerPeer)
	if err != nil {
		return DistributionResult{}, err
	}
	if _, err := q.AddRule(`match@q($x) :- wanted@q($p,$x), data@$p($x);`); err != nil {
		return DistributionResult{}, err
	}
	start := time.Now()
	if _, _, err := net.RunToQuiescence(context.Background(), 0); err != nil {
		return DistributionResult{}, err
	}
	return DistributionResult{
		Peers:        nPeers,
		Answers:      len(q.Query("match")),
		Messages:     net.Bus().Stats().MessagesSent,
		FactsShipped: factsShipped(net),
		Duration:     time.Since(start),
	}, nil
}

// RunCentralizedJoin is the baseline: every member ships its whole data
// relation to the querying peer, which joins locally.
func RunCentralizedJoin(nPeers, factsPerPeer, wantedPerPeer int) (DistributionResult, error) {
	net, q, err := distributionNetwork(nPeers, factsPerPeer, wantedPerPeer)
	if err != nil {
		return DistributionResult{}, err
	}
	if err := q.DeclareRelation("central", ast.Extensional, "p", "x"); err != nil {
		return DistributionResult{}, err
	}
	for i := 0; i < nPeers; i++ {
		name := fmt.Sprintf("m%03d", i)
		m := net.Peer(name)
		rule := fmt.Sprintf(`central@q("%s", $x) :- data@%s($x);`, name, name)
		if _, err := m.AddRule(rule); err != nil {
			return DistributionResult{}, err
		}
	}
	if _, err := q.AddRule(`match@q($x) :- wanted@q($p,$x), central@q($p,$x);`); err != nil {
		return DistributionResult{}, err
	}
	start := time.Now()
	if _, _, err := net.RunToQuiescence(context.Background(), 0); err != nil {
		return DistributionResult{}, err
	}
	return DistributionResult{
		Peers:        nPeers,
		Answers:      len(q.Query("match")),
		Messages:     net.Bus().Stats().MessagesSent,
		FactsShipped: factsShipped(net),
		Duration:     time.Since(start),
	}, nil
}

func distributionNetwork(nPeers, factsPerPeer, wantedPerPeer int) (*peer.Network, *peer.Peer, error) {
	net := peer.NewNetwork()
	q, err := net.NewPeer(peer.Config{Name: "q"})
	if err != nil {
		return nil, nil, err
	}
	if err := q.DeclareRelation("wanted", ast.Extensional, "p", "x"); err != nil {
		return nil, nil, err
	}
	if err := q.DeclareRelation("match", ast.Extensional, "x"); err != nil {
		return nil, nil, err
	}
	for i := 0; i < nPeers; i++ {
		name := fmt.Sprintf("m%03d", i)
		m, err := net.NewPeer(peer.Config{Name: name})
		if err != nil {
			return nil, nil, err
		}
		if err := m.DeclareRelation("data", ast.Extensional, "x"); err != nil {
			return nil, nil, err
		}
		for j := 0; j < factsPerPeer; j++ {
			item := fmt.Sprintf("%s-%d", name, j)
			if err := m.Insert(ast.NewFact("data", name, value.Str(item))); err != nil {
				return nil, nil, err
			}
			if j < wantedPerPeer {
				if err := q.Insert(ast.NewFact("wanted", "q", value.Str(name), value.Str(item))); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return net, q, nil
}

// TransportResult measures raw message throughput (experiment P5).
type TransportResult struct {
	Messages  int
	BytesEach int
	Duration  time.Duration
}

// RunBusThroughput pushes n fact messages of the given payload size through
// the in-memory bus.
func RunBusThroughput(n, payload int) (TransportResult, error) {
	bus := transport.NewBus()
	a := bus.Endpoint("a")
	b := bus.Endpoint("b")
	msg := makeMsg(payload)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := a.Send(context.Background(), "b", msg); err != nil {
			return TransportResult{}, err
		}
	}
	got := 0
	for got < n {
		got += len(b.Drain())
	}
	return TransportResult{Messages: n, BytesEach: payload, Duration: time.Since(start)}, nil
}

// RunTCPThroughput pushes n fact messages of the given payload size through
// a localhost TCP link, including gob encode/decode.
func RunTCPThroughput(n, payload int) (TransportResult, error) {
	a, err := transport.ListenTCP(context.Background(), "a", "127.0.0.1:0", nil)
	if err != nil {
		return TransportResult{}, err
	}
	defer a.Close()
	b, err := transport.ListenTCP(context.Background(), "b", "127.0.0.1:0", nil)
	if err != nil {
		return TransportResult{}, err
	}
	defer b.Close()
	a.AddPeer("b", b.Addr())
	msg := makeMsg(payload)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := a.Send(context.Background(), "b", msg); err != nil {
			return TransportResult{}, err
		}
	}
	got := 0
	deadline := time.Now().Add(30 * time.Second)
	for got < n {
		got += len(b.Drain())
		if time.Now().After(deadline) {
			return TransportResult{}, fmt.Errorf("bench: tcp throughput: received %d of %d", got, n)
		}
	}
	return TransportResult{Messages: n, BytesEach: payload, Duration: time.Since(start)}, nil
}

func makeMsg(payload int) protocol.FactsMsg {
	return protocol.FactsMsg{Ops: []protocol.FactDelta{{
		Fact: ast.NewFact("blobrel", "b", value.Blob(make([]byte, payload))),
	}}}
}

// WALAblation measures update-stage latency with and without durability.
type WALAblation struct {
	Facts    int
	WAL      bool
	Duration time.Duration
}

// RunWALAblation inserts n facts through a peer stage, optionally logging
// them to a WAL in dir.
func RunWALAblation(n int, dir string) (WALAblation, error) {
	net := peer.NewNetwork()
	cfg := peer.Config{Name: "p"}
	if dir != "" {
		w, err := store.OpenWAL(dir)
		if err != nil {
			return WALAblation{}, err
		}
		cfg.WAL = w
	}
	p, err := net.NewPeer(cfg)
	if err != nil {
		return WALAblation{}, err
	}
	if err := p.DeclareRelation("data", ast.Extensional, "id", "payload"); err != nil {
		return WALAblation{}, err
	}
	for i := 0; i < n; i++ {
		err := p.Insert(ast.NewFact("data", "p", value.Int(int64(i)), value.Str("payload")))
		if err != nil {
			return WALAblation{}, err
		}
	}
	start := time.Now()
	rep := p.RunStage()
	d := time.Since(start)
	if err := joinErrs(rep.Errors); err != nil {
		return WALAblation{}, err
	}
	return WALAblation{Facts: n, WAL: dir != "", Duration: d}, nil
}

// BatchResult measures the insert path of the v2 API: n facts staged either
// one Insert call at a time or as a single atomic Batch.
type BatchResult struct {
	Facts    int
	Stages   uint64
	Duration time.Duration
}

// RunInsertPath stages n facts at one live peer — per-fact when batched is
// false, as one Batch otherwise — and waits until the peer's stage loop has
// ingested them all. The peer runs its production loop (peer.Run), so the
// per-fact path pays what it pays in deployment: one lock acquisition and
// one scheduler wakeup per call, with each wakeup liable to trigger a
// fixpoint stage over whatever arrived. The batched path takes the lock
// once, wakes the loop once, and applies the facts through the store's
// grouped InsertMany.
func RunInsertPath(n int, batched bool) (BatchResult, error) {
	net := peer.NewNetwork()
	p, err := net.NewPeer(peer.Config{Name: "p"})
	if err != nil {
		return BatchResult{}, err
	}
	// The workload mirrors wdlbench's stage experiments: every ingested
	// fact feeds a derived view, so each fixpoint stage costs real work and
	// stage amplification on the per-fact path is visible.
	if err := p.LoadSource(`
		relation extensional data@p(id, payload);
		relation intensional view@p(id, payload);
		view@p($i,$s) :- data@p($i,$s);
	`); err != nil {
		return BatchResult{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = p.Run(ctx)
	}()

	start := time.Now()
	if batched {
		b := engine.NewBatch()
		for i := 0; i < n; i++ {
			b.Insert(ast.NewFact("data", "p", value.Int(int64(i)), value.Str("payload")))
		}
		if err := p.Apply(ctx, b); err != nil {
			return BatchResult{}, err
		}
	} else {
		for i := 0; i < n; i++ {
			err := p.Insert(ast.NewFact("data", "p", value.Int(int64(i)), value.Str("payload")))
			if err != nil {
				return BatchResult{}, err
			}
		}
	}
	rel := p.Store().Get("data", "p")
	deadline := time.Now().Add(60 * time.Second)
	for rel.Len() < n {
		if time.Now().After(deadline) {
			return BatchResult{}, fmt.Errorf("bench: insert path: %d of %d facts ingested", rel.Len(), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
	d := time.Since(start)
	cancel()
	<-done
	return BatchResult{Facts: n, Stages: p.Stats().Stages, Duration: d}, nil
}

// RunRemoteInsertPath measures the wire half of batching: peer a stages n
// facts owned by peer b over a localhost TCP link — n framed gob messages
// on the per-fact path, one on the batched path — and waits for b's stage
// loop to ingest them.
func RunRemoteInsertPath(n int, batched bool) (BatchResult, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	epA, err := transport.ListenTCP(ctx, "a", "127.0.0.1:0", nil)
	if err != nil {
		return BatchResult{}, err
	}
	defer epA.Close()
	epB, err := transport.ListenTCP(ctx, "b", "127.0.0.1:0", nil)
	if err != nil {
		return BatchResult{}, err
	}
	defer epB.Close()
	epA.AddPeer("b", epB.Addr())
	a, err := peer.New(peer.Config{Name: "a"}, epA)
	if err != nil {
		return BatchResult{}, err
	}
	b, err := peer.New(peer.Config{Name: "b"}, epB)
	if err != nil {
		return BatchResult{}, err
	}
	if err := b.DeclareRelation("data", ast.Extensional, "id", "payload"); err != nil {
		return BatchResult{}, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = b.Run(ctx)
	}()

	start := time.Now()
	if batched {
		batch := engine.NewBatch()
		for i := 0; i < n; i++ {
			batch.Insert(ast.NewFact("data", "b", value.Int(int64(i)), value.Str("payload")))
		}
		if err := a.Apply(ctx, batch); err != nil {
			return BatchResult{}, err
		}
	} else {
		for i := 0; i < n; i++ {
			err := a.Insert(ast.NewFact("data", "b", value.Int(int64(i)), value.Str("payload")))
			if err != nil {
				return BatchResult{}, err
			}
		}
	}
	rel := b.Store().Get("data", "b")
	deadline := time.Now().Add(60 * time.Second)
	for rel.Len() < n {
		if time.Now().After(deadline) {
			return BatchResult{}, fmt.Errorf("bench: remote insert path: %d of %d facts ingested", rel.Len(), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
	d := time.Since(start)
	cancel()
	<-done
	return BatchResult{Facts: n, Stages: b.Stats().Stages, Duration: d}, nil
}

// IncrementalResult measures experiment I1: the latency of single-fact
// updates against a large materialized view, with incremental maintenance
// versus naive per-stage recomputation.
type IncrementalResult struct {
	Facts     int
	Rounds    int
	Setup     time.Duration // initial materialization of the view
	PerUpdate time.Duration // mean latency of one insert+delete round
	ViewRows  int
	ViewFP    uint64 // content fingerprint, for cross-mode agreement checks
}

// RunIncrementalUpdate loads n base facts into a two-level join view,
// materializes it, then applies `rounds` single-fact update batches (one
// insert plus one delete each) measuring the stage latency per update. With
// incremental=false the peer recomputes the views from scratch every stage
// (the ablation baseline); both modes must converge to identical view
// contents — the caller compares ViewRows/ViewFP.
func RunIncrementalUpdate(n, rounds int, incremental bool) (IncrementalResult, error) {
	opts := engine.DefaultOptions()
	opts.Incremental = incremental
	net := peer.NewNetwork()
	p, err := net.NewPeer(peer.Config{Name: "p", Engine: &opts})
	if err != nil {
		return IncrementalResult{}, err
	}
	if err := p.LoadSource(`
		relation extensional data@p(id, grp);
		relation extensional meta@p(grp, label);
		relation intensional view@p(id, grp, label);
		relation intensional hot@p(id);
		view@p($i,$g,$l) :- data@p($i,$g), meta@p($g,$l);
		hot@p($i) :- view@p($i,$g,"hot");
	`); err != nil {
		return IncrementalResult{}, err
	}
	const groups = 100
	b := engine.NewBatch()
	for g := 0; g < groups; g++ {
		label := "cold"
		if g%2 == 0 {
			label = "hot"
		}
		b.Insert(ast.NewFact("meta", "p", value.Int(int64(g)), value.Str(label)))
	}
	for i := 0; i < n; i++ {
		b.Insert(ast.NewFact("data", "p", value.Int(int64(i)), value.Int(int64(i%groups))))
	}
	if err := p.Apply(context.Background(), b); err != nil {
		return IncrementalResult{}, err
	}
	start := time.Now()
	if _, _, err := net.RunToQuiescence(context.Background(), 0); err != nil {
		return IncrementalResult{}, err
	}
	// Warm-up round (unmeasured): the first deletion builds the head-bound
	// rederivation indexes, a one-time cost that belongs to setup.
	w := engine.NewBatch()
	w.Insert(ast.NewFact("data", "p", value.Int(-1), value.Int(0)))
	if err := p.Apply(context.Background(), w); err != nil {
		return IncrementalResult{}, err
	}
	if _, _, err := net.RunToQuiescence(context.Background(), 0); err != nil {
		return IncrementalResult{}, err
	}
	w = engine.NewBatch()
	w.Delete(ast.NewFact("data", "p", value.Int(-1), value.Int(0)))
	if err := p.Apply(context.Background(), w); err != nil {
		return IncrementalResult{}, err
	}
	if _, _, err := net.RunToQuiescence(context.Background(), 0); err != nil {
		return IncrementalResult{}, err
	}
	setup := time.Since(start)

	// Update rounds: retire one fact, admit one fact, settle the stage.
	start = time.Now()
	for r := 0; r < rounds; r++ {
		u := engine.NewBatch()
		u.Delete(ast.NewFact("data", "p", value.Int(int64(r)), value.Int(int64(r%groups))))
		u.Insert(ast.NewFact("data", "p", value.Int(int64(n+r)), value.Int(int64((n+r)%groups))))
		if err := p.Apply(context.Background(), u); err != nil {
			return IncrementalResult{}, err
		}
		if _, _, err := net.RunToQuiescence(context.Background(), 0); err != nil {
			return IncrementalResult{}, err
		}
	}
	total := time.Since(start)

	view := p.Store().Get("view", "p")
	hot := p.Store().Get("hot", "p")
	return IncrementalResult{
		Facts:     n,
		Rounds:    rounds,
		Setup:     setup,
		PerUpdate: total / time.Duration(rounds),
		ViewRows:  view.Len() + hot.Len(),
		ViewFP:    view.Fingerprint() ^ (hot.Fingerprint() * 31),
	}, nil
}

// RunIncrementalAgreement drives the same random insert/delete script
// through an incremental and a naive-recompute peer over a recursive
// (transitive closure) program and reports whether the materialized views
// agree after every batch — the property behind experiment I1's correctness
// column. It returns the number of steps checked.
func RunIncrementalAgreement(steps int, seed int64) (int, error) {
	build := func(incremental bool) (*peer.Network, *peer.Peer, error) {
		opts := engine.DefaultOptions()
		opts.Incremental = incremental
		net := peer.NewNetwork()
		p, err := net.NewPeer(peer.Config{Name: "p", Engine: &opts})
		if err != nil {
			return nil, nil, err
		}
		err = p.LoadSource(`
			relation extensional edge@p(a, b);
			relation intensional tc@p(a, b);
			tc@p($x,$y) :- edge@p($x,$y);
			tc@p($x,$z) :- tc@p($x,$y), edge@p($y,$z);
		`)
		if err != nil {
			return nil, nil, err
		}
		return net, p, nil
	}
	netI, pI, err := build(true)
	if err != nil {
		return 0, err
	}
	netN, pN, err := build(false)
	if err != nil {
		return 0, err
	}
	rnd := seed
	next := func(mod int64) int64 {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		v := (rnd >> 33) % mod
		if v < 0 {
			v += mod
		}
		return v
	}
	live := map[[2]int64]bool{}
	for s := 0; s < steps; s++ {
		var f ast.Fact
		del := len(live) > 0 && next(3) == 0
		if del {
			// Deterministic victim: the smallest live edge, so a fixed seed
			// reproduces the exact script (map iteration order would not).
			var victim [2]int64
			first := true
			for e := range live {
				if first || e[0] < victim[0] || (e[0] == victim[0] && e[1] < victim[1]) {
					victim = e
					first = false
				}
			}
			f = ast.NewFact("edge", "p", value.Int(victim[0]), value.Int(victim[1]))
			delete(live, victim)
		} else {
			a, b := next(12), next(12)
			live[[2]int64{a, b}] = true
			f = ast.NewFact("edge", "p", value.Int(a), value.Int(b))
		}
		for _, p := range []*peer.Peer{pI, pN} {
			var err error
			if del {
				err = p.Delete(f)
			} else {
				err = p.Insert(f)
			}
			if err != nil {
				return s, err
			}
		}
		if _, _, err := netI.RunToQuiescence(context.Background(), 0); err != nil {
			return s, err
		}
		if _, _, err := netN.RunToQuiescence(context.Background(), 0); err != nil {
			return s, err
		}
		ti := pI.Store().Get("tc", "p")
		tn := pN.Store().Get("tc", "p")
		if ti.Len() != tn.Len() || ti.Fingerprint() != tn.Fingerprint() {
			return s, fmt.Errorf("bench: step %d: incremental tc (%d rows) != naive tc (%d rows)",
				s, ti.Len(), tn.Len())
		}
	}
	return steps, nil
}

func mustRule(id, src string) ast.Rule {
	r, err := parseRule(src)
	if err != nil {
		panic(fmt.Sprintf("bench: rule %s: %v", id, err))
	}
	r.ID = id
	return r
}

func joinErrs(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("bench: %d stage errors, first: %w", len(errs), errs[0])
}
