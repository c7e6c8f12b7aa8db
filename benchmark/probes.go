package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/peer"
	"repro/internal/protocol"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/value"
)

// Layer probes replay a workload's own generated inputs through one
// layer's public functions in isolation. They run after the measured
// window of a traced run, on the layers that are on the workload's path;
// the others keep their zero.

// timeOnce returns how long fn took, in units of div nanoseconds.
func timeOnce(div float64, fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0)) / div
}

// timeReps runs fn reps times and returns each run's duration.
func timeReps(reps int, div float64, fn func()) []float64 {
	out := make([]float64, reps)
	for i := range out {
		out[i] = timeOnce(div, fn)
	}
	return out
}

// perCall times n calls of fn as one stretch and returns nanoseconds per
// call; for calls too short to time one by one.
func perCall(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// allocsPer returns mallocs per call of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// probePrograms measures the front end on the workload's program texts:
// parse, static check, and rule compilation against a store holding the
// program's declarations. Several programs (one per peer) add up.
func probePrograms(lm layerMetrics, programs []peerProgram, reps int) error {
	var parseUS, checkUS, compileUS float64
	for _, pp := range programs {
		prog, err := parser.Parse(pp.source)
		if err != nil {
			return err
		}
		parseUS += median(timeReps(reps, 1e3, func() { parser.Parse(pp.source) }))
		opts := analysis.Options{DefaultPeer: pp.name}
		checkUS += median(timeReps(reps, 1e3, func() { analysis.Check(prog, opts) }))

		db := store.New()
		for _, d := range prog.Relations {
			if _, err := db.Declare(store.Schema{Name: d.Name, Peer: d.Peer, Kind: d.Kind, Cols: d.Cols}); err != nil {
				return err
			}
		}
		rules, _ := analysis.Attribute(prog, pp.name)
		e := engine.New(pp.name, db, engine.DefaultOptions())
		if _, err := e.CompileProgram(rules); err != nil {
			return err
		}
		compileUS += median(timeReps(reps, 1e3, func() { e.CompileProgram(rules) }))
	}
	lm.set("parser.parse_us", parseUS, reps)
	lm.set("analysis.check_us", checkUS, reps)
	lm.set("engine.compile_us", compileUS, reps)
	return nil
}

// probeParseFact measures parser.ParseFact on apply-body fact strings.
func probeParseFact(lm layerMetrics, texts []string) {
	var us []float64
	for _, s := range texts {
		us = append(us, timeOnce(1e3, func() { parser.ParseFact(s) }))
	}
	lm.set("parser.parse_fact_us", median(us), len(us))
}

// probeOp is one update for the stage probe: a batch applied at a peer.
type probeOp struct {
	at    *peer.Peer
	batch *engine.Batch
	del   bool
}

// probeStages applies ops one at a time on a network nobody else is
// driving, steps it with StageAll until no peer has work, and derives the
// engine and peer metrics that only a StageReport carries. It returns the
// reports of the stages that ran.
func probeStages(ctx context.Context, lm layerMetrics, net *peer.Network, ops []probeOp, setApply bool) ([]*peer.StageReport, error) {
	var ran []*peer.StageReport
	var applyUS, ingestUS, fixUS, emitUS, stageUS, insUS, delUS []float64
	var stages, iterations, derived, retracted int
	for _, op := range ops {
		t0 := time.Now()
		if err := op.at.Apply(ctx, op.batch); err != nil {
			return nil, err
		}
		applyUS = append(applyUS, float64(time.Since(t0))/1e3)
		var opFix time.Duration
		for {
			reps := net.StageAll()
			if len(reps) == 0 {
				break
			}
			for _, r := range reps {
				if !r.Ran {
					continue
				}
				stages++
				ran = append(ran, r)
				iterations += r.Iterations
				derived += r.Derived
				retracted += r.Retracted
				opFix += r.Fixpoint
				ingestUS = append(ingestUS, float64(r.Ingest)/1e3)
				fixUS = append(fixUS, float64(r.Fixpoint)/1e3)
				emitUS = append(emitUS, float64(r.Emit)/1e3)
				stageUS = append(stageUS, float64(r.Duration())/1e3)
			}
		}
		if op.del {
			delUS = append(delUS, float64(opFix)/1e3)
		} else {
			insUS = append(insUS, float64(opFix)/1e3)
		}
	}
	if _, _, err := net.RunToQuiescence(ctx, swarmRounds); err != nil {
		return nil, err
	}
	if stages == 0 {
		return nil, fmt.Errorf("stage probe: no stage ran")
	}
	if setApply {
		lm.set("peer.apply_us_p50", median(applyUS), len(applyUS))
	}
	lm.set("peer.ingest_us_p50", median(ingestUS), stages)
	lm.set("peer.emit_us_p50", median(emitUS), stages)
	lm.set("peer.stage_us_p50", median(stageUS), stages)
	lm.set("engine.fixpoint_us_p50", median(fixUS), stages)
	lm.set("engine.insert_stage_us_p50", median(insUS), len(insUS))
	lm.set("engine.delete_stage_us_p50", median(delUS), len(delUS))
	lm.set("engine.iterations_per_stage", float64(iterations)/float64(stages), stages)
	lm.set("engine.derived_per_update", float64(derived)/float64(len(ops)), len(ops))
	lm.set("engine.retracted_per_update", float64(retracted)/float64(len(ops)), len(ops))
	return ran, nil
}

// fullStageMS sums the fixpoint time of the stages that ran in reports:
// called on a deployment's first stages, it is the from-scratch build.
func fullStageMS(reports []*peer.StageReport) float64 {
	var d time.Duration
	for _, r := range reports {
		if r.Ran {
			d += r.Fixpoint
		}
	}
	return float64(d) / 1e6
}

// probeStore measures the store on the workload's tuples: bulk insert,
// index build on the first column, keyed probes, and Merkle maintenance.
func probeStore(lm layerMetrics, tuples []value.Tuple) {
	cols := make([]string, len(tuples[0]))
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	schema := store.Schema{Name: "probe", Peer: "p", Kind: ast.Extensional, Cols: cols}
	var rel *store.Relation
	ins := timeReps(5, 1e3, func() {
		rel = store.NewRelation(schema)
		rel.InsertMany(tuples)
	})
	lm.set("store.insert_many_us_per_kfact", median(ins)*1000/float64(len(tuples)), len(tuples))

	mask := store.MaskOf(0)
	build := make([]float64, 5)
	for i := range build {
		r := store.NewRelation(schema)
		r.InsertMany(tuples)
		build[i] = timeOnce(1e6, func() { r.EnsureIndex(mask) })
	}
	lm.set("store.index_build_ms", median(build), len(tuples))

	rel.EnsureIndex(mask)
	keys := make([][]byte, len(tuples))
	for i, t := range tuples {
		keys[i] = t[0].AppendKey(nil)
	}
	hits := 0
	ns := perCall(len(keys), func(i int) {
		rel.Probe(mask, keys[i], func(value.Tuple) bool { hits++; return true })
	})
	lm.set("store.probe_ns", ns, len(keys))

	tkeys := make([]string, len(tuples))
	for i, t := range tuples {
		tkeys[i] = t.Key()
	}
	tree := store.NewMerkleTree()
	lm.set("store.merkle_add_ns", perCall(len(tkeys), func(i int) { tree.Add(tkeys[i]) }), len(tkeys))
}

// probeDurability measures the two logs a WAL-backed peer writes per
// update, flushed as the peer flushes them: one LogMany + Sync, and one
// LogEnqueue + Sync of the encoded payload.
func probeDurability(lm layerMetrics, dir string, facts []ast.Fact) error {
	wal, err := store.OpenWAL(filepath.Join(dir, "probe-wal"))
	if err != nil {
		return err
	}
	defer wal.Close()
	var walUS []float64
	for _, f := range facts {
		ts := []value.Tuple{f.Args}
		var werr error
		walUS = append(walUS, timeOnce(1e3, func() {
			if werr = wal.LogMany(false, f.Rel, f.Peer, ts); werr == nil {
				werr = wal.Sync()
			}
		}))
		if werr != nil {
			return werr
		}
	}
	lm.set("store.wal_log_us", median(walUS), len(walUS))

	oblog, err := store.OpenOutboxLog(filepath.Join(dir, "probe-outbox"))
	if err != nil {
		return err
	}
	defer oblog.Close()
	var obUS []float64
	for i, f := range facts {
		payload, err := protocol.EncodePayload(protocol.FactsMsg{Ops: []protocol.FactDelta{{Maint: true, Fact: f}}})
		if err != nil {
			return err
		}
		var werr error
		obUS = append(obUS, timeOnce(1e3, func() {
			if werr = oblog.LogEnqueue("jules", uint64(i+1), payload); werr == nil {
				werr = oblog.Sync()
			}
		}))
		if werr != nil {
			return werr
		}
	}
	lm.set("store.outboxlog_enqueue_us", median(obUS), len(obUS))
	return nil
}

// probeValue measures canonical key encoding and interning on the
// workload's tuples. Interning is timed over two passes, the first all
// misses and the second all hits.
func probeValue(lm layerMetrics, tuples []value.Tuple) {
	lm.set("value.key_encode_ns", perCall(len(tuples), func(i int) { _ = tuples[i].Key() }), len(tuples))
	in := value.NewInterner()
	n := 2 * len(tuples)
	lm.set("value.intern_tuple_ns", perCall(n, func(i int) { in.Tuple(tuples[i%len(tuples)]) }), n)
}

// probeProtocol measures the wire codec on DataMsg envelopes carrying 1 and
// 16 of the workload's facts.
func probeProtocol(lm layerMetrics, facts []ast.Fact) error {
	for _, n := range []int{1, 16} {
		if len(facts) < n {
			return fmt.Errorf("protocol probe: %d facts, need %d", len(facts), n)
		}
		msg := protocol.FactsMsg{}
		for _, f := range facts[:n] {
			msg.Ops = append(msg.Ops, protocol.FactDelta{Maint: true, Fact: f})
		}
		env := protocol.Envelope{From: "emilien", To: "jules", Seq: 7,
			Msg: protocol.DataMsg{Epoch: 1, Seq: 7, Msg: msg}}
		wire, err := protocol.Encode(env)
		if err != nil {
			return err
		}
		if _, err := protocol.DecodeEnvelope(wire); err != nil {
			return err
		}
		const reps = 200
		suffix := fmt.Sprintf(".%d", n)
		lm.set("protocol.encode_us_p50"+suffix, median(timeReps(reps, 1e3, func() { protocol.Encode(env) })), reps)
		lm.set("protocol.decode_us_p50"+suffix, median(timeReps(reps, 1e3, func() { protocol.DecodeEnvelope(wire) })), reps)
		lm.set("protocol.encode_allocs"+suffix, allocsPer(reps, func() { protocol.Encode(env) }), reps)
		lm.set("protocol.decode_allocs"+suffix, allocsPer(reps, func() { protocol.DecodeEnvelope(wire) }), reps)
		lm.set("protocol.bytes_per_fact"+suffix, float64(len(wire))/float64(n), n)
	}
	return nil
}

// awaitDrain drains ep until it has yielded n envelopes.
func awaitDrain(ctx context.Context, ep transport.Endpoint, n int) error {
	for got := 0; got < n; {
		got += len(ep.Drain())
		if got >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ep.Notify():
		case <-time.After(confirmTimeout):
			return fmt.Errorf("transport probe: %d of %d messages arrived", got, n)
		}
	}
	return nil
}

// streamRate sends n copies of msg from a to b and returns messages per
// second, timed until b has drained the last.
func streamRate(ctx context.Context, a, b transport.Endpoint, msg protocol.Payload, n int) (float64, error) {
	t0 := time.Now()
	errc := make(chan error, 1)
	go func() { errc <- awaitDrain(ctx, b, n) }()
	for i := 0; i < n; i++ {
		if err := a.Send(ctx, b.Name(), msg); err != nil {
			return 0, err
		}
	}
	if err := <-errc; err != nil {
		return 0, err
	}
	return float64(n) / time.Since(t0).Seconds(), nil
}

// probeTCP measures the TCP transport between two endpoints the benchmark
// owns, on loopback: ping-pong round trips and a one-way stream.
func probeTCP(ctx context.Context, lm layerMetrics, fact ast.Fact) error {
	a, err := transport.ListenTCP(ctx, "probe-a", "127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.ListenTCP(ctx, "probe-b", "127.0.0.1:0", map[string]string{"probe-a": a.Addr()})
	if err != nil {
		return err
	}
	defer b.Close()
	a.AddPeer("probe-b", b.Addr())
	msg := protocol.FactsMsg{Ops: []protocol.FactDelta{{Fact: fact}}}
	var rtt []float64
	for i := 0; i < 220; i++ {
		t0 := time.Now()
		if err := a.Send(ctx, "probe-b", msg); err != nil {
			return err
		}
		if err := awaitDrain(ctx, b, 1); err != nil {
			return err
		}
		if err := b.Send(ctx, "probe-a", msg); err != nil {
			return err
		}
		if err := awaitDrain(ctx, a, 1); err != nil {
			return err
		}
		if i >= 20 { // the first trips dial
			rtt = append(rtt, float64(time.Since(t0))/1e3)
		}
	}
	lm.set("transport.tcp_rtt_us_p50", median(rtt), len(rtt))
	rate, err := streamRate(ctx, a, b, msg, 2000)
	if err != nil {
		return err
	}
	lm.set("transport.tcp_msgs_per_s", rate, 2000)
	return nil
}

// probeInProcess measures the two in-process transports, mux and bus, with
// a one-way stream between two endpoints.
func probeInProcess(ctx context.Context, lm layerMetrics, fact ast.Fact) error {
	msg := protocol.FactsMsg{Ops: []protocol.FactDelta{{Fact: fact}}}
	const n = 100_000
	mux := transport.NewMux()
	defer mux.Close()
	rate, err := streamRate(ctx, mux.Endpoint("probe-a"), mux.Endpoint("probe-b"), msg, n)
	if err != nil {
		return err
	}
	lm.set("transport.mux_msgs_per_s", rate, n)
	bus := transport.NewBus()
	rate, err = streamRate(ctx, bus.Endpoint("probe-a"), bus.Endpoint("probe-b"), msg, n)
	if err != nil {
		return err
	}
	lm.set("transport.bus_msgs_per_s", rate, n)
	return nil
}

// probeRemoteView measures RemoteView.Diff on one destination's emission
// set at the workload's size: the steady state where every stage re-derives
// the whole set and one fact of it is new.
func probeRemoteView(lm layerMetrics, dst string, facts []ast.Fact) {
	ops := make([]engine.FactOp, len(facts))
	for i, f := range facts {
		ops[i] = engine.FactOp{Op: ast.Derive, Fact: f}
	}
	rv := engine.NewRemoteView()
	rv.Diff(map[string][]engine.FactOp{dst: ops[:len(ops)-1]})
	var us []float64
	for i := 0; i < 9; i++ {
		// Alternate between all facts and all but the last: each call then
		// finds exactly one fact changed.
		set := ops
		if i%2 == 1 {
			set = ops[:len(ops)-1]
		}
		us = append(us, timeOnce(1e3, func() { rv.Diff(map[string][]engine.FactOp{dst: set}) }))
	}
	lm.set("engine.remoteview_diff_us", median(us), len(us))
}
