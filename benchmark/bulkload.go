package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/peer"
	"repro/internal/value"
)

// bulkInst repeats one cold batch job: program text and input facts in, a
// complete verified result out, on a peer built for the job and discarded
// after it. Nothing carries over from one job to the next.
type bulkInst struct {
	offWire
	job  *bulkJob
	want map[string]relSummary // out and tc, from the reference
	last *peer.Peer            // the last job's peer, kept for verify and probes

	// counters of the peers of finished jobs
	doneStats  peer.Stats
	doneEngine engineCounters
}

type relSummary struct {
	rows int
	fp   uint64
}

var bulkViews = []string{"out", "tc"}

func setupBulkLoad(ctx context.Context, seed int64, sc scale, _ string) (instance, error) {
	b := &bulkInst{job: newBulkJob(seed, sc), want: map[string]relSummary{}}
	// Every job has the same input, so one reference serves them all.
	var facts []ast.Fact
	for _, batch := range b.job.batches {
		facts = append(facts, batch...)
	}
	ref, err := newReference(ctx, []peerProgram{{"p", b.job.program}}, facts)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	for _, rel := range bulkViews {
		r := ref.net.Peer("p").Store().Get(rel, "p")
		b.want[rel] = relSummary{r.Len(), r.Fingerprint()}
	}
	warm := newRecorder(time.Now(), 0, nil)
	b.runJob(ctx, warm)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up job failed")
	}
	return b, nil
}

func (b *bulkInst) run(ctx context.Context, until time.Time, rec *recorder) {
	for ctx.Err() == nil && time.Now().Before(until) {
		b.runJob(ctx, rec)
	}
}

// runJob is the whole job, timed from program text to checked result.
func (b *bulkInst) runJob(ctx context.Context, rec *recorder) {
	t0 := time.Now()
	tr := rec.tracer(t0)
	fail := func(err error) { rec.fail(fmt.Errorf("bulk job: %w", err)) }

	prog, err := parser.Parse(b.job.program)
	if err != nil {
		fail(err)
		return
	}
	tParsed := time.Now()
	if diags := analysis.Check(prog, analysis.Options{DefaultPeer: "p"}); analysis.HasErrors(diags) {
		fail(fmt.Errorf("program fails analysis: %v", diags))
		return
	}
	tChecked := time.Now()
	net := peer.NewSequentialNetwork()
	p, err := net.NewPeer(peer.Config{Name: "p", ResyncInterval: -1})
	if err != nil {
		fail(err)
		return
	}
	b.retire()
	b.last = p
	if err := p.LoadProgram(prog); err != nil {
		fail(err)
		return
	}
	tLoaded := time.Now()
	for _, facts := range b.job.batches {
		if err := p.Apply(ctx, batchOf(facts)); err != nil {
			fail(err)
			return
		}
	}
	tApplied := time.Now()
	rounds, _, err := net.RunToQuiescence(ctx, 0)
	if err != nil {
		fail(err)
		return
	}
	tRan := time.Now()
	for _, rel := range bulkViews {
		rows := p.Query(rel)
		if got := (relSummary{len(rows), p.Store().Get(rel, "p").Fingerprint()}); got != b.want[rel] {
			fail(fmt.Errorf("%s@p is %+v, reference %+v", rel, got, b.want[rel]))
			return
		}
	}
	t1 := time.Now()
	rec.done(sample{start: t0, end: t1, updates: 1, traced: tr != nil})
	if tr != nil {
		rec.quiesced(rounds)
		id := rec.nextUpdate()
		root := tr.add("job", t0, t1, -1, id)
		tr.add("parser.parse", t0, tParsed, root, id)
		tr.add("analysis.check", tParsed, tChecked, root, id)
		tr.add("peer.load_program", tChecked, tLoaded, root, id)
		tr.add("peer.apply", tLoaded, tApplied, root, id)
		tr.add("peer.run_to_quiescence", tApplied, tRan, root, id)
		tr.add("driver.query_verify", tRan, t1, root, id)
	}
}

// retire closes the previous job's peer, keeping its counters.
func (b *bulkInst) retire() {
	if b.last != nil {
		addCounters(&b.doneStats, &b.doneEngine, b.last)
		b.last.Close()
		b.last = nil
	}
}

func (b *bulkInst) peers() []*peer.Peer { return nil } // no peer outlives a job

func (b *bulkInst) counters() (peer.Stats, engineCounters) {
	t, e := b.doneStats, b.doneEngine
	if b.last != nil {
		addCounters(&t, &e, b.last)
	}
	return t, e
}

// verify re-checks the last job's peer; every job already checked its own
// result against the same reference.
func (b *bulkInst) verify(context.Context) (int, int, error) {
	bad := 0
	for _, rel := range bulkViews {
		r := b.last.Store().Get(rel, "p")
		if (relSummary{r.Len(), r.Fingerprint()}) != b.want[rel] {
			bad++
		}
	}
	return len(bulkViews), bad, nil
}

func (b *bulkInst) close() { b.retire() }

// probe runs one more job, stepped by the benchmark so that the single
// full stage's report is in hand.
func (b *bulkInst) probe(ctx context.Context, lm layerMetrics) error {
	if err := probePrograms(lm, []peerProgram{{"p", b.job.program}}, 9); err != nil {
		return err
	}
	var tuples []value.Tuple
	for _, batch := range b.job.batches {
		for _, f := range batch {
			if f.Rel == "src" && len(tuples) < 20_000 {
				tuples = append(tuples, f.Args)
			}
		}
	}
	probeStore(lm, tuples)
	probeValue(lm, tuples)

	net := peer.NewSequentialNetwork()
	p, err := net.NewPeer(peer.Config{Name: "p", ResyncInterval: -1})
	if err != nil {
		return err
	}
	defer p.Close()
	if err := p.LoadSource(b.job.program); err != nil {
		return err
	}
	last := len(b.job.batches) - 1
	for _, facts := range b.job.batches[:last] {
		if err := p.Apply(ctx, batchOf(facts)); err != nil {
			return err
		}
	}
	ran, err := probeStages(ctx, lm, net, []probeOp{{at: p, batch: batchOf(b.job.batches[last])}}, false)
	if err != nil {
		return err
	}
	lm.set("engine.full_stage_ms", fullStageMS(ran), len(ran))
	return nil
}
