package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/peer"
)

// scale fixes every size of every workload. fullScale is what the ledger
// is measured at; smokeScale is the same shapes shrunk for `go test`.
type scale struct {
	window time.Duration // measured window
	warmup time.Duration // unmeasured run before it
	setups int           // set-ups per run; setup_s is their median

	// wepic_interactive / wepic_saturate
	pictures   int // preloaded pictures; a tenth are rated
	blobBytes  int // picture payload
	satClients int // saturate: concurrent clients
	satWindow  int // saturate: unconfirmed batches per client
	satBatch   int // saturate: facts per batch

	// view_maint
	vmData, vmGroups     int
	vmChains, vmChainLen int

	// bulk_load
	bulkRows, bulkSelect int // rows per big join relation, selector rows
	bulkTrees, bulkTreeN int // forest: trees × edges per tree
	bulkBatches          int

	// swarm
	swPeers, swFollows, swSeedPosts, swPostBytes int
	swRoundPosts, swRoundDeletes                 int
}

// The saturate window is 6 batches per client, not the 32 first planned: a
// subscription is dropped once 256 undelivered deltas queue on it
// (peer.SubscribeBuffer), and confirmation is by delta, so at most
// 2 clients × 6 batches × 16 facts = 192 facts may be in flight.
var fullScale = scale{
	window: 10 * time.Second, warmup: time.Second, setups: 3,
	pictures: 200, blobBytes: 1024,
	satClients: 2, satWindow: 6, satBatch: 16,
	vmData: 100_000, vmGroups: 100, vmChains: 1000, vmChainLen: 16,
	bulkRows: 20_000, bulkSelect: 4, bulkTrees: 64, bulkTreeN: 64, bulkBatches: 50,
	swPeers: 4000, swFollows: 4, swSeedPosts: 16, swPostBytes: 64,
	swRoundPosts: 64, swRoundDeletes: 16,
}

var smokeScale = scale{
	window: time.Second, warmup: 100 * time.Millisecond, setups: 1,
	pictures: 50, blobBytes: 256,
	satClients: 2, satWindow: 4, satBatch: 8,
	vmData: 2000, vmGroups: 20, vmChains: 50, vmChainLen: 8,
	bulkRows: 500, bulkSelect: 4, bulkTrees: 8, bulkTreeN: 16, bulkBatches: 5,
	swPeers: 100, swFollows: 3, swSeedPosts: 4, swPostBytes: 32,
	swRoundPosts: 8, swRoundDeletes: 2,
}

// confirmTimeout is how long an update may take to show at the observer
// before it counts as failed.
const confirmTimeout = 5 * time.Second

// windowSlices is how many equal slices the window is cut into for the
// sliced p99 and for alternating traced and untraced stretches.
const windowSlices = 10

// workload is one named entry of the ledger.
type workload struct {
	name string
	why  string
	// update names what one "update" is on this workload: the unit of
	// updates_per_s, allocs_per_update and cpu_us_per_update.
	update string
	setup  func(ctx context.Context, seed int64, sc scale, tmp string) (instance, error)
}

// instance is a built, converged, warmed deployment of one workload.
type instance interface {
	// run drives the closed loop until the deadline, then waits for what is
	// in flight. It may be called more than once; state carries over.
	run(ctx context.Context, until time.Time, rec *recorder)
	// peers lists the deployment's long-lived peers, for the outbox sampler.
	peers() []*peer.Peer
	// counters sums the lifetime Stats and engine counters of every peer
	// the deployment has had; the window's share is a difference of two.
	counters() (peer.Stats, engineCounters)
	// wire reports the relay counters; zero for deployments with no relay.
	wire() wireCounts
	// logDirs lists the peers' WAL directories; nil for volatile deployments.
	logDirs() []string
	// verify compares the observed relations with a reference built from
	// the final base facts; it returns how many relations it compared and
	// how many differed.
	verify(ctx context.Context) (checked, mismatched int, err error)
	// probe replays the workload's inputs through single layers and records
	// the per-layer metrics of the layers on this workload's path.
	probe(ctx context.Context, lm layerMetrics) error
	close()
}

// offWire is embedded by deployments with no relay and no WAL.
type offWire struct{}

func (offWire) wire() wireCounts  { return wireCounts{} }
func (offWire) logDirs() []string { return nil }

// wireCounts is what the relays between the two daemons have forwarded.
type wireCounts struct {
	fwd, back uint64 // bytes author→viewer, viewer→author
	frames    uint64
}

func (a wireCounts) sub(b wireCounts) wireCounts {
	return wireCounts{a.fwd - b.fwd, a.back - b.back, a.frames - b.frames}
}

// recorder collects the outcome of every operation of one run call.
type recorder struct {
	start  time.Time
	window time.Duration
	spans  *spanRecorder // nil when the run is untraced

	mu        sync.Mutex
	samples   []sample
	attempted int
	failed    int
	updateSeq int64

	// counters the instance adds to while it runs (traced stretches only)
	quiesceRounds, quiesceCalls int
	schedScans                  uint64
}

func newRecorder(start time.Time, window time.Duration, spans *spanRecorder) *recorder {
	return &recorder{start: start, window: window, spans: spans}
}

// tracer returns the span recorder for an operation starting now, or nil
// when it is not traced. A traced run alternates: odd slices are traced,
// even ones are not, so one run yields both throughputs and their ratio is
// the tracing overhead.
func (r *recorder) tracer(now time.Time) *spanRecorder {
	if r.spans == nil || r.window <= 0 {
		return nil
	}
	if i := int(now.Sub(r.start) * windowSlices / r.window); i%2 == 1 {
		return r.spans
	}
	return nil
}

func (r *recorder) nextUpdate() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.updateSeq++
	return r.updateSeq
}

func (r *recorder) done(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.attempted++
	r.mu.Unlock()
}

func (r *recorder) fail(err error) {
	r.mu.Lock()
	r.attempted++
	r.failed++
	first := r.failed == 1
	r.mu.Unlock()
	if first {
		fmt.Fprintf(os.Stderr, "benchmark: operation failed: %v\n", err)
	}
}

func (r *recorder) quiesced(rounds int) {
	r.mu.Lock()
	r.quiesceRounds += rounds
	r.quiesceCalls++
	r.mu.Unlock()
}

func (r *recorder) scanned(n uint64) {
	r.mu.Lock()
	r.schedScans += n
	r.mu.Unlock()
}

// confirmed counts the updates of every completed operation, inside the
// window or after it.
func (r *recorder) confirmed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.samples {
		n += s.updates
	}
	return n
}

// inWindow returns the samples that completed inside the window.
func (r *recorder) inWindow() []sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	end := r.start.Add(r.window)
	var out []sample
	for _, s := range r.samples {
		if !s.end.Before(r.start) && s.end.Before(end) {
			out = append(out, s)
		}
	}
	return out
}

// resources is a snapshot of what the process has used so far.
type resources struct {
	mallocs uint64
	cpu     time.Duration // user + system
}

func readResources() resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return resources{mallocs: ms.Mallocs, cpu: cpu}
}

// settledHeapMiB forces two collections (finalizers, then what they free)
// and returns the live heap.
func settledHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// engineCounters are the plan-cache and compiled-execution counters.
type engineCounters struct{ planHits, planMisses, fallbacks uint64 }

// peerSet is a deployment's peers.
type peerSet []*peer.Peer

// counters adds up the peers' lifetime counters, as far as the per-layer
// metrics use them.
func (ps peerSet) counters() (peer.Stats, engineCounters) {
	var t peer.Stats
	var e engineCounters
	for _, p := range ps {
		addCounters(&t, &e, p)
	}
	return t, e
}

func addCounters(t *peer.Stats, e *engineCounters, p *peer.Peer) {
	s := p.Stats()
	t.Stages += s.Stages
	t.StagesSkipped += s.StagesSkipped
	t.OutboxRetransmits += s.OutboxRetransmits
	t.BackpressureWaits += s.BackpressureWaits
	t.SubscriptionDrops += s.SubscriptionDrops
	t.ResyncAdverts += s.ResyncAdverts
	h, m := p.Engine().PlanCacheStats()
	_, _, fb := p.Engine().CompiledStats()
	e.planHits += h
	e.planMisses += m
	e.fallbacks += fb
}

// runWorkload sets the workload up (sc.setups times, keeping the last),
// warms it, measures one window, verifies the outcome against the
// reference and — on a traced run — probes the layers.
func runWorkload(ctx context.Context, w workload, seed int64, sc scale, traced bool, tmpRoot string) (*workloadResult, error) {
	res := &workloadResult{Workload: w.name, UpdateUnit: w.update, Traced: traced,
		Metrics: map[string]metric{}}

	var inst instance
	var setupS []float64
	for i := 0; i < sc.setups; i++ {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		tmp, err := os.MkdirTemp(tmpRoot, w.name+"-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		inst, err = w.setup(ctx, seed, sc, tmp)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()
	res.put("setup_s", metric{Value: median(setupS), Unit: "s", Samples: len(setupS)})

	warm := newRecorder(time.Now(), 0, nil)
	inst.run(ctx, time.Now().Add(sc.warmup), warm)

	var spans *spanRecorder
	if traced {
		spans = newSpanRecorder()
	}
	stats0, eng0 := inst.counters()
	wire0 := inst.wire()
	var smp *sampler
	if traced {
		smp = startSampler(inst.peers(), inst.logDirs())
	}
	res0 := readResources()
	start := time.Now()
	rec := newRecorder(start, sc.window, spans)
	inst.run(ctx, start.Add(sc.window), rec)
	res1 := readResources()
	heap := settledHeapMiB()
	smp.stop()
	stats1, eng1 := inst.counters()
	wire1 := inst.wire()

	checked, mismatched, err := inst.verify(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", w.name, err)
	}
	res.Attempted = warm.attempted + rec.attempted + checked
	res.Failed = warm.failed + rec.failed + mismatched
	res.Correct = res.Failed == 0

	ss := rec.inWindow()
	if len(ss) == 0 {
		return nil, fmt.Errorf("%s: no operation completed inside the window", w.name)
	}
	// Throughput is counted up to the last completion inside the window,
	// not to the window's end: the tail in which the next operation was
	// still running would otherwise quantise a slow loop (six jobs a
	// second) to whole operations.
	updates, last := 0, start
	lat := make([]float64, len(ss))
	for i, s := range ss {
		updates += s.updates
		lat[i] = s.ms()
		if s.end.After(last) {
			last = s.end
		}
	}
	n := len(ss)
	winS := last.Sub(start).Seconds()
	wire := wire1.sub(wire0)
	res.Updates = updates
	tail := tailPercentile(n)
	p50 := metric{Value: median(lat), Unit: "ms", Samples: n}
	if tail > 0 {
		p50.Tail, p50.TailP = percentile(lat, tail), tail
	}
	res.put("update_latency_p50_ms", p50)
	res.put("update_latency_p99_ms", metric{Value: slicedP99(ss, start, sc.window, windowSlices), Unit: "ms", Samples: n})
	res.put("updates_per_s", metric{Value: float64(updates) / winS, Unit: "1/s", Samples: updates})
	// The two resource readings bracket the whole run call, the operations
	// that were in the air at the window's end included, so they are divided
	// by everything that call confirmed, not by the window's share of it.
	all := rec.confirmed()
	res.put("allocs_per_update", metric{Value: float64(res1.mallocs-res0.mallocs) / float64(all), Unit: "count", Samples: all})
	res.put("cpu_us_per_update", metric{Value: float64(res1.cpu-res0.cpu) / float64(time.Microsecond) / float64(all), Unit: "us", Samples: all})
	res.put("heap_mb", metric{Value: heap, Unit: "MiB", Samples: 1})
	res.put("failed_share", metric{Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio", Samples: res.Attempted})
	if w.name == "bulk_load" {
		res.put("job_p50_ms", p50)
	}
	if wire.fwd+wire.back > 0 {
		res.put("wire_bytes_per_update", metric{Value: float64(wire.fwd+wire.back) / float64(updates), Unit: "B", Samples: updates})
	}
	if !traced {
		return res, nil
	}

	lm := layerMetrics{}
	lm.windowCounters(rec, ss, updates, sc.window, stats1, stats0, eng1, eng0, wire, smp)
	if err := inst.probe(ctx, lm); err != nil {
		return nil, fmt.Errorf("%s: probe: %w", w.name, err)
	}
	res.PerLayer = lm.complete()
	res.SelfTimeMS = map[string]float64{}
	for name, d := range spans.selfTimes() {
		res.SelfTimeMS[name] = float64(d) / float64(time.Millisecond)
	}
	res.spans = spans
	return res, nil
}

// sampler runs beside a traced window. Every 2 ms it polls OutboxPending on
// a few peers, keeping the deepest total, and the sizes of the peers' log
// files, adding up their growth: the outbox log is compacted every few
// thousand records, so its size at the window's edges says nothing, while
// growth between two close samples is what was appended.
type sampler struct {
	stopc chan struct{}
	done  chan struct{}

	maxDepth int
	wal, ob  logGrowth
}

// logGrowth sums the growth of a set of files that may be truncated.
type logGrowth struct {
	last  map[string]int64
	grown int64
}

func (g *logGrowth) sample(paths []string) {
	for _, path := range paths {
		st, err := os.Stat(path)
		if err != nil {
			continue // mid-rename during a compaction; the next tick sees it
		}
		if last, ok := g.last[path]; ok && st.Size() > last {
			g.grown += st.Size() - last
		}
		g.last[path] = st.Size()
	}
}

// samplerPeers bounds how many peers the sampler polls: polling takes each
// peer's outbox lock, and a 4 000-peer swarm cannot be walked in 2 ms.
const samplerPeers = 8

func startSampler(ps []*peer.Peer, logDirs []string) *sampler {
	if len(ps) > samplerPeers {
		ps = ps[:samplerPeers]
	}
	var wals, obs []string
	for _, dir := range logDirs {
		wals = append(wals, filepath.Join(dir, "wal.log"))
		obs = append(obs, filepath.Join(dir, "outbox.log"))
	}
	s := &sampler{stopc: make(chan struct{}), done: make(chan struct{}),
		wal: logGrowth{last: map[string]int64{}}, ob: logGrowth{last: map[string]int64{}}}
	s.wal.sample(wals)
	s.ob.sample(obs)
	go func() {
		defer close(s.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				s.wal.sample(wals)
				s.ob.sample(obs)
				return
			case <-tick.C:
			}
			total := 0
			for _, p := range ps {
				n, _ := p.OutboxPending()
				total += n
			}
			s.maxDepth = max(s.maxDepth, total)
			s.wal.sample(wals)
			s.ob.sample(obs)
		}
	}()
	return s
}

// stop ends the sampler; its fields may be read afterwards. A nil sampler
// (untraced run) stays nil.
func (s *sampler) stop() {
	if s != nil {
		close(s.stopc)
		<-s.done
	}
}

// workloads is the ledger's fixed set, in the order they are run.
func workloads() []workload {
	return []workload{
		{name: "wepic_interactive", update: "fact", setup: setupWepicInteractive,
			why: "one update at a time across two daemons over TCP with WAL and outbox log: per-message costs (HTTP, fsyncs, gob encoder set-up, frames and acks, stage wake-ups) dominate"},
		{name: "wepic_saturate", update: "fact", setup: setupWepicSaturate,
			why: "same deployment, 2 clients keeping 6 batches of 16 facts unconfirmed each: batching amortises per-message cost, so per-fact and per-stage cost and flow control dominate"},
		{name: "view_maint", update: "fact", setup: setupViewMaint,
			why: "one peer, no transport: single-fact inserts and deletes against 236k derived rows, so the engine's incremental paths and store index probes do all the work"},
		{name: "bulk_load", update: "job", setup: setupBulkLoad,
			why: "cold batch jobs: parse, check, compile, load 64k facts, full fixpoint, query; the engine's from-scratch side and store index builds, the opposite use to view_maint"},
		{name: "swarm", update: "fact", setup: setupSwarm,
			why: "4000 small peers on one mux with one interner: per-peer memory (GC), interning, per-stage emission diffs and scheduling dominate; no gob, TCP or WAL"},
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}
