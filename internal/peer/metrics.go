package peer

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// Metric wiring. Every peer created with Config.Metrics labels its series
// with its own name in a shared registry, so a daemon hosting many peers
// exposes one coherent scrape. Two wiring styles:
//
//   - hot-path series (stage latency, fixpoint rounds, stage counts) are
//     cached children on peerMetrics, observed inline by the stage loop —
//     a few atomic ops per stage;
//   - everything that already exists as a counter elsewhere (the outbox's
//     atomic.Uint64 delivery counters, the peer Stats struct, the engine's
//     plan-cache counters) or is an instantaneous depth (outbox pending,
//     staged ops, live subscriptions) is registered as a scrape-time Func
//     collector, so exposing it costs nothing between scrapes and cannot
//     double-count.
//
// The exported metric names below are documented in docs/operations.md;
// the doc–code sync gate (TestOperationsDocMetricsCurrent) fails if the
// two drift.

// peerMetrics caches the metric children the stage loop touches inline.
type peerMetrics struct {
	stageSeconds   *metrics.Histogram
	fixpointRounds *metrics.Histogram
	stagesRan      *metrics.Counter
	stagesSkipped  *metrics.Counter
}

// fixpointBuckets: fixpoint iteration counts are small integers; a latency
// curve would waste all its resolution below 1.
var fixpointBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64}

// registerMetrics wires the peer into reg. Idempotent per (registry, peer
// name): re-registration (a restarted peer under the same name) replaces
// the Func collectors, so the new incarnation's counters win.
func (p *Peer) registerMetrics(reg *metrics.Registry) {
	name := p.name
	pm := &peerMetrics{}
	stages := reg.Counter("wdl_stages_total",
		"Computation stages, by result (ran vs skipped as a no-op).", "peer", "result")
	pm.stagesRan = stages.With(name, "ran")
	pm.stagesSkipped = stages.With(name, "skipped")
	pm.stageSeconds = reg.Histogram("wdl_stage_seconds",
		"Stage latency (ingest + fixpoint + emit) per stage that ran.", nil, "peer").With(name)
	pm.fixpointRounds = reg.Histogram("wdl_stage_fixpoint_rounds",
		"Fixpoint iterations per stage that ran.", fixpointBuckets, "peer").With(name)

	ob := p.outbox
	atomicFn := func(c *atomic.Uint64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	reg.Counter("wdl_outbox_enqueued_total",
		"Sequenced entries enqueued for remote destinations.", "peer").Func(atomicFn(&ob.enqueued), name)
	reg.Counter("wdl_outbox_acked_total",
		"Outbox entries acknowledged (and dropped) by their destination.", "peer").Func(atomicFn(&ob.delivered), name)
	reg.Counter("wdl_outbox_retransmits_total",
		"Retransmission cycles after an ack timeout.", "peer").Func(atomicFn(&ob.retransmits), name)
	reg.Counter("wdl_outbox_send_errors_total",
		"Failed transport send attempts (each retried).", "peer").Func(atomicFn(&ob.sendErrors), name)
	reg.Counter("wdl_outbox_resets_total",
		"Stream resets: anti-entropy repairs plus slow-peer sheds.", "peer").Func(atomicFn(&ob.resets), name)
	reg.Counter("wdl_outbox_sheds_total",
		"Slow-peer sheds: streams reset after the no-ack-progress window.", "peer").Func(atomicFn(&ob.sheds), name)
	reg.Counter("wdl_backpressure_waits_total",
		"Apply admissions that blocked waiting for queue space.", "peer").Func(atomicFn(&ob.bpWaits), name)
	reg.Counter("wdl_backpressure_rejections_total",
		"Apply admissions rejected with ErrBackpressure (fail-fast).", "peer").Func(atomicFn(&ob.bpRejects), name)
	reg.Counter("wdl_resync_adverts_total",
		"Periodic anti-entropy digest adverts enqueued in the sequenced stream.", "peer").Func(atomicFn(&ob.adverts), name)
	if w := p.wal; w != nil {
		reg.Counter("wdl_log_syncs_total",
			"Fsyncs of the durable log (wal.log, outbox.log): at most one per stage end.", "peer").Func(func() float64 {
			return float64(w.Syncs())
		}, name)
	}

	reg.Gauge("wdl_outbox_depth",
		"Unacknowledged outbox entries across all destinations.", "peer").Func(func() float64 {
		total, _ := ob.Pending()
		return float64(total)
	}, name)
	reg.Gauge("wdl_outbox_stalled",
		"Unacknowledged entries in queues whose last delivery attempt failed.", "peer").Func(func() float64 {
		_, stalled := ob.Pending()
		return float64(stalled)
	}, name)
	reg.Gauge("wdl_pending_ops",
		"Staged local updates awaiting the next stage.", "peer").Func(func() float64 {
		p.mu.Lock()
		n := len(p.pendingOps)
		p.mu.Unlock()
		return float64(n)
	}, name)
	reg.Gauge("wdl_subscriptions",
		"Live subscription streams.", "peer").Func(func() float64 {
		return float64(p.Subscribers())
	}, name)

	statFn := func(read func(*Stats) uint64) func() float64 {
		return func() float64 {
			p.mu.Lock()
			v := read(&p.stats)
			p.mu.Unlock()
			return float64(v)
		}
	}
	reg.Counter("wdl_updates_applied_total",
		"Extensional updates applied during ingestion.", "peer").Func(
		statFn(func(s *Stats) uint64 { return s.UpdatesApplied }), name)
	reg.Counter("wdl_facts_out_total",
		"Facts emitted to remote peers.", "peer").Func(
		statFn(func(s *Stats) uint64 { return s.FactsOut }), name)
	reg.Counter("wdl_resync_requests_total",
		"Anti-entropy repair requests sent (as a receiver).", "peer").Func(
		statFn(func(s *Stats) uint64 { return s.ResyncRequested }), name)
	reg.Counter("wdl_resync_ranged_repairs_total",
		"Ranged repair messages served (as a sender, including reset and shed runs).", "peer").Func(
		statFn(func(s *Stats) uint64 { return s.ResyncRangedRepairs }), name)
	reg.Counter("wdl_resync_ranged_repair_bytes_total",
		"Total encoded size of ranged repair messages served.", "peer").Func(
		statFn(func(s *Stats) uint64 { return s.ResyncRangedRepairBytes }), name)
	reg.Counter("wdl_resync_range_digest_bytes_total",
		"Total encoded size of range-digest replies served during bisection.", "peer").Func(
		statFn(func(s *Stats) uint64 { return s.ResyncRangeDigestBytes }), name)
	reg.Counter("wdl_resync_ranges_requested_total",
		"Hash ranges whose repair this peer requested after bisection.", "peer").Func(
		statFn(func(s *Stats) uint64 { return s.ResyncRangesRequested }), name)
	reg.Counter("wdl_subscription_drops_total",
		"Subscriptions closed for falling behind (ErrSlowSubscriber).", "peer").Func(
		statFn(func(s *Stats) uint64 { return s.SubscriptionDrops }), name)

	eng := p.eng
	reg.Counter("wdl_plan_cache_hits_total",
		"Join-planner lookups that reused a stage's cached plan.", "peer").Func(func() float64 {
		hits, _ := eng.PlanCacheStats()
		return float64(hits)
	}, name)
	reg.Counter("wdl_plan_cache_misses_total",
		"Join-planner lookups that computed a fresh plan.", "peer").Func(func() float64 {
		_, misses := eng.PlanCacheStats()
		return float64(misses)
	}, name)
	reg.Counter("wdl_rule_compiles_total",
		"Rule walks compiled into closure chains (per stage kind, delta position and plan order).", "peer").Func(func() float64 {
		compiles, _, _ := eng.CompiledStats()
		return float64(compiles)
	}, name)
	reg.Counter("wdl_compiled_hits_total",
		"Rule walks served from a chain compiled earlier, in this stage or an earlier one.", "peer").Func(func() float64 {
		_, hits, _ := eng.CompiledStats()
		return float64(hits)
	}, name)

	p.pm = pm
}
