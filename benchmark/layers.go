package main

import (
	"time"

	"repro/internal/peer"
)

// perLayer is the manifest of per-layer metric names, <module>.<metric>.
// Every traced run reports every one of them; a layer that is not on a
// workload's path reports zero, which is how a bypass shows it bypasses.
var perLayer = []metricSpec{
	{Name: "daemon.http_apply_us_p50", Unit: "us", Better: "lower"},

	{Name: "parser.parse_us", Unit: "us", Better: "lower"},
	{Name: "parser.parse_fact_us", Unit: "us", Better: "lower"},
	{Name: "analysis.check_us", Unit: "us", Better: "lower"},

	{Name: "engine.compile_us", Unit: "us", Better: "lower"},
	{Name: "engine.full_stage_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.fixpoint_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.insert_stage_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.delete_stage_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.iterations_per_stage", Unit: "count", Better: "lower"},
	{Name: "engine.derived_per_update", Unit: "count", Better: "lower"},
	{Name: "engine.retracted_per_update", Unit: "count", Better: "lower"},
	{Name: "engine.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.compile_fallbacks", Unit: "count", Better: "lower"},
	{Name: "engine.remoteview_diff_us", Unit: "us", Better: "lower"},

	{Name: "store.insert_many_us_per_kfact", Unit: "us", Better: "lower"},
	{Name: "store.probe_ns", Unit: "ns", Better: "lower"},
	{Name: "store.index_build_ms", Unit: "ms", Better: "lower"},
	{Name: "store.wal_log_us", Unit: "us", Better: "lower"},
	{Name: "store.wal_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "store.outboxlog_enqueue_us", Unit: "us", Better: "lower"},
	{Name: "store.outboxlog_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "store.merkle_add_ns", Unit: "ns", Better: "lower"},

	{Name: "value.intern_tuple_ns", Unit: "ns", Better: "lower"},
	{Name: "value.intern_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "value.intern_entries", Unit: "count", Better: "lower"},
	{Name: "value.key_encode_ns", Unit: "ns", Better: "lower"},

	{Name: "peer.apply_us_p50", Unit: "us", Better: "lower"},
	{Name: "peer.ingest_us_p50", Unit: "us", Better: "lower"},
	{Name: "peer.emit_us_p50", Unit: "us", Better: "lower"},
	{Name: "peer.stage_us_p50", Unit: "us", Better: "lower"},
	{Name: "peer.stages_per_update", Unit: "count", Better: "lower"},
	{Name: "peer.stages_skipped_share", Unit: "ratio", Better: "lower"},
	{Name: "peer.outbox_depth_max", Unit: "count", Better: "lower"},
	{Name: "peer.outbox_retransmits", Unit: "count", Better: "lower"},
	{Name: "peer.backpressure_waits", Unit: "count", Better: "lower"},
	{Name: "peer.subscription_drops", Unit: "count", Better: "lower"},
	{Name: "peer.resync_adverts", Unit: "count", Better: "lower"},
	{Name: "peer.rounds_per_quiescence", Unit: "count", Better: "lower"},
	{Name: "peer.quiesce_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "peer.sched_scans_per_round", Unit: "count", Better: "lower"},

	{Name: "protocol.encode_us_p50.1", Unit: "us", Better: "lower"},
	{Name: "protocol.encode_us_p50.16", Unit: "us", Better: "lower"},
	{Name: "protocol.decode_us_p50.1", Unit: "us", Better: "lower"},
	{Name: "protocol.decode_us_p50.16", Unit: "us", Better: "lower"},
	{Name: "protocol.encode_allocs.1", Unit: "count", Better: "lower"},
	{Name: "protocol.encode_allocs.16", Unit: "count", Better: "lower"},
	{Name: "protocol.decode_allocs.1", Unit: "count", Better: "lower"},
	{Name: "protocol.decode_allocs.16", Unit: "count", Better: "lower"},
	{Name: "protocol.bytes_per_fact.1", Unit: "B", Better: "lower"},
	{Name: "protocol.bytes_per_fact.16", Unit: "B", Better: "lower"},

	{Name: "transport.tcp_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.mux_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.bus_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.wire_frames_per_update", Unit: "count", Better: "lower"},
	{Name: "transport.wire_bytes_fwd_per_update", Unit: "B", Better: "lower"},
	{Name: "transport.wire_bytes_back_per_update", Unit: "B", Better: "lower"},
	{Name: "transport.wire_bytes_per_update", Unit: "B", Better: "lower"},

	{Name: "driver.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "driver.window_s", Unit: "s", Better: "higher"},
	{Name: "driver.samples", Unit: "count", Better: "higher"},
}

// windowCounters records the per-layer numbers that come from the measured
// window itself: counter deltas between its edges, the relay, the outbox
// sampler and the recorder.
func (lm layerMetrics) windowCounters(rec *recorder, ss []sample, updates int, window time.Duration,
	s1, s0 peer.Stats, e1, e0 engineCounters, wire wireCounts, smp *sampler) {
	u := float64(updates)
	stages, skipped := float64(s1.Stages-s0.Stages), float64(s1.StagesSkipped-s0.StagesSkipped)
	lm.set("peer.stages_per_update", stages/u, updates)
	if stages+skipped > 0 {
		lm.set("peer.stages_skipped_share", skipped/(stages+skipped), int(stages+skipped))
	}
	lm.set("peer.outbox_depth_max", float64(smp.maxDepth), 1)
	lm.set("peer.outbox_retransmits", float64(s1.OutboxRetransmits-s0.OutboxRetransmits), 1)
	lm.set("peer.backpressure_waits", float64(s1.BackpressureWaits-s0.BackpressureWaits), 1)
	lm.set("peer.subscription_drops", float64(s1.SubscriptionDrops-s0.SubscriptionDrops), 1)
	lm.set("peer.resync_adverts", float64(s1.ResyncAdverts-s0.ResyncAdverts), 1)
	if rec.quiesceCalls > 0 {
		lm.set("peer.rounds_per_quiescence", float64(rec.quiesceRounds)/float64(rec.quiesceCalls), rec.quiesceCalls)
	}
	if rec.quiesceRounds > 0 {
		lm.set("peer.sched_scans_per_round", float64(rec.schedScans)/float64(rec.quiesceRounds), rec.quiesceRounds)
	}

	hits, misses := float64(e1.planHits-e0.planHits), float64(e1.planMisses-e0.planMisses)
	if hits+misses > 0 {
		lm.set("engine.plan_cache_hit_ratio", hits/(hits+misses), int(hits+misses))
	}
	lm.set("engine.compile_fallbacks", float64(e1.fallbacks-e0.fallbacks), 1)

	if wire.fwd+wire.back > 0 {
		lm.set("transport.wire_frames_per_update", float64(wire.frames)/u, updates)
		lm.set("transport.wire_bytes_fwd_per_update", float64(wire.fwd)/u, updates)
		lm.set("transport.wire_bytes_back_per_update", float64(wire.back)/u, updates)
		lm.set("transport.wire_bytes_per_update", float64(wire.fwd+wire.back)/u, updates)
	}
	lm.set("store.wal_bytes_per_update", float64(smp.wal.grown)/u, updates)
	lm.set("store.outboxlog_bytes_per_update", float64(smp.ob.grown)/u, updates)

	// Tracing overhead: updates confirmed per second in the traced slices
	// against the untraced slices of the same window.
	var traced, plain float64
	for _, s := range ss {
		if s.traced {
			traced += float64(s.updates)
		} else {
			plain += float64(s.updates)
		}
	}
	if plain > 0 {
		lm.set("driver.trace_overhead_share", 1-traced/plain, len(ss))
	}
	lm.set("driver.window_s", window.Seconds(), 1)
	lm.set("driver.samples", float64(len(ss)), len(ss))

	lm.spanMedian(rec.spans, "daemon.http_apply", "daemon.http_apply_us_p50", 1e3)
	lm.spanMedian(rec.spans, "peer.apply", "peer.apply_us_p50", 1e3)
	lm.spanMedian(rec.spans, "peer.run_to_quiescence", "peer.quiesce_ms_p50", 1e6)
}

// spanMedian sets metric to the median duration of the spans called name,
// in units of div nanoseconds.
func (lm layerMetrics) spanMedian(r *spanRecorder, name, metric string, div float64) {
	var xs []float64
	for _, sp := range r.named(name) {
		xs = append(xs, float64(sp.EndNS-sp.StartNS)/div)
	}
	if len(xs) > 0 {
		lm.set(metric, median(xs), len(xs))
	}
}
