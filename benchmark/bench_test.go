package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRelayCountsWhatPassesThrough writes framed bytes through a relay and
// checks that the sink got exactly those bytes and that the relay's byte
// and frame counts equal what was written.
func TestRelayCountsWhatPassesThrough(t *testing.T) {
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	got := make(chan []byte, 1)
	go func() {
		c, err := sink.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer c.Close()
		b, _ := io.ReadAll(c)
		got <- b
	}()

	r, err := newRelay()
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	c, err := net.Dial("tcp", r.addr())
	if err != nil {
		t.Fatal(err)
	}
	r.setTarget(sink.Addr().String()) // after the dial: the relay holds the connection until it has a target

	rng := rand.New(rand.NewSource(1))
	var sent bytes.Buffer
	const frames = 300
	for i := 0; i < frames; i++ {
		body := make([]byte, rng.Intn(5000)) // includes empty bodies
		rng.Read(body)
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
		sent.Write(hdr[:])
		sent.Write(body)
	}
	// Write in odd-sized pieces so frame headers straddle reads.
	for b := sent.Bytes(); len(b) > 0; {
		n := min(1+rng.Intn(3000), len(b))
		if _, err := c.Write(b[:n]); err != nil {
			t.Fatal(err)
		}
		b = b[n:]
	}
	c.Close()

	select {
	case b := <-got:
		if !bytes.Equal(b, sent.Bytes()) {
			t.Fatalf("sink received %d bytes, want the %d written", len(b), sent.Len())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sink never saw the stream end")
	}
	if up := r.up.Load(); up != uint64(sent.Len()) {
		t.Errorf("relay counted %d bytes, %d were written", up, sent.Len())
	}
	if n := r.frames.Load(); n != frames {
		t.Errorf("relay counted %d frames, %d were written", n, frames)
	}
	if down := r.down.Load(); down != 0 {
		t.Errorf("relay counted %d bytes flowing back, none were written", down)
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99); p != 10 {
		t.Errorf("p99 of 1..10 = %v, want 10", p)
	}
	if p := percentile(nil, 50); p != 0 {
		t.Errorf("percentile of nothing = %v, want 0", p)
	}

	// Ten slices of 100 samples at 1 ms; one slice holds a 500 ms stall. A
	// plain p99 would sit at the stall's edge; the sliced p99 does not move.
	start := time.Now()
	window := 10 * time.Second
	var ss []sample
	for i := 0; i < 1000; i++ {
		end := start.Add(time.Duration(i) * 10 * time.Millisecond).Add(5 * time.Millisecond)
		d := time.Millisecond
		if i >= 300 && i < 320 {
			d = 500 * time.Millisecond
		}
		ss = append(ss, sample{start: end.Add(-d), end: end, updates: 1})
	}
	if got := slicedP99(ss, start, window, 10); math.Abs(got-1) > 1e-9 {
		t.Errorf("slicedP99 = %v ms, want 1 (a stall in one slice must not move it)", got)
	}

	for n, want := range map[int]float64{5: 0, 39: 0, 40: 75, 100: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}

	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]: (8.25-2.75)/5.5.
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := newSpanRecorder()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := r.add("update", at(0), at(10), -1, 1)
	r.add("peer.apply", at(0), at(2), root, 1)
	r.add("peer.run_to_quiescence", at(2), at(9), root, 1)
	self := r.selfTimes()
	if self["update"] != time.Millisecond || self["peer.apply"] != 2*time.Millisecond ||
		self["peer.run_to_quiescence"] != 7*time.Millisecond {
		t.Errorf("self times = %v", self)
	}
	var buf bytes.Buffer
	if err := r.writeTo(&buf); err != nil || strings.Count(buf.String(), "\n") != 3 {
		t.Errorf("writeTo: %v, %q", err, buf.String())
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b := streamHash(7, smokeScale, 500), streamHash(7, smokeScale, 500)
	if a != b {
		t.Errorf("the same seed generated different inputs: %x and %x", a, b)
	}
	if c := streamHash(8, smokeScale, 500); c == a {
		t.Errorf("seeds 7 and 8 generated the same inputs (%x)", a)
	}
}

// TestSmoke runs every workload once, traced, at smoke scale. A traced run
// measures the same window as an untraced one, so one run per workload
// covers the end-to-end names, the reference check, the per-layer names on
// the workload's path and the zeros off it.
func TestSmoke(t *testing.T) {
	tmp := t.TempDir()
	onWire := map[string]bool{"wepic_interactive": true, "wepic_saturate": true}
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), w, 1, smokeScale, true, tmp)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			if fs := res.Metrics["failed_share"]; fs.Value != 0 || fs.Samples == 0 {
				t.Errorf("failed_share = %+v, want 0 over some operations", fs)
			}
			for _, s := range gated {
				if m, ok := res.Metrics[s.Name]; !ok || m.Value <= 0 {
					t.Errorf("%s = %+v, want a positive value", s.Name, m)
				}
			}
			if _, ok := res.Metrics["wire_bytes_per_update"]; ok != onWire[w.name] {
				t.Errorf("wire_bytes_per_update reported = %v, want %v", ok, onWire[w.name])
			}
			if _, ok := res.Metrics["job_p50_ms"]; ok != (w.name == "bulk_load") {
				t.Errorf("job_p50_ms reported = %v", ok)
			}
			line := res.contractLine()
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("traced result line has %d metrics, the manifest %d", len(line.Metrics), len(perLayer))
			}
			for _, s := range perLayer {
				v := res.PerLayer[s.Name].Value
				layer, _, _ := strings.Cut(s.Name, ".")
				wireOnly := layer == "protocol" || layer == "daemon" || strings.HasPrefix(s.Name, "transport.tcp") ||
					strings.HasPrefix(s.Name, "transport.wire") || strings.HasPrefix(s.Name, "store.wal") ||
					strings.HasPrefix(s.Name, "store.outboxlog") || s.Name == "parser.parse_fact_us"
				if wireOnly && (v > 0) != onWire[w.name] {
					t.Errorf("%s = %v on %s: the delivery layers must show on the wepic workloads and only there", s.Name, v, w.name)
				}
			}
			for _, name := range []string{"parser.parse_us", "analysis.check_us", "engine.compile_us", "engine.full_stage_ms",
				"engine.fixpoint_us_p50", "peer.stage_us_p50", "peer.apply_us_p50", "peer.stages_per_update",
				"store.insert_many_us_per_kfact", "store.probe_ns", "value.key_encode_ns", "driver.samples"} {
				if w.name == "swarm" && name == "engine.full_stage_ms" {
					continue // the swarm's build is 4 000 small stages under RunToQuiescence; no report is in hand
				}
				if res.PerLayer[name].Value <= 0 {
					t.Errorf("%s = %v, want a positive value", name, res.PerLayer[name].Value)
				}
			}
			if len(res.SelfTimeMS) == 0 {
				t.Error("no span self times")
			}
		})
	}
}

// TestManifestMatchesRoot pins BENCHMARK.json at the repository root to the
// tables this package reports from.
func TestManifestMatchesRoot(t *testing.T) {
	root, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(root, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -manifest`; regenerate it")
	}
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{gated, perLayer} {
		for _, s := range list {
			if seen[s.Name] {
				t.Errorf("metric name %s is used twice", s.Name)
			}
			seen[s.Name] = true
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(path string, latency []float64, perS []float64) {
		for i := range latency {
			r := &run{Seed: int64(i), Workloads: []*workloadResult{{Workload: "view_maint", Metrics: map[string]metric{
				"update_latency_p50_ms": {Value: latency[i], Unit: "ms"},
				"updates_per_s":         {Value: perS[i], Unit: "1/s"},
			}}}}
			if err := appendLedger(path, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	mk(a, []float64{1.00, 1.01, 0.99, 1.00}, []float64{100, 140, 60, 100})
	mk(b, []float64{1.30, 1.31, 1.29, 1.30}, []float64{101, 139, 61, 100})
	var out bytes.Buffer
	regressed, err := compareLedgers(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 30 % slower median was not reported as regressed")
	}
	for _, want := range []string{"update_latency_p50_ms", "regressed", "updates_per_s", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
}
