package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	// Tail is the value at percentile TailP of the same samples: the
	// highest percentile with at least ten samples beyond it.
	Tail  float64 `json:"tail,omitempty"`
	TailP float64 `json:"tail_percentile,omitempty"`
}

// workloadResult is one workload's outcome in one run.
type workloadResult struct {
	Workload   string            `json:"workload"`
	UpdateUnit string            `json:"update_unit"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Updates    int               `json:"updates"`
	Metrics    map[string]metric `json:"metrics"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	// SelfTimeMS is, per span name, total span time minus the part covered
	// by child spans, over the traced stretches of the window.
	SelfTimeMS map[string]float64 `json:"self_time_ms,omitempty"`

	spans *spanRecorder
}

func (r *workloadResult) put(name string, m metric) { r.Metrics[name] = m }

// run is one invocation of the benchmark: the ledger's unit.
type run struct {
	Commit     string            `json:"commit"`
	Seed       int64             `json:"seed"`
	Nproc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	WindowS    float64           `json:"window_s"`
	Workloads  []*workloadResult `json:"workloads"`
}

// ledgerFile is what -out appends to and -compare reads: the runs of one
// commit, one per invocation.
type ledgerFile struct {
	Runs []*run `json:"runs"`
}

func readLedger(path string) (*ledgerFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lf ledgerFile
	if err := json.Unmarshal(data, &lf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &lf, nil
}

// appendLedger adds r to the runs in path, creating the file if needed.
func appendLedger(path string, r *run) error {
	lf, err := readLedger(path)
	if os.IsNotExist(err) {
		lf, err = &ledgerFile{}, nil
	}
	if err != nil {
		return err
	}
	lf.Runs = append(lf.Runs, r)
	data, err := json.MarshalIndent(lf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// metricSpec is one row of BENCHMARK.json's metric lists.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// gated are the end-to-end metrics every workload reports and
// BENCHMARK.json bounds. wire_bytes_per_update (zero off the wire),
// job_p50_ms (bulk_load's update_latency_p50_ms under its own name) and
// failed_share (zero on a healthy run; carried by the result line's
// attempted/failed) are printed with them but cannot be gated there: the
// contract wants every gated metric on every workload and never zero.
var gated = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"update_latency_p50_ms", "ms", "lower", 0.25},
	{"update_latency_p99_ms", "ms", "lower", 0.25},
	{"updates_per_s", "1/s", "higher", 0.25},
	{"allocs_per_update", "count", "lower", 0.15},
	{"cpu_us_per_update", "us", "lower", 0.25},
	{"heap_mb", "MiB", "lower", 0.25},
}

// layerMetrics collects a traced run's per-layer numbers by name.
type layerMetrics map[string]metric

func (lm layerMetrics) set(name string, value float64, samples int) {
	for _, s := range perLayer {
		if s.Name == name {
			lm[name] = metric{Value: value, Unit: s.Unit, Samples: samples}
			return
		}
	}
	panic("benchmark: per-layer metric " + name + " is not in the manifest")
}

// complete fills every manifest name the workload's path did not touch
// with zero, so each traced run reports the full list.
func (lm layerMetrics) complete() map[string]metric {
	for _, s := range perLayer {
		if _, ok := lm[s.Name]; !ok {
			lm[s.Name] = metric{Unit: s.Unit}
		}
	}
	return lm
}

// contractLine is the last line of a single-workload run's output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *workloadResult) contractLine() contractLine {
	line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]contractMetric{}}
	if r.Traced {
		for _, s := range perLayer {
			m := r.PerLayer[s.Name]
			line.Metrics[s.Name] = contractMetric{m.Value, s.Unit}
		}
		return line
	}
	for _, s := range gated {
		m := r.Metrics[s.Name]
		line.Metrics[s.Name] = contractMetric{m.Value, s.Unit}
	}
	return line
}

// print writes the workload's metrics by name, with unit and sample count.
func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s (traced=%v) — one update = one %s; %d updates, %d/%d operations failed\n",
		r.Workload, r.Traced, r.UpdateUnit, r.Updates, r.Failed, r.Attempted)
	printMetrics(w, r.Metrics)
	if r.Traced {
		printMetrics(w, r.PerLayer)
		var names []string
		var total float64
		for n, ms := range r.SelfTimeMS {
			names = append(names, n)
			total += ms
		}
		sort.Slice(names, func(i, j int) bool { return r.SelfTimeMS[names[i]] > r.SelfTimeMS[names[j]] })
		for _, n := range names {
			fmt.Fprintf(w, "  self-time %-28s %10.1f ms  %5.1f%%\n", n, r.SelfTimeMS[n], 100*r.SelfTimeMS[n]/total)
		}
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		line := fmt.Sprintf("  %-36s %14.4f %-6s n=%d", n, m.Value, m.Unit, m.Samples)
		if m.TailP > 0 {
			line += fmt.Sprintf("  p%s=%.4f", strings.TrimSuffix(fmt.Sprintf("%.1f", m.TailP), ".0"), m.Tail)
		}
		fmt.Fprintln(w, line)
	}
}
