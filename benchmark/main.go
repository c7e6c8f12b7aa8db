// Command benchmark is the repository's performance ledger: five named
// workloads, each measured end to end from outside the program and checked
// against a naive-recompute reference, plus a traced mode that adds
// per-layer probes. See README.md in this directory.
//
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//	go run ./benchmark -seed N [-trace 1] [-out FILE]     all five workloads
//	go run ./benchmark -compare A.json B.json
//	go run ./benchmark -manifest                          print BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// tmpRoot is where WAL directories live for the length of a run: on the
// sandbox disk, inside the checkout, removed on exit.
const tmpRoot = ".bench_tmp"

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and end with the result line; empty runs all five")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 0, "measured window in seconds (default 10)")
		trace    = flag.Int("trace", 0, "1 records spans, alternating traced and untraced slices, and probes the layers")
		out      = flag.String("out", "", "append this run to a ledger file")
		spansOut = flag.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON lines")
		commit   = flag.String("commit", "", "commit to record (default: git rev-parse HEAD, else unknown)")
		compare  = flag.Bool("compare", false, "compare two ledger files: -compare A.json B.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	flag.Parse()

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two ledger files"))
		}
		regressed, err := compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	sc := fullScale
	if *seconds > 0 {
		sc.window = time.Duration(*seconds) * time.Second
	}
	var todo []workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	tmp, err := makeTmp()
	if err != nil {
		fatal(err)
	}
	r := &run{Commit: commitOf(*commit), Seed: *seed, Nproc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), WindowS: sc.window.Seconds()}
	fmt.Printf("benchmark: commit %s seed %d nproc %d GOMAXPROCS %d %s window %v\n",
		r.Commit, r.Seed, r.Nproc, r.GOMAXPROCS, r.GoVersion, sc.window)
	failed := false
	for _, w := range todo {
		res, err := runWorkload(ctx, w, *seed, sc, *trace == 1, tmp)
		if err != nil {
			os.RemoveAll(tmp)
			fatal(err)
		}
		res.print(os.Stdout)
		r.Workloads = append(r.Workloads, res)
		failed = failed || !res.Correct
		if *spansOut != "" && res.spans != nil {
			if err := writeSpans(*spansOut, res); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
			}
		}
	}
	os.RemoveAll(tmp)
	os.Remove(tmpRoot) // only if no other run is using it
	if *out != "" {
		if err := appendLedger(*out, r); err != nil {
			fatal(err)
		}
	}
	if *name != "" {
		line, _ := json.Marshal(r.Workloads[0].contractLine()) // plain structs: cannot fail
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// makeTmp creates this process's scratch directory under tmpRoot.
func makeTmp() (string, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmpRoot, "run-")
}

func commitOf(flagged string) string {
	if flagged != "" {
		return flagged
	}
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

func writeSpans(path string, res *workloadResult) error {
	if ext := filepath.Ext(path); ext != "" {
		path = strings.TrimSuffix(path, ext) + "." + res.Workload + ext
	} else {
		path += "." + res.Workload
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.spans.writeTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// manifestJSON renders BENCHMARK.json from the tables in this package, so
// the file at the repository root cannot drift from what the code reports
// (TestManifestMatchesRoot).
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerSpec struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []wl         `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []layerSpec  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: int(fullScale.window / time.Second),
		EndToEnd:   gated,
	}
	for _, w := range workloads() {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, s := range perLayer {
		m.PerLayer = append(m.PerLayer, layerSpec{s.Name, s.Unit, s.Better})
	}
	b, _ := json.MarshalIndent(m, "", "  ") // plain structs: cannot fail
	return append(b, '\n')
}
