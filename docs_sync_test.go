package webdamlog

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/parser"
)

// wdlFence matches a ```wdl fenced block; group 1 is the program text.
// Program blocks in the docs are tagged `wdl` (untagged fences are grammar
// sketches, shell commands, Go snippets, …).
var wdlFence = regexp.MustCompile("(?s)```wdl\n(.*?)```")

// TestDocProgramsParse keeps the documentation and the language in sync:
// every ```wdl fenced block in docs/*.md and in README.md, and every
// examples/programs/*.wdl file (all of which the docs reference as the
// runnable companions), must parse with the real lexer and parser. CI runs
// this explicitly, so a syntax change that breaks a documented program —
// or a doc edit that drifts from the grammar — fails the build instead of
// silently rotting.
func TestDocProgramsParse(t *testing.T) {
	var docs []string
	md, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, md...)
	docs = append(docs, "README.md")
	if len(md) == 0 {
		t.Fatal("no docs/*.md found; is the test running from the repo root?")
	}

	blocks := 0
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range wdlFence.FindAllStringSubmatch(string(src), -1) {
			blocks++
			if _, err := parser.Parse(m[1]); err != nil {
				t.Errorf("%s: fenced wdl block does not parse: %v\nblock:\n%s", doc, err, m[1])
			}
		}
	}
	if blocks == 0 {
		t.Error("no ```wdl fenced blocks found in the docs; the sync gate is vacuous")
	}

	programs, err := filepath.Glob("examples/programs/*.wdl")
	if err != nil {
		t.Fatal(err)
	}
	if len(programs) == 0 {
		t.Fatal("no examples/programs/*.wdl found")
	}
	for _, path := range programs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parser.Parse(string(src)); err != nil {
			t.Errorf("%s: referenced example program does not parse: %v", path, err)
		}
	}

	// Every program file the docs point at must exist (dangling references
	// are doc rot too).
	ref := regexp.MustCompile(`examples/programs/[A-Za-z0-9_.-]+\.wdl`)
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllString(string(src), -1) {
			if _, err := os.Stat(m); err != nil {
				t.Errorf("%s references %s: %v", doc, m, err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "doc sync: %d wdl blocks, %d example programs parsed\n", blocks, len(programs))
}

// TestOperationsDocMetricsCurrent cross-checks docs/operations.md against
// the metric registrations in internal/peer/metrics.go, both ways: every
// metric name the code registers must appear in the operations doc's
// catalog, and every wdl_* metric the doc names (a histogram's _bucket,
// _sum and _count series included) must be registered, so the documented
// exposition cannot drift from what /metrics actually serves.
func TestOperationsDocMetricsCurrent(t *testing.T) {
	doc, err := os.ReadFile("docs/operations.md")
	if err != nil {
		t.Fatal(err)
	}
	code, err := os.ReadFile("internal/peer/metrics.go")
	if err != nil {
		t.Fatal(err)
	}
	reg := regexp.MustCompile(`reg\.(?:Counter|Gauge|Histogram)\("(\w+)"`)
	names := reg.FindAllStringSubmatch(string(code), -1)
	if len(names) < 10 {
		t.Fatalf("found only %d metric registrations in internal/peer/metrics.go; the gate is miswired", len(names))
	}
	registered := map[string]bool{}
	for _, m := range names {
		registered[m[1]] = true
		if !strings.Contains(string(doc), "`"+m[1]+"`") {
			t.Errorf("metric %s is registered but not documented in docs/operations.md", m[1])
		}
	}
	named := regexp.MustCompile(`\bwdl_[a-z0-9_]*[a-z0-9]`)
	for _, name := range named.FindAllString(string(doc), -1) {
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok && registered[b] {
				base = b
			}
		}
		if !registered[base] {
			t.Errorf("docs/operations.md names metric %s, which internal/peer/metrics.go does not register", name)
		}
	}
}

// TestDiagnosticsDocComplete cross-checks docs/diagnostics.md against the
// static analyzer: every WDLxxx code the analyzer can emit (the constants
// in internal/analysis) must have a "## WDLxxx" section in the catalogue,
// and every documented section must correspond to a real code — the
// diagnostics reference cannot drift from the tool in either direction.
func TestDiagnosticsDocComplete(t *testing.T) {
	doc, err := os.ReadFile("docs/diagnostics.md")
	if err != nil {
		t.Fatal(err)
	}
	code, err := os.ReadFile("internal/analysis/analysis.go")
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`Code\w+ = "(WDL\d{3})"`)
	emitted := decl.FindAllStringSubmatch(string(code), -1)
	if len(emitted) < 10 {
		t.Fatalf("found only %d diagnostic codes in internal/analysis/analysis.go; the gate is miswired", len(emitted))
	}
	known := map[string]bool{}
	for _, m := range emitted {
		known[m[1]] = true
		if !strings.Contains(string(doc), "## "+m[1]+" ") {
			t.Errorf("diagnostic %s is emitted but has no section in docs/diagnostics.md", m[1])
		}
	}
	heading := regexp.MustCompile(`(?m)^## (WDL\d{3}) `)
	for _, m := range heading.FindAllStringSubmatch(string(doc), -1) {
		if !known[m[1]] {
			t.Errorf("docs/diagnostics.md documents %s but the analyzer cannot emit it", m[1])
		}
	}
}

// TestExperimentsDocTargetsExist keeps docs/EXPERIMENTS.md honest: every
// experiment id this repository has used has a table row, and every name in
// backticks in a row's last column ("where it lives now") exists — a
// Test…/Fuzz… name is a function in some *_test.go file, anything else is a
// workload, metric or workload/metric of BENCHMARK.json, or a path in the
// tree. Test names anywhere else on the page are held to the same rule.
func TestExperimentsDocTargetsExist(t *testing.T) {
	doc, err := os.ReadFile("docs/EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var manifest struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &manifest)
	}
	if err != nil {
		t.Fatal(err)
	}
	ledger := map[string]bool{}
	for _, m := range append(manifest.EndToEnd, manifest.PerLayer...) {
		ledger[m.Name] = true
	}
	for _, w := range manifest.Workloads {
		ledger[w.Name] = true
		for _, m := range manifest.EndToEnd {
			ledger[w.Name+"/"+m.Name] = true
		}
	}
	if len(funcs) < 100 || len(ledger) < 50 {
		t.Fatalf("found %d test functions and %d ledger names; the gate is miswired", len(funcs), len(ledger))
	}

	testName := regexp.MustCompile("^(Test|Fuzz)\\w+$")
	ticked := regexp.MustCompile("`([^`]+)`")
	for _, m := range ticked.FindAllStringSubmatch(string(doc), -1) {
		if testName.MatchString(m[1]) && !funcs[m[1]] {
			t.Errorf("docs/EXPERIMENTS.md names %s, which no *_test.go file defines", m[1])
		}
	}
	rows := map[string]string{} // id -> last cell
	row := regexp.MustCompile(`(?m)^\| ([a-z][0-9]+) \|.*\| ([^|]+) \|$`)
	for _, m := range row.FindAllStringSubmatch(string(doc), -1) {
		rows[m[1]] = m[2]
	}
	for _, id := range strings.Fields("e1 e2 e3 e4 e5 p1 p2 p3 p4 p5 p6 p7 p8 p9 p10 p11 i1 a1") {
		targets := ticked.FindAllStringSubmatch(rows[id], -1)
		if len(targets) == 0 {
			t.Errorf("docs/EXPERIMENTS.md has no row for experiment %s that names where it lives", id)
		}
		for _, m := range targets {
			if testName.MatchString(m[1]) || ledger[m[1]] {
				continue // test names were checked above
			}
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("docs/EXPERIMENTS.md, %s: %s is neither a BENCHMARK.json name nor a path", id, m[1])
			}
		}
	}
}
