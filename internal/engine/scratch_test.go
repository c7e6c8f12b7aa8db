package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// scratchRun is one engine over its own store and program, stepped one
// stage at a time; each stage's outputs are recorded as text.
type scratchRun struct {
	e    *Engine
	db   *store.Store
	prog *Program
	rv   *RemoteView
	why  ast.Fact // asked after every stage
}

// scratchScenario builds a fresh run and the stages it takes: per stage,
// the facts inserted and the facts deleted before it.
type scratchScenario struct {
	decls  []string
	rules  []string
	why    ast.Fact
	stages func(rnd *rand.Rand) [][2][]ast.Fact
}

func (sc scratchScenario) start(t *testing.T) *scratchRun {
	e, db := testEnv(t, DefaultOptions(), sc.decls...)
	prog, err := e.CompileProgram(mustRules(t, sc.rules...))
	if err != nil || !prog.Incremental {
		t.Fatalf("compile: %v, incremental %v", err, prog != nil && prog.Incremental)
	}
	return &scratchRun{e: e, db: db, prog: prog, rv: NewRemoteView(), why: sc.why}
}

// stage applies ins and del to the store and runs one incremental stage,
// returning its Result, the views' contents, the remote view's and the
// answer of Why, rendered.
func (r *scratchRun) stage(ins, del []ast.Fact) string {
	in := &StageInput{Ins: map[string][]value.Tuple{}, Del: map[string][]value.Tuple{}}
	for _, f := range ins {
		if r.db.Get(f.Rel, f.Peer).Insert(f.Args) {
			in.Ins[f.Rel+"@"+f.Peer] = append(in.Ins[f.Rel+"@"+f.Peer], f.Args)
		}
	}
	for _, f := range del {
		if r.db.Get(f.Rel, f.Peer).Delete(f.Args) {
			in.Del[f.Rel+"@"+f.Peer] = append(in.Del[f.Rel+"@"+f.Peer], f.Args)
		}
	}
	res := r.e.RunStageIncremental(r.prog, in, r.rv)
	var lines []string
	for relID, vd := range res.Views {
		for _, t := range vd.Ins {
			lines = append(lines, "view +"+relID+t.String())
		}
		for _, t := range vd.Del {
			lines = append(lines, "view -"+relID+t.String())
		}
	}
	for dst, ops := range res.RemoteOut {
		for _, op := range ops {
			lines = append(lines, fmt.Sprintf("out %s %v %v %s", dst, op.Op, op.Maint, op.Fact.String()))
		}
	}
	for _, u := range res.LocalUpdates {
		lines = append(lines, "update "+u.String())
	}
	for _, err := range res.Errors {
		lines = append(lines, "error "+err.Error())
	}
	for _, rel := range r.db.RelationsOf("local") {
		if rel.Kind() == ast.Intensional {
			for _, t := range rel.Tuples() {
				lines = append(lines, "has "+rel.ID()+t.String())
			}
		}
	}
	for _, dst := range []string{"far", "other"} {
		for relID := range r.rv.Digests(dst) {
			facts, _ := r.rv.RangeFacts(dst, relID, 0, ^uint64(0), 0)
			for _, f := range facts {
				lines = append(lines, "remote "+dst+" "+f.String())
			}
		}
	}
	for _, d := range r.e.Why(r.prog, r.why) {
		lines = append(lines, fmt.Sprintf("why %s %v", d.RuleID, d.Supports))
	}
	sort.Strings(lines)
	return fmt.Sprintf("derived=%d retracted=%d\n%s", res.Derived, res.Retracted, strings.Join(lines, "\n"))
}

// TestStageScratchIsolated: engines share one pool of stage states, and a
// state carries nothing from one stage to the next. Two engines over
// different stores and programs, one a recursive view with a remote view
// over it and the other a join with a remote view, a deletion rule and an
// event rule emitting to a remote peer, run
// stages of a few facts and stages of more than ScratchCap facts; every
// stage's Result, views, remote view and Why answer equal those of the same
// sequence run alone on a fresh engine, whether the two engines' stages
// interleave or run from two goroutines at once.
func TestStageScratchIsolated(t *testing.T) {
	edge := func(a, b int) ast.Fact { return ast.NewFact("edge", "local", value.Int(int64(a)), value.Int(int64(b))) }
	one := func(rel string, x int) ast.Fact { return ast.NewFact(rel, "local", value.Int(int64(x))) }
	scenarios := []scratchScenario{{
		decls: []string{"ext edge(a,b)", "int tc(a,b)"},
		rules: []string{
			`tc@local($x,$y) :- edge@local($x,$y);`,
			`tc@local($x,$z) :- tc@local($x,$y), edge@local($y,$z);`,
			`reach@far($x,$y) :- tc@local($x,$y);`,
		},
		why: ast.NewFact("tc", "local", value.Int(0), value.Int(3)),
		stages: func(rnd *rand.Rand) (out [][2][]ast.Fact) {
			for i := range 12 {
				var ins, del []ast.Fact
				n := 1 + rnd.Intn(3)
				if i%4 == 2 {
					n = 2 * ScratchCap
				}
				for range n {
					ins = append(ins, edge(rnd.Intn(12), rnd.Intn(12)))
				}
				for range rnd.Intn(4) {
					del = append(del, edge(rnd.Intn(12), rnd.Intn(12)))
				}
				out = append(out, [2][]ast.Fact{ins, del})
			}
			return out
		},
	}, {
		decls: []string{"ext a(x)", "ext b(x)", "ext gone(x)", "int v(x)"},
		rules: []string{
			`v@local($x) :- a@local($x), b@local($x);`,
			`out@other($x) :- v@local($x), b@local($x);`,
			`-gone@local($x) :- v@local($x), gone@local($x);`,
			`ping@other($x) :- gone@local($x), not a@local($x);`,
		},
		why: one("v", 5),
		stages: func(rnd *rand.Rand) (out [][2][]ast.Fact) {
			for i := range 12 {
				var ins, del []ast.Fact
				n := 1 + rnd.Intn(2)
				if i%4 == 1 {
					n = 3 * ScratchCap
				}
				for range n {
					ins = append(ins, one([]string{"a", "b", "gone"}[rnd.Intn(3)], rnd.Intn(2*ScratchCap)))
				}
				for range rnd.Intn(3) * (1 + i%4/3*ScratchCap) {
					del = append(del, one([]string{"a", "b"}[rnd.Intn(2)], rnd.Intn(2*ScratchCap)))
				}
				out = append(out, [2][]ast.Fact{ins, del})
			}
			return out
		},
	}}
	stages := make([][][2][]ast.Fact, len(scenarios))
	alone := make([][]string, len(scenarios))
	for i, sc := range scenarios {
		stages[i] = sc.stages(rand.New(rand.NewSource(int64(i + 1))))
		r := sc.start(t)
		for _, st := range stages[i] {
			alone[i] = append(alone[i], r.stage(st[0], st[1]))
		}
	}
	check := func(how string, i int, got []string) {
		t.Helper()
		for k := range alone[i] {
			if k >= len(got) || got[k] != alone[i][k] {
				t.Fatalf("%s: engine %d, stage %d differs from the engine run alone:\n%s\nalone:\n%s", how, i, k, got[min(k, len(got)-1)], alone[i][k])
			}
		}
	}

	runs := []*scratchRun{scenarios[0].start(t), scenarios[1].start(t)}
	got := make([][]string, len(runs))
	for k := range stages[0] {
		for i, r := range runs {
			got[i] = append(got[i], r.stage(stages[i][k][0], stages[i][k][1]))
		}
	}
	for i := range runs {
		check("interleaved", i, got[i])
	}

	runs = []*scratchRun{scenarios[0].start(t), scenarios[1].start(t)}
	got = make([][]string, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, st := range stages[i] {
				got[i] = append(got[i], r.stage(st[0], st[1]))
			}
		}()
	}
	wg.Wait()
	for i := range runs {
		check("concurrent", i, got[i])
	}
}
