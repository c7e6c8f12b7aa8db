package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// whyLines renders derivations as the sorted "ruleID from [supports]" lines
// referenceRun reports.
func whyLines(ds []Derivation) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprintf("%s from %v", d.RuleID, d.Supports)
	}
	slices.Sort(out)
	return out
}

func mustFact(t *testing.T, src string) ast.Fact {
	t.Helper()
	f, err := parser.ParseFact(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// whyEnv compiles rules over decls and facts and runs the first stage.
func whyEnv(t *testing.T, decls, facts, rules []string) (*Engine, *Program) {
	t.Helper()
	e, db := testEnv(t, DefaultOptions(), decls...)
	insertFacts(t, db, facts...)
	prog, err := e.CompileProgram(mustRules(t, rules...))
	if err != nil {
		t.Fatal(err)
	}
	checkNoErrors(t, e.RunStageFull(prog, nil, NewRemoteView()))
	return e, prog
}

// TestWhyDerivedAndBase: a derived fact reports its rule and supports in
// written body order even when the plan probes the atoms the other way
// round; a base fact has no derivation; deletion rules derive nothing.
func TestWhyDerivedAndBase(t *testing.T) {
	facts := []string{`small@local(1);`}
	for i := 0; i < 50; i++ {
		facts = append(facts, fmt.Sprintf(`big@local(%d, 7);`, i))
	}
	e, prog := whyEnv(t, []string{"ext big(a,b)", "ext small(a)", "int v(b)"}, facts, []string{
		`v@local($y) :- big@local($x, $y), small@local($x);`,
		`-small@local($x) :- v@local($x);`,
	})
	if ord := e.stage(nil).planner.rederiveOrder(prog.Rules[0]); !slices.Equal(ord, []int{1, 0}) {
		t.Fatalf("head-bound plan = %v, want small before big", ord)
	}
	got := whyLines(e.Why(prog, mustFact(t, `v@local(7);`)))
	if want := []string{"r1 from [big@local(1, 7) small@local(1)]"}; !slices.Equal(got, want) {
		t.Fatalf("Why(v(7)) = %v, want %v", got, want)
	}
	if got := e.Why(prog, mustFact(t, `small@local(1);`)); len(got) != 0 {
		t.Fatalf("Why(base) = %v, want none (deletion rules are not derivations)", whyLines(got))
	}
	if got := e.BaseSupports(prog, mustFact(t, `small@local(1);`)); len(got) != 1 || got[0].String() != `small@local(1)` {
		t.Fatalf("a base fact must support itself, got %v", got)
	}
}

// TestWhyAllDerivations: every current derivation is reported, not the
// first one found, and BaseSupports unions them whatever the rule order.
func TestWhyAllDerivations(t *testing.T) {
	rules := []string{`v@local($x) :- a@local($x);`, `v@local($x) :- b@local($x);`}
	for _, order := range [][]string{rules, {rules[1], rules[0]}} {
		e, prog := whyEnv(t, []string{"ext a(x)", "ext b(x)", "int v(x)"},
			[]string{`a@local(1);`, `b@local(1);`}, order)
		v := mustFact(t, `v@local(1);`)
		if got := e.Why(prog, v); len(got) != 2 {
			t.Fatalf("rules %v: Why(v(1)) = %v, want both derivations", order, whyLines(got))
		}
		if got := fmt.Sprint(e.BaseSupports(prog, v)); got != "[a@local(1) b@local(1)]" {
			t.Fatalf("rules %v: BaseSupports(v(1)) = %s, want both base facts", order, got)
		}
	}
}

// TestBaseSupportsTransitive: supports are followed through derived facts
// down to the base facts.
func TestBaseSupportsTransitive(t *testing.T) {
	e, prog := whyEnv(t, []string{"ext base(x,y)", "int mid(x)", "int top(x)"},
		[]string{`base@local(1, 1);`, `base@local(1, 2);`, `base@local(3, 3);`},
		[]string{`mid@local($y) :- base@local($x, $y);`, `top@local($x) :- mid@local($x), mid@local(3);`})
	top := mustFact(t, `top@local(2);`)
	if got := whyLines(e.Why(prog, top)); !slices.Equal(got, []string{"r2 from [mid@local(2) mid@local(3)]"}) {
		t.Fatalf("Why(top(2)) = %v", got)
	}
	if got := fmt.Sprint(e.BaseSupports(prog, top)); got != "[base@local(1, 2) base@local(3, 3)]" {
		t.Fatalf("BaseSupports(top(2)) = %s", got)
	}
}

// TestBaseSupportsCycleSafe: recursive rules make derived facts support one
// another; the walk stops at facts it has seen and still reaches the base.
func TestBaseSupportsCycleSafe(t *testing.T) {
	e, prog := whyEnv(t, []string{"ext edge(a,b)", "int reach(a,b)"},
		[]string{`edge@local(1, 2);`, `edge@local(2, 1);`},
		[]string{`reach@local($x, $y) :- edge@local($x, $y);`, `reach@local($x, $z) :- reach@local($x, $y), edge@local($y, $z);`})
	r12 := mustFact(t, `reach@local(1, 2);`)
	if got := whyLines(e.Why(prog, r12)); !slices.Equal(got, []string{
		"r1 from [edge@local(1, 2)]", "r2 from [reach@local(1, 1) edge@local(1, 2)]",
	}) {
		t.Fatalf("Why(reach(1,2)) = %v", got)
	}
	if got := fmt.Sprint(e.BaseSupports(prog, r12)); got != "[edge@local(1, 2) edge@local(2, 1)]" {
		t.Fatalf("BaseSupports(reach(1,2)) = %s", got)
	}
}

// TestWhyMatchesReference: on the random stratified programs and batch
// sequences of TestProductionEquivalentToReference, after the first stage
// and after every batch, production Why on the incrementally maintained
// store answers, for every view tuple, exactly the derivations the reference
// evaluator enumerates in its final naive iteration over the same state.
func TestWhyMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(25))
	checked, multi := 0, 0 // view tuples checked, and those with ≥ 2 derivations
	for trial := 0; trial < 60; trial++ {
		domain := 2 + rnd.Intn(5)
		schemas, tuples, rules := randomStratifiedProgram(rnd, 1+rnd.Intn(3), 1+rnd.Intn(5), 5+rnd.Intn(25), domain)
		var facts []ast.Fact
		if trial%2 == 0 {
			schemas, facts, rules = withDelegatingRules(rnd, schemas, rules)
		}
		for _, tp := range tuples {
			facts = append(facts, ast.Fact{Rel: "e", Peer: "local", Args: tp})
		}
		full := DefaultOptions()
		full.Incremental = false
		prod := newRefWorld(t, DefaultOptions(), schemas, facts, rules)
		ref := newRefWorld(t, full, schemas, facts, rules)
		rv := NewRemoteView()
		check := func(step int) {
			t.Helper()
			_, want := referenceRun(ref.e, ref.prog)
			for _, rel := range prod.db.RelationsOf("local") {
				if rel.Kind() != ast.Intensional {
					continue
				}
				for _, tp := range rel.Tuples() {
					f := ast.Fact{Rel: rel.Schema().Name, Peer: "local", Args: tp}
					got, exp := whyLines(prod.e.Why(prod.prog, f)), want[f.Key()]
					slices.Sort(exp)
					checked++
					if len(got) >= 2 {
						multi++
					}
					if strings.Join(got, "\n") != strings.Join(exp, "\n") {
						t.Fatalf("trial %d step %d: Why(%s) differs from the reference\nrules: %v\n--- reference\n%s\n--- production\n%s",
							trial, step, f, rules, strings.Join(exp, "\n"), strings.Join(got, "\n"))
					}
				}
			}
		}
		prod.e.RunStageFull(prod.prog, nil, rv)
		check(-1)
		for step, b := range randomBatches(rnd, 10, domain, trial%2 == 0) {
			in := prod.apply(b)
			ref.apply(b)
			if prod.prog.Incremental {
				prod.e.RunStageIncremental(prod.prog, in, rv)
			} else {
				prod.e.RunStageFull(prod.prog, nil, rv)
			}
			check(step)
		}
	}
	t.Logf("checked %d view tuples, %d with several derivations", checked, multi)
	if checked < 2000 || multi < 1000 {
		t.Fatalf("coverage too thin: %d view tuples, %d with several derivations", checked, multi)
	}
}
