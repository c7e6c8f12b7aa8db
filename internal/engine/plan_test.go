package engine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/value"
)

// planOrder compiles one rule against the engine and returns the planner's
// chosen full-evaluation order.
func planOrder(t *testing.T, e *Engine, src string, deltaPos int) []int {
	t.Helper()
	cr, err := e.CompileRule(mustRules(t, src)[0])
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	ord := e.stage(nil).planner.orderFor(cr, deltaPos)
	if ord == nil {
		// Written order: materialize the identity for easy assertions.
		ord = make([]int, len(cr.Body))
		for i := range ord {
			ord[i] = i
		}
	}
	return ord
}

func fill(t *testing.T, db *store.Store, rel string, n int) {
	t.Helper()
	r := db.Get(rel, "local")
	if r == nil {
		t.Fatalf("relation %s undeclared", rel)
	}
	for i := 0; i < n; i++ {
		switch r.Schema().Arity() {
		case 1:
			r.Insert(value.Tuple{value.Int(int64(i))})
		case 2:
			r.Insert(value.Tuple{value.Int(int64(i)), value.Int(int64(i))})
		default:
			t.Fatalf("fill: unsupported arity %d", r.Schema().Arity())
		}
	}
}

// TestPlannerStartsFromTheSelectiveAtom checks the core reordering: a chain
// join written largest-first is planned smallest-first, probing backwards.
func TestPlannerStartsFromTheSelectiveAtom(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext big(a,b)", "ext mid(b,c)", "ext small(c)", "int out(a)")
	fill(t, db, "big", 1000)
	fill(t, db, "mid", 1000)
	fill(t, db, "small", 3)
	ord := planOrder(t, e, `out@local($a) :- big@local($a,$b), mid@local($b,$c), small@local($c);`, -1)
	if want := []int{2, 1, 0}; !reflect.DeepEqual(ord, want) {
		t.Fatalf("plan order = %v, want %v (selective atom first, chain probed backwards)", ord, want)
	}
}

// TestPlannerFloatsFiltersEarliest checks that negated atoms and builtins
// move to the first position where their variables are bound, ahead of
// further joins they can prune.
func TestPlannerFloatsFiltersEarliest(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext a(x)", "ext b(x,y)", "ext c(x)", "int out(y)")
	fill(t, db, "a", 2)
	fill(t, db, "b", 500)
	fill(t, db, "c", 10)
	ord := planOrder(t, e,
		`out@local($y) :- a@local($x), b@local($x,$y), not c@local($x), lt@builtin($x, 100);`, -1)
	// a binds $x; both filters depend only on $x and must run before the
	// 500-row b is probed.
	if want := []int{0, 2, 3, 1}; !reflect.DeepEqual(ord, want) {
		t.Fatalf("plan order = %v, want %v (filters float ahead of the big join)", ord, want)
	}
}

// TestPlannerDeltaAtomGoesFirst checks the delta-position choice: the atom
// carrying the semi-naive delta leads as soon as it is eligible, whatever
// its relation's cardinality.
func TestPlannerDeltaAtomGoesFirst(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext big(a,b)", "ext mid(b,c)", "ext small(c)", "int out(a)")
	fill(t, db, "big", 1000)
	fill(t, db, "mid", 1000)
	fill(t, db, "small", 3)
	ord := planOrder(t, e, `out@local($a) :- big@local($a,$b), mid@local($b,$c), small@local($c);`, 0)
	if ord[0] != 0 {
		t.Fatalf("plan order = %v: delta position 0 must evaluate first", ord)
	}
}

// TestPlannerKeepsDelegationSuffix checks the region boundary: atoms from
// the first possibly-remote atom on keep written order, so the delegated
// residual is exactly the paper's written suffix.
func TestPlannerKeepsDelegationSuffix(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext big(a,b)", "ext small(b)", "int out(a)")
	fill(t, db, "big", 1000)
	fill(t, db, "small", 3)
	ord := planOrder(t, e,
		`out@local($a) :- big@local($a,$b), small@local($b), q@remote($b,$c), r@local($c);`, -1)
	if want := []int{1, 0, 2, 3}; !reflect.DeepEqual(ord, want) {
		t.Fatalf("plan order = %v, want %v (local prefix reordered, suffix fixed)", ord, want)
	}
}

// TestPlannerDelegationsUnchanged evaluates a delegating rule whose local
// prefix the planner reorders and checks the residual rule set is exactly
// the written-order reference's — reordering the prefix must not change what
// is delegated or the bindings substituted into it.
func TestPlannerDelegationsUnchanged(t *testing.T) {
	run := func(eval func(*Engine, *Program) *Result) string {
		e, db := testEnv(t, DefaultOptions(), "ext big(a,b)", "ext small(b)")
		fill(t, db, "big", 50)
		fill(t, db, "small", 3)
		prog, err := e.CompileProgram(mustRules(t,
			`out@local($a,$c) :- big@local($a,$b), small@local($b), pics@remote($b,$c);`))
		if err != nil {
			t.Fatal(err)
		}
		res := eval(e, prog)
		checkNoErrors(t, res)
		if n := len(delegations(t, res)["r1"]["remote"]); n != 3 {
			t.Fatalf("%d residuals delegated, want 3", n)
		}
		return stageOutputs(db, "local", res)
	}
	if got, want := run((*Engine).RunStage), run(referenceStage); got != want {
		t.Fatalf("planned outputs differ from the written-order reference\n--- planned\n%s\n--- reference\n%s", got, want)
	}
}

// TestExplainRendersPlans smoke-tests the explain surface: every rule shows
// up with a numbered join order and live statistics.
func TestExplainRendersPlans(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext big(a,b)", "ext mid(b,c)", "ext small(c)", "int out(a)")
	fill(t, db, "big", 100)
	fill(t, db, "mid", 100)
	fill(t, db, "small", 3)
	prog, err := e.CompileProgram(mustRules(t,
		`out@local($a) :- big@local($a,$b), mid@local($b,$c), small@local($c);`))
	if err != nil {
		t.Fatal(err)
	}
	got := e.Explain(prog)
	for _, want := range []string{"rule r1", "1. body atom 3: small@local($c)", "rows=100", "probe("} {
		if !strings.Contains(got, want) {
			t.Fatalf("Explain output missing %q:\n%s", want, got)
		}
	}
}
