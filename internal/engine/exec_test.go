package engine

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// TestCompiledCacheKeyedByStageKind pins the compiled-cache key: the four
// walk kinds of one rule share a plan order but compile to behaviorally
// different programs (different terminals, delta sources, ghost sweeps), so
// a DRed program must never be served for a semi-naive eval walk or vice
// versa, even at the same delta position.
func TestCompiledCacheKeyedByStageKind(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext e(a,b)", "int p(a,b)")
	insertFacts(t, db, `e@local(1, 2);`, `e@local(2, 3);`)
	prog, err := e.CompileProgram(mustRules(t,
		`p@local($x, $z) :- e@local($x, $y), e@local($y, $z);`,
	))
	if err != nil {
		t.Fatal(err)
	}
	cr := prog.Rules[0]
	pl := e.newPlanner()
	evalP := pl.compiledFor(cr, kindEval, 0)
	dredP := pl.compiledFor(cr, kindDRed, 0)
	matchP := pl.compiledFor(cr, kindMatch, -1)
	whyP := pl.compiledFor(cr, kindWhy, -1)
	if evalP == dredP || evalP == matchP || dredP == matchP || whyP == matchP {
		t.Fatal("stage kinds share a compiled program: the cache key must include the kind")
	}
	if evalP.kind != kindEval || dredP.kind != kindDRed || matchP.kind != kindMatch {
		t.Fatalf("compiled programs carry wrong kinds: %d %d %d", evalP.kind, dredP.kind, matchP.kind)
	}
	// Repeat lookups hit the cache and return the identical program per kind.
	if pl.compiledFor(cr, kindEval, 0) != evalP {
		t.Fatal("eval lookup did not return the cached eval program")
	}
	if pl.compiledFor(cr, kindDRed, 0) != dredP {
		t.Fatal("DRed lookup did not return the cached DRed program")
	}
	// Delta positions cache separately too.
	if pl.compiledFor(cr, kindEval, 1) == evalP {
		t.Fatal("distinct delta positions share a compiled program")
	}
	compiles, hits, fallbacks := e.CompiledStats()
	if compiles != 5 || hits != 2 || fallbacks != 0 {
		t.Fatalf("CompiledStats() = (%d, %d, %d), want (5, 2, 0)", compiles, hits, fallbacks)
	}
}

// TestEveryRuleShapeCompiles: compileExec is total. The shapes the old
// interpreter owned — variable peer, variable relation, constant remote atom,
// run-time builtin, non-string constant names — all yield a chain for all
// three stage kinds, and the fallback counter stays 0.
func TestEveryRuleShapeCompiles(t *testing.T) {
	e, _ := testEnv(t, DefaultOptions(), "ext e(a,b)", "ext who(p)", "int v(a,b)")
	rules := mustRules(t,
		`v@local($x,$y) :- who@local($p), e@$p($x,$y);`,
		`v@local($x,$y) :- who@local($r), $r@local($x,$y);`,
		`v@local($x,$z) :- e@local($x,$y), far@remote($y,$z), e@local($z,$x);`,
		`v@local($x,$y) :- e@local($x,$y), e@local($o,$p), $o@$p($x,$y);`,
		`out@$p($x) :- who@local($p), e@local($x,$x), not e@$p($x,$x);`,
	)
	// A non-string constant in name position cannot be written in source; it
	// arises when a residual's peer variable was bound to a number.
	odd := mustRules(t, `v@local($x,$y) :- e@local($x,$y), e@local($y,$x);`)[0]
	odd.ID = "odd"
	odd.Body[1].Peer = ast.C(value.Int(7))
	prog, err := e.CompileProgram(append(rules, odd))
	if err != nil {
		t.Fatal(err)
	}
	pl := e.newPlanner()
	for _, cr := range prog.Rules {
		for _, kind := range []stageKind{kindEval, kindDRed, kindMatch} {
			for pos := -1; pos < len(cr.Body); pos++ {
				if kind == kindMatch && pos >= 0 {
					continue
				}
				if ep := pl.compiledFor(cr, kind, pos); ep == nil || ep.entry == nil {
					t.Fatalf("rule %s kind %d delta %d did not compile", cr.Rule.ID, kind, pos)
				}
			}
		}
	}
	if _, _, fallbacks := e.CompiledStats(); fallbacks != 0 {
		t.Fatalf("fallbacks = %d, want 0", fallbacks)
	}
}

// TestPaperRuleResidual pins the paper's §2 signature rule end to end
// through the compiled delegation step: the residual delegated to each
// selected attendee is the written suffix with the prefix's bindings
// substituted in, and the rule compiled rather than fell back.
func TestPaperRuleResidual(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext selectedAttendee(a)", "int attendeePictures(id,name,owner,data)")
	insertFacts(t, db, `selectedAttendee@local("emilien");`, `selectedAttendee@local("local");`)
	prog, err := e.CompileProgram(mustRules(t,
		`attendeePictures@local($id,$name,$owner,$data) :- selectedAttendee@local($a), pictures@$a($id,$name,$owner,$data);`))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	if len(delegations(t, res)["r1"]) != 1 || len(delegations(t, res)["r1"]["emilien"]) != 1 {
		t.Fatalf("residuals = %v, want exactly one, to emilien", delegations(t, res))
	}
	want := `attendeePictures@local($id, $name, $owner, $data) :- pictures@emilien($id, $name, $owner, $data)`
	if got := delegations(t, res)["r1"]["emilien"][0].String(); got != want {
		t.Errorf("residual = %q\nwant       %q", got, want)
	}
	if compiles, _, fallbacks := e.CompiledStats(); compiles == 0 || fallbacks != 0 {
		t.Fatalf("CompiledStats() = (%d compiles, %d fallbacks), want (>0, 0)", compiles, fallbacks)
	}
}

// TestRuntimeErrorSteps pins the text of every runtime error a body step or
// the head can report, and that an error drops only its own valuation: the
// stage goes on and the healthy rule beside it still derives.
func TestRuntimeErrorSteps(t *testing.T) {
	cases := []struct {
		name  string
		decls []string
		facts []string
		rule  string
		want  string
	}{
		{"peer variable bound to a number",
			[]string{"ext who(p)"}, []string{`who@local(5);`},
			`bad@local($x) :- who@local($p), data@$p($x);`,
			`engine: rule r1: peer term of body atom 2 is not a string`},
		{"relation variable bound to a number",
			[]string{"ext who(p)"}, []string{`who@local(5);`},
			`bad@local($x) :- who@local($r), $r@local($x);`,
			`engine: rule r1: relation term of body atom 2 is not a string`},
		{"unknown builtin through variable terms",
			[]string{"ext ops(o,p)"}, []string{`ops@local("frob","builtin");`},
			`bad@local($o) :- ops@local($o,$p), $o@$p($o,$p);`,
			`engine: rule r1: engine: unknown builtin predicate "frob"`},
		{"builtin arity through variable terms",
			[]string{"ext ops(o,p)"}, []string{`ops@local("lt","builtin");`},
			`bad@local($o) :- ops@local($o,$p), $o@$p($o);`,
			`engine: rule r1: engine: builtin lt expects 2 arguments, got 1`},
		{"head arity mismatch",
			[]string{"ext src(x)", "int bad(a,b)"}, []string{`src@local("v");`},
			`bad@local($x) :- src@local($x);`,
			`engine: rule r1: head bad@local("v") has arity 1 but relation expects 2`},
		{"head peer bound to a number",
			[]string{"ext who(p)"}, []string{`who@local(5);`},
			`bad@$p($p) :- who@local($p);`,
			`engine: rule r1: head peer term is not a string`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, db := testEnv(t, DefaultOptions(), append(tc.decls, "ext ok(x)", "int fine(x)")...)
			insertFacts(t, db, append(tc.facts, `ok@local(1);`)...)
			prog, err := e.CompileProgram(mustRules(t, tc.rule, `fine@local($x) :- ok@local($x);`))
			if err != nil {
				t.Fatal(err)
			}
			// One report per visit of the failing valuation: the full pass,
			// plus the delta pass fine's derivation triggers when the failing
			// atom's relation is only known at run time.
			res := e.RunStage(prog)
			if len(res.Errors) == 0 {
				t.Fatalf("no error reported, want %q", tc.want)
			}
			for _, err := range res.Errors {
				if err.Error() != tc.want {
					t.Fatalf("Errors = %v\nwant only %q", res.Errors, tc.want)
				}
			}
			if got := relContents(db, "fine", "local"); len(got) != 1 {
				t.Fatalf("the error aborted the stage: fine = %v", got)
			}
		})
	}
}

// TestRuntimeErrorCap: a pathological program reports 99 errors plus the
// suppression notice, and still finishes the stage.
func TestRuntimeErrorCap(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext who(p)", "int fine(x)")
	for i := 0; i < 150; i++ {
		db.Get("who", "local").Insert(value.Tuple{value.Int(int64(i))})
	}
	prog, err := e.CompileProgram(mustRules(t,
		`bad@local($x) :- who@local($p), data@$p($x);`,
		`fine@local($p) :- who@local($p);`))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	if len(res.Errors) != maxCollectedErrors {
		t.Fatalf("collected %d errors, want the cap %d", len(res.Errors), maxCollectedErrors)
	}
	if got, want := res.Errors[0].Error(), `engine: rule r1: peer term of body atom 2 is not a string`; got != want {
		t.Fatalf("first error = %q, want %q", got, want)
	}
	if got, want := res.Errors[maxCollectedErrors-1].Error(), `engine: too many runtime errors; suppressing the rest`; got != want {
		t.Fatalf("last error = %q, want %q", got, want)
	}
	if n := db.Get("fine", "local").Len(); n != 150 {
		t.Fatalf("fine has %d rows, want 150: the error flood aborted the stage", n)
	}
}

// TestTracerRunsThroughCompiledChains: Why runs as compiled chains, never
// another evaluator. For every view tuple of a program with recursion,
// builtins, a run-time-resolved atom and a delegating rule, production Why
// reports exactly the derivations (rule, supports in written order) the
// reference evaluator enumerates, and no rule falls back.
func TestTracerRunsThroughCompiledChains(t *testing.T) {
	run := func(eval func(*Engine, *Program) *Result) (*Engine, *Program, *store.Store) {
		e, db := testEnv(t, DefaultOptions(), "ext edge(a,b)", "ext who(p)", "int reach(a,b)", "int far(a)")
		insertFacts(t, db, `edge@local(1, 2);`, `edge@local(2, 3);`, `edge@local(2, 2);`, `who@local("local");`, `who@local("remote");`)
		prog, err := e.CompileProgram(mustRules(t,
			`reach@local($x, $y) :- edge@local($x, $y);`,
			`reach@local($x, $z) :- reach@local($x, $y), edge@local($y, $z), neq@builtin($x, $z);`,
			`far@local($x) :- who@local($p), edge@$p($x, $x);`,
			`seen@remote($x) :- reach@local($x, $x), not edge@local($x, 1);`,
		))
		if err != nil {
			t.Fatal(err)
		}
		checkNoErrors(t, eval(e, prog))
		return e, prog, db
	}
	e, prog, db := run((*Engine).RunStage)
	ref, refProg, _ := run(referenceStage)
	_, want := referenceRun(ref, refProg)
	var all []string
	for _, rel := range db.RelationsOf("local") {
		if rel.Kind() != ast.Intensional {
			continue
		}
		for _, tp := range rel.Tuples() {
			f := ast.Fact{Rel: rel.Schema().Name, Peer: "local", Args: tp}
			got, exp := whyLines(e.Why(prog, f)), want[f.Key()]
			slices.Sort(exp)
			if strings.Join(got, "\n") != strings.Join(exp, "\n") {
				t.Fatalf("Why(%s) differs\n--- production\n%s\n--- reference\n%s", f, strings.Join(got, "\n"), strings.Join(exp, "\n"))
			}
			for _, g := range got {
				all = append(all, f.String()+" by "+g)
			}
		}
	}
	if !slices.Contains(all, `far@local(2) by r3 from [who@local("local") edge@local(2, 2)]`) {
		t.Fatalf("missing the support set of the run-time-resolved atom:\n%s", strings.Join(all, "\n"))
	}
	if compiles, _, fallbacks := e.CompiledStats(); compiles == 0 || fallbacks != 0 {
		t.Fatalf("CompiledStats() = (%d compiles, %d fallbacks) after Why, want (>0, 0)", compiles, fallbacks)
	}
}

// TestExplainAnnotatesStepKinds checks the -explain rendering names what
// each atom compiles to, including the delegation boundary.
func TestExplainAnnotatesStepKinds(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext e(a,b)", "ext who(p)", "int p(a,b)")
	insertFacts(t, db, `e@local(1, 2);`)
	prog, err := e.CompileProgram(mustRules(t,
		`p@local($x, $y) :- e@local($x, $y), lt@builtin($x, $y), not e@local($y, $x);`,
		`out@remote($x) :- e@local($x, $y), f@remote($y, $x);`,
		`p@local($x, $y) :- who@local($a), e@$a($x, $y);`,
	))
	if err != nil {
		t.Fatal(err)
	}
	out := e.Explain(prog)
	for _, want := range []string{
		"[rows=1, full scan]", "[builtin filter]", "[negated: membership test]",
		"[delegates the rest of the body to remote]", "[resolved at run time: probe, filter or delegation]",
		"keep written order",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain lacks %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"planner disabled", "interpreter", "fallback"} {
		if strings.Contains(out, gone) {
			t.Fatalf("explain still mentions %q:\n%s", gone, out)
		}
	}
}

// TestIncrementalDiamondSupport drives inserts and deletes through a
// maintained recursive view on a known-tricky shape (diamond support: a
// tuple whose deleted derivation has a surviving alternative must be
// rederived), checking production against the reference after every batch.
func TestIncrementalDiamondSupport(t *testing.T) {
	edgeOp := func(op ast.UpdateOp, a, b int64) FactOp {
		return FactOp{Op: op, Fact: ast.NewFact("edge", "local", value.Int(a), value.Int(b))}
	}
	ins, del := ast.Derive, ast.Delete
	batches := [][]FactOp{
		{edgeOp(ins, 1, 2), edgeOp(ins, 2, 4), edgeOp(ins, 1, 3), edgeOp(ins, 3, 4), edgeOp(ins, 4, 5)},
		{edgeOp(del, 2, 4)},                    // reach(1,4) survives via 1→3→4
		{edgeOp(del, 3, 4)},                    // now reach(1,4), reach(x,5) collapse
		{edgeOp(ins, 2, 4)},                    // restore one path
		{edgeOp(ins, 5, 1), edgeOp(del, 1, 2)}, // cycle + cut
	}
	checkAgainstReference(t, "diamond", fuzzSchemas[:2], nil, mustRules(t,
		`reach@local($x, $y) :- edge@local($x, $y);`,
		`reach@local($x, $z) :- reach@local($x, $y), edge@local($y, $z);`,
	), batches, nil)
}
