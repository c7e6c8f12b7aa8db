package engine

import (
	"testing"

	"repro/internal/parser"
)

func TestBuiltinComparisons(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext rate(id,stars)", "int good(id)", "int bad(id)", "int exact(id)")
	insertFacts(t, db, `rate@local("p1",5);`, `rate@local("p2",3);`, `rate@local("p3",4);`)
	prog, err := e.CompileProgram(mustRules(t,
		`good@local($id) :- rate@local($id,$s), ge@builtin($s,4);`,
		`bad@local($id) :- rate@local($id,$s), lt@builtin($s,4);`,
		`exact@local($id) :- rate@local($id,$s), eq@builtin($s,5);`,
	))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	if got := relContents(db, "good", "local"); len(got) != 2 {
		t.Errorf("good = %v, want p1 and p3", got)
	}
	if got := relContents(db, "bad", "local"); len(got) != 1 || got[0] != "(p2)" {
		t.Errorf("bad = %v, want [(p2)]", got)
	}
	if got := relContents(db, "exact", "local"); len(got) != 1 || got[0] != "(p1)" {
		t.Errorf("exact = %v, want [(p1)]", got)
	}
}

func TestBuiltinNegated(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext rate(id,stars)", "int notFive(id)")
	insertFacts(t, db, `rate@local("p1",5);`, `rate@local("p2",3);`)
	prog, err := e.CompileProgram(mustRules(t,
		`notFive@local($id) :- rate@local($id,$s), not eq@builtin($s,5);`,
	))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	if got := relContents(db, "notFive", "local"); len(got) != 1 || got[0] != "(p2)" {
		t.Errorf("notFive = %v", got)
	}
}

func TestBuiltinStringComparison(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext names(n)", "int early(n)")
	insertFacts(t, db, `names@local("alice");`, `names@local("zoe");`)
	prog, err := e.CompileProgram(mustRules(t,
		`early@local($n) :- names@local($n), lt@builtin($n, "m");`,
	))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	if got := relContents(db, "early", "local"); len(got) != 1 || got[0] != "(alice)" {
		t.Errorf("early = %v", got)
	}
}

func TestBuiltinInequalityJoin(t *testing.T) {
	// Self-join with neq: distinct pairs.
	e, db := testEnv(t, DefaultOptions(), "ext item(x)", "int pair(a,b)")
	insertFacts(t, db, `item@local("a");`, `item@local("b");`, `item@local("c");`)
	prog, err := e.CompileProgram(mustRules(t,
		`pair@local($x,$y) :- item@local($x), item@local($y), neq@builtin($x,$y);`,
	))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	if got := db.Get("pair", "local").Len(); got != 6 {
		t.Errorf("pairs = %d, want 6", got)
	}
}

func TestBuiltinSafetyChecks(t *testing.T) {
	cases := []string{
		`out@local($x) :- lt@builtin($x, 5), in@local($x);`, // unbound var in builtin
		`out@local($x) :- in@local($x), frob@builtin($x);`,  // unknown predicate
		`out@local($x) :- in@local($x), $p@builtin($x, 1);`, // variable predicate name
		`lt@builtin($x, 1) :- in@local($x);`,                // builtin head
	}
	for _, src := range cases {
		r, err := parser.ParseRule(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if err := CheckSafety(r); err == nil {
			t.Errorf("rule %q accepted, want safety error", src)
		}
	}
}

func TestBuiltinWrongArityRuntimeError(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext in(x)", "int out(x)")
	insertFacts(t, db, `in@local("v");`)
	// Arity is validated at run time (the compiled form allows any arity).
	prog, err := e.CompileProgram(mustRules(t,
		`out@local($x) :- in@local($x), lt@builtin($x, $x, $x);`,
	))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	if len(res.Errors) == 0 {
		t.Error("expected arity error from builtin")
	}
}

func TestBuiltinInDelegatedResidual(t *testing.T) {
	// A builtin after a remote atom travels inside the residual rule and is
	// evaluated at the delegate.
	e, db := testEnv(t, DefaultOptions(), "ext sel(p)")
	insertFacts(t, db, `sel@local("remote");`)
	prog, err := e.CompileProgram(mustRules(t,
		`view@local($id) :- sel@local($p), rate@$p($id,$s), ge@builtin($s,4);`,
	))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	rules := delegations(t, res)["r1"]["remote"]
	if len(rules) != 1 {
		t.Fatalf("delegations = %v", delegations(t, res))
	}
	want := `view@local($id) :- rate@remote($id, $s), ge@builtin($s, 4)`
	if got := rules[0].String(); got != want {
		t.Errorf("residual = %q, want %q", got, want)
	}
}
