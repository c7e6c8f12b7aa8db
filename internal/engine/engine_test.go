package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/store"
	"repro/internal/value"
)

// testEnv builds a store + engine for peer "local" with the given
// declarations ("ext name(cols…)" / "int name(cols…)") applied at local.
func testEnv(t *testing.T, opts Options, decls ...string) (*Engine, *store.Store) {
	t.Helper()
	db := store.New()
	for _, d := range decls {
		parts := strings.Fields(d)
		if len(parts) != 2 {
			t.Fatalf("bad decl %q", d)
		}
		kind := ast.Extensional
		if parts[0] == "int" {
			kind = ast.Intensional
		}
		open := strings.Index(parts[1], "(")
		name := parts[1][:open]
		colsStr := strings.TrimSuffix(parts[1][open+1:], ")")
		var cols []string
		if colsStr != "" {
			cols = strings.Split(colsStr, ",")
		}
		if _, err := db.Declare(store.Schema{Name: name, Peer: "local", Kind: kind, Cols: cols}); err != nil {
			t.Fatalf("declare %s: %v", d, err)
		}
	}
	return New("local", db, opts), db
}

func mustRules(t *testing.T, srcs ...string) []ast.Rule {
	t.Helper()
	out := make([]ast.Rule, len(srcs))
	for i, src := range srcs {
		r, err := parser.ParseRule(src)
		if err != nil {
			t.Fatalf("parse rule %q: %v", src, err)
		}
		r.ID = fmt.Sprintf("r%d", i+1)
		out[i] = r
	}
	return out
}

func insertFacts(t *testing.T, db *store.Store, facts ...string) {
	t.Helper()
	for _, src := range facts {
		f, err := parser.ParseFact(src)
		if err != nil {
			t.Fatalf("parse fact %q: %v", src, err)
		}
		rel := db.Get(f.Rel, f.Peer)
		if rel == nil {
			t.Fatalf("fact %q: relation not declared", src)
		}
		rel.Insert(f.Args)
	}
}

func relContents(db *store.Store, name, peer string) []string {
	rel := db.Get(name, peer)
	if rel == nil {
		return nil
	}
	var out []string
	for _, tp := range rel.Tuples() {
		out = append(out, tp.String())
	}
	return out
}

func checkNoErrors(t *testing.T, res *Result) {
	t.Helper()
	for _, err := range res.Errors {
		t.Errorf("stage error: %v", err)
	}
}

func TestTransitiveClosure(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext edge(a,b)", "int tc(a,b)")
	insertFacts(t, db,
		`edge@local("a","b");`, `edge@local("b","c");`,
		`edge@local("c","d");`, `edge@local("d","e");`)
	prog, err := e.CompileProgram(mustRules(t,
		`tc@local($x,$y) :- edge@local($x,$y);`,
		`tc@local($x,$z) :- tc@local($x,$y), edge@local($y,$z);`,
	))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	if got, want := res.Derived, 10; got != want {
		t.Errorf("derived %d tc facts, want %d", got, want)
	}
	if db.Get("tc", "local").Len() != 10 {
		t.Errorf("tc has %d tuples, want 10", db.Get("tc", "local").Len())
	}
	if !db.Get("tc", "local").Contains(value.Tuple{value.Str("a"), value.Str("e")}) {
		t.Errorf("tc missing (a,e)")
	}
}

// TestSemiNaiveMatchesNaiveReferenceOnLongChain: production's delta-driven
// fixpoint and the reference's naive one derive the same facts the same
// number of times on a 30-edge chain.
func TestSemiNaiveMatchesNaiveReferenceOnLongChain(t *testing.T) {
	build := func(run func(*Engine, *Program) *Result) (*Result, *store.Store) {
		e, db := testEnv(t, DefaultOptions(), "ext edge(a,b)", "int tc(a,b)")
		for i := 0; i < 30; i++ {
			db.Get("edge", "local").Insert(value.Tuple{value.Int(int64(i)), value.Int(int64(i + 1))})
		}
		prog, err := e.CompileProgram(mustRules(t,
			`tc@local($x,$y) :- edge@local($x,$y);`,
			`tc@local($x,$z) :- tc@local($x,$y), edge@local($y,$z);`,
		))
		if err != nil {
			t.Fatal(err)
		}
		return run(e, prog), db
	}
	resS, dbS := build((*Engine).RunStage)
	resN, dbN := build(referenceStage)
	if resS.Derived != resN.Derived {
		t.Errorf("semi-naive derived %d, naive reference derived %d", resS.Derived, resN.Derived)
	}
	if got, want := dbS.Get("tc", "local").Len(), 30*31/2; got != want {
		t.Errorf("tc size %d, want %d", got, want)
	}
	if dbS.Get("tc", "local").Len() != dbN.Get("tc", "local").Len() {
		t.Errorf("result sets differ")
	}
}

func TestLocalExtensionalHeadIsBufferedUpdate(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext src(x)", "ext dst(x)")
	insertFacts(t, db, `src@local("v");`)
	prog, err := e.CompileProgram(mustRules(t, `dst@local($x) :- src@local($x);`))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	if db.Get("dst", "local").Len() != 0 {
		t.Errorf("dst must not be updated within the stage")
	}
	if len(res.LocalUpdates) != 1 || res.LocalUpdates[0].Op != ast.Derive {
		t.Fatalf("LocalUpdates = %v, want one insert", res.LocalUpdates)
	}
	if got := res.LocalUpdates[0].Fact.String(); got != `dst@local("v")` {
		t.Errorf("update fact = %s", got)
	}
}

func TestDeletionRule(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext kill(x)", "ext data(x)")
	insertFacts(t, db, `kill@local("a");`, `data@local("a");`, `data@local("b");`)
	prog, err := e.CompileProgram(mustRules(t, `-data@local($x) :- kill@local($x);`))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	if len(res.LocalUpdates) != 1 || res.LocalUpdates[0].Op != ast.Delete {
		t.Fatalf("LocalUpdates = %v, want one delete", res.LocalUpdates)
	}
}

func TestRemoteHeadBecomesMessage(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext src(x)")
	insertFacts(t, db, `src@local("v1");`, `src@local("v2");`)
	prog, err := e.CompileProgram(mustRules(t, `sink@remote($x) :- src@local($x);`))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	if got := len(res.Remote["remote"]); got != 2 {
		t.Fatalf("remote facts = %d, want 2", got)
	}
}

func TestVariablePeerHeadRoutesPerTuple(t *testing.T) {
	// The paper's transfer rule shape: the head peer comes from the data.
	e, db := testEnv(t, DefaultOptions(), "ext target(p)", "ext item(x)")
	insertFacts(t, db, `target@local("alice");`, `target@local("bob");`, `item@local("photo");`)
	prog, err := e.CompileProgram(mustRules(t,
		`inbox@$p($x) :- target@local($p), item@local($x);`))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	if len(res.Remote["alice"]) != 1 || len(res.Remote["bob"]) != 1 {
		t.Fatalf("Remote = %v, want 1 fact each to alice and bob", res.Remote)
	}
}

func TestVariableRelationInBody(t *testing.T) {
	// Variable relation name bound by data, as in the paper's
	// $protocol@$attendee(...) pattern.
	e, db := testEnv(t, DefaultOptions(), "ext which(r)", "ext email(x)", "ext wepic(x)", "int got(x)")
	insertFacts(t, db, `which@local("email");`, `email@local("m1");`, `wepic@local("w1");`)
	prog, err := e.CompileProgram(mustRules(t,
		`got@local($x) :- which@local($r), $r@local($x);`))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	if got := relContents(db, "got", "local"); len(got) != 1 || got[0] != "(m1)" {
		t.Errorf("got = %v, want [(m1)]", got)
	}
}

func TestDelegationSplit(t *testing.T) {
	// Exactly the paper's §2 example: with selectedAttendee@local("emilien"),
	// the rule delegates `attendeePictures@local(...) :- pictures@emilien(...)`
	// to emilien.
	e, db := testEnv(t, DefaultOptions(), "ext selectedAttendee(a)", "int attendeePictures(id,name,owner,data)")
	insertFacts(t, db, `selectedAttendee@local("emilien");`)
	prog, err := e.CompileProgram(mustRules(t,
		`attendeePictures@local($id,$name,$owner,$data) :- selectedAttendee@local($attendee), pictures@$attendee($id,$name,$owner,$data);`))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	byTarget := res.Delegations["r1"]
	if byTarget == nil {
		t.Fatal("no delegations for r1")
	}
	rules := byTarget["emilien"]
	if len(rules) != 1 {
		t.Fatalf("delegated %d rules to emilien, want 1", len(rules))
	}
	want := `attendeePictures@local($id, $name, $owner, $data) :- pictures@emilien($id, $name, $owner, $data)`
	if got := rules[0].String(); got != want {
		t.Errorf("residual = %q, want %q", got, want)
	}
	if rules[0].Origin != "local" {
		t.Errorf("residual origin = %q, want local", rules[0].Origin)
	}

	// Retract the support: the delegation set for (r1, emilien) must be
	// recomputed as empty (the peer layer turns this into a withdrawal).
	db.Get("selectedAttendee", "local").Delete(value.Tuple{value.Str("emilien")})
	db.ClearIntensional()
	res = e.RunStage(prog)
	checkNoErrors(t, res)
	if len(res.Delegations["r1"]["emilien"]) != 0 {
		t.Errorf("delegations persist after support retracted: %v", res.Delegations)
	}
}

func TestDelegationPerValuation(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext selectedAttendee(a)", "int attendeePictures(id)")
	insertFacts(t, db, `selectedAttendee@local("emilien");`, `selectedAttendee@local("jules");`)
	prog, err := e.CompileProgram(mustRules(t,
		`attendeePictures@local($id) :- selectedAttendee@local($a), pictures@$a($id);`))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	if len(res.Delegations["r1"]) != 2 {
		t.Fatalf("delegation targets = %v, want emilien and jules", res.Delegations["r1"])
	}
}

func TestStratifiedNegation(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext all(x)", "ext bad(x)", "int good(x)")
	insertFacts(t, db, `all@local("a");`, `all@local("b");`, `bad@local("b");`)
	prog, err := e.CompileProgram(mustRules(t,
		`good@local($x) :- all@local($x), not bad@local($x);`))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	if got := relContents(db, "good", "local"); len(got) != 1 || got[0] != "(a)" {
		t.Errorf("good = %v, want [(a)]", got)
	}
}

func TestNegationOverDerivedRelation(t *testing.T) {
	// Two strata: reachable must be complete before unreachable is computed.
	e, db := testEnv(t, DefaultOptions(), "ext edge(a,b)", "ext node(x)", "int reach(x)", "int unreach(x)")
	insertFacts(t, db,
		`node@local("a");`, `node@local("b");`, `node@local("c");`, `node@local("z");`,
		`edge@local("a","b");`, `edge@local("b","c");`)
	prog, err := e.CompileProgram(mustRules(t,
		`reach@local("a") :- node@local("a");`,
		`reach@local($y) :- reach@local($x), edge@local($x,$y);`,
		`unreach@local($x) :- node@local($x), not reach@local($x);`,
	))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	if got := relContents(db, "unreach", "local"); len(got) != 1 || got[0] != "(z)" {
		t.Errorf("unreach = %v, want [(z)]", got)
	}
	if prog.Rules[2].Stratum <= prog.Rules[1].Stratum {
		t.Errorf("negation rule stratum %d must exceed recursion stratum %d",
			prog.Rules[2].Stratum, prog.Rules[1].Stratum)
	}
}

func TestUnstratifiableRejected(t *testing.T) {
	e, _ := testEnv(t, DefaultOptions(), "int p(x)", "int q(x)", "ext base(x)")
	_, err := e.CompileProgram(mustRules(t,
		`p@local($x) :- base@local($x), not q@local($x);`,
		`q@local($x) :- base@local($x), not p@local($x);`,
	))
	if err == nil {
		t.Fatal("expected stratification error")
	}
	var stratErr *ErrNotStratifiable
	if !asErr(err, &stratErr) {
		t.Errorf("error %v is not ErrNotStratifiable", err)
	}
}

func TestUnsafeRulesRejected(t *testing.T) {
	cases := []string{
		`out@local($x,$y) :- in@local($x);`,                  // unbound head var
		`out@local($x) :- $r@local($x);`,                     // unbound relation var
		`out@local($x) :- in@$p($x);`,                        // unbound peer var
		`out@local($x) :- in@local($x), not miss@local($y);`, // unbound var in negation
		`out@local($x) :- not in@local($x), all@local($x);`,  // negation before binding
		`$r@local("x") :- in@local("y");`,                    // unbound head relation var
		`out@$p("x") :- in@local("y");`,                      // unbound head peer var
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

func TestIntensionalSeedsParticipate(t *testing.T) {
	// Facts pushed into an intensional relation before the stage (transient
	// facts received from remote peers) must feed the fixpoint.
	e, db := testEnv(t, DefaultOptions(), "int seed(x)", "int out(x)")
	db.Get("seed", "local").Insert(value.Tuple{value.Str("s")})
	prog, err := e.CompileProgram(mustRules(t, `out@local($x) :- seed@local($x);`))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	if got := relContents(db, "out", "local"); len(got) != 1 {
		t.Errorf("out = %v, want [(s)]", got)
	}
}

func TestAutoDeclareUnknownHead(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext src(x)")
	insertFacts(t, db, `src@local("v");`)
	prog, err := e.CompileProgram(mustRules(t, `fresh@local($x) :- src@local($x);`))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	rel := db.Get("fresh", "local")
	if rel == nil {
		t.Fatal("fresh not auto-declared")
	}
	if rel.Kind() != ast.Extensional {
		t.Errorf("auto-declared kind = %v, want extensional", rel.Kind())
	}
	if len(res.LocalUpdates) != 1 {
		t.Errorf("expected buffered update into auto-declared relation, got %v", res.LocalUpdates)
	}
}

func TestDeleteIntoIntensionalIsError(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext src(x)", "int view(x)")
	insertFacts(t, db, `src@local("v");`)
	prog, err := e.CompileProgram(mustRules(t, `-view@local($x) :- src@local($x);`))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	if len(res.Errors) == 0 {
		t.Error("expected a runtime error for deletion into intensional relation")
	}
}

func TestArityMismatchCollected(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext src(x)", "int view(a,b)")
	insertFacts(t, db, `src@local("v");`)
	prog, err := e.CompileProgram(mustRules(t, `view@local($x) :- src@local($x);`))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	if len(res.Errors) == 0 {
		t.Error("expected arity mismatch error")
	}
}

func TestJoinWithConstants(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext rate(id,score)", "int top(id)")
	insertFacts(t, db, `rate@local("p1",5);`, `rate@local("p2",3);`, `rate@local("p3",5);`)
	prog, err := e.CompileProgram(mustRules(t, `top@local($id) :- rate@local($id,5);`))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	got := relContents(db, "top", "local")
	if len(got) != 2 {
		t.Errorf("top = %v, want p1 and p3", got)
	}
}

func TestSelfJoin(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext edge(a,b)", "int twohop(a,c)")
	insertFacts(t, db, `edge@local("a","b");`, `edge@local("b","c");`, `edge@local("c","d");`)
	prog, err := e.CompileProgram(mustRules(t,
		`twohop@local($x,$z) :- edge@local($x,$y), edge@local($y,$z);`))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	checkNoErrors(t, res)
	got := relContents(db, "twohop", "local")
	if len(got) != 2 || got[0] != "(a, c)" || got[1] != "(b, d)" {
		t.Errorf("twohop = %v, want [(a, c) (b, d)]", got)
	}
}

// TestTracerSeesSupports: Why reports a derived fact's rule with one support
// per positive body atom.
func TestTracerSeesSupports(t *testing.T) {
	e, prog := whyEnv(t, []string{"ext a(x)", "ext b(x)", "int both(x)"},
		[]string{`a@local("v");`, `b@local("v");`},
		[]string{`both@local($x) :- a@local($x), b@local($x);`})
	got := e.Why(prog, mustFact(t, `both@local("v");`))
	if len(got) != 1 || got[0].RuleID != "r1" || len(got[0].Supports) != 2 {
		t.Errorf("Why(both(v)) = %v, want one derivation by r1 from 2 supports", whyLines(got))
	}
}

func asErr[T error](err error, target *T) bool {
	for err != nil {
		if e, ok := err.(T); ok {
			*target = e
			return true
		}
		type unwrapper interface{ Unwrap() error }
		type unwrapperMulti interface{ Unwrap() []error }
		switch u := err.(type) {
		case unwrapper:
			err = u.Unwrap()
		case unwrapperMulti:
			for _, sub := range u.Unwrap() {
				if asErr(sub, target) {
					return true
				}
			}
			return false
		default:
			return false
		}
	}
	return false
}
