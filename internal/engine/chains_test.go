package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"weak"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// Compiled chains outlive the stage (compiledFor): these tests pin when a
// later stage reuses a chain and when it must compile a new one. They turn
// the collector off, so the weakly held chains survive between stages
// deterministically.

func noGC(t testing.TB) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// compileCount returns the engine's lifetime chain compiles and reuses.
func compileCount(e *Engine) (compiles, hits uint64) {
	compiles, hits, _ = e.CompiledStats()
	return compiles, hits
}

func intFact(rel string, vs ...int64) ast.Fact {
	args := make([]value.Value, len(vs))
	for i, v := range vs {
		args[i] = value.Int(v)
	}
	return ast.NewFact(rel, "local", args...)
}

// TestChainsReusedAcrossStages: a stage that plans what an earlier stage
// planned compiles nothing — insert and delete stages alike.
func TestChainsReusedAcrossStages(t *testing.T) {
	noGC(t)
	h := newIncrHarness(t, []string{"ext e(a,b)", "int p(a,b)"}, mustRules(t,
		`p@local($x, $z) :- e@local($x, $y), e@local($y, $z);`))
	h.step([]ast.Fact{intFact("e", 1, 2)}, nil)
	h.step(nil, []ast.Fact{intFact("e", 1, 2)})
	compiles, hits := compileCount(h.e)
	h.step([]ast.Fact{intFact("e", 2, 3)}, nil)
	h.step(nil, []ast.Fact{intFact("e", 2, 3)})
	if c, hh := compileCount(h.e); c != compiles || hh <= hits {
		t.Fatalf("second insert and delete stage: compiles %d -> %d, hits %d -> %d; want no compile and more hits", compiles, c, hits, hh)
	}
}

// TestChainsRecompiledOnDeclaration: an atom over an undeclared relation
// compiles to a dead step, and the dynamic step memoizes one; once the
// relation is declared, the event rules evaluated in full every stage
// derive from it.
func TestChainsRecompiledOnDeclaration(t *testing.T) {
	noGC(t)
	h := newIncrHarness(t, []string{"ext e(a)", "ext which(r)", "int v(a)"}, mustRules(t,
		`out@local($x) :- e@local($x), late@local($x);`,
		`dyn@local($x) :- which@local($r), $r@local($x);`))
	h.step([]ast.Fact{intFact("e", 1), ast.NewFact("which", "local", value.Str("late"))}, nil)
	compiles, _ := compileCount(h.e)
	if _, err := h.db.Declare(store.Schema{Name: "late", Peer: "local", Kind: ast.Extensional, Cols: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	res := h.step([]ast.Fact{intFact("late", 1)}, nil)
	var got []string
	for _, op := range res.LocalUpdates {
		got = append(got, op.String())
	}
	if want := []string{`+out@local(1)`, `+dyn@local(1)`}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after declaring late: updates %v, want %v", got, want)
	}
	if c, _ := compileCount(h.e); c == compiles {
		t.Fatal("a declaration in the store compiled no chain")
	}
}

// TestChainsRecompiledOnReclassification: a rule shared by two programs is
// reclassified when its head's relation turns out intensional; the second
// program's stage must not run the chains compiled for the event rule it
// was. CompileRules compiles every rule afresh, so only a program built
// around a rule compiled earlier shares one: the chain set's classification
// check keeps that safe.
func TestChainsRecompiledOnReclassification(t *testing.T) {
	noGC(t)
	e, db := testEnv(t, DefaultOptions(), "ext e(a)")
	rv := NewRemoteView()
	cr, err := e.CompileRule(mustRules(t, `v@local($x) :- e@local($x);`)[0])
	if err != nil {
		t.Fatal(err)
	}
	share := func() *Program {
		prog := &Program{Rules: []*CompiledRule{cr}}
		if err := e.stratify(prog); err != nil {
			t.Fatal(err)
		}
		e.classify(prog)
		return prog
	}
	progA := share()
	if !cr.Event {
		t.Fatal("a head over an undeclared relation must classify as an event rule")
	}
	checkNoErrors(t, e.RunStageIncremental(progA, nil, rv))
	if _, err := db.Declare(store.Schema{Name: "v", Peer: "local", Kind: ast.Intensional, Cols: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	checkNoErrors(t, e.RunStageIncremental(progA, &StageInput{}, rv))
	evalChain := func() *execProg {
		for _, ep := range cr.chains.Value().progs {
			if ep.kind == kindEval && ep.deltaPos == -1 {
				return ep
			}
		}
		return nil
	}
	old := evalChain()
	progB := share()
	if cr.Event || !cr.MaybeView {
		t.Fatal("the shared rule was not reclassified as a view rule")
	}
	db.Get("e", "local").Insert(value.Tuple{value.Int(1)})
	res := e.RunStageIncremental(progB, &StageInput{Ins: map[string][]value.Tuple{"e@local": {{value.Int(1)}}}}, rv)
	checkNoErrors(t, res)
	if ep := evalChain(); old == nil || ep == old {
		t.Fatal("the reclassified rule ran the full-evaluation chain compiled for its old class")
	}
	if got := relContents(db, "v", "local"); !reflect.DeepEqual(got, []string{"(1)"}) {
		t.Fatalf("v = %v, want [(1)]", got)
	}
	if len(res.LocalUpdates) != 0 {
		t.Fatalf("a view rule buffered updates: %v", res.LocalUpdates)
	}
}

// TestChainsFollowJoinOrder: a cardinality flip that changes the order the
// planner picks for a delta walk compiles a new chain, and the view still
// matches the reference evaluator's.
func TestChainsFollowJoinOrder(t *testing.T) {
	noGC(t)
	decls := []string{"ext a(x,y)", "ext b(y,z)", "ext c(z)", "int v(x,z)"}
	rules := mustRules(t, `v@local($x, $z) :- a@local($x, $y), b@local($y, $z), c@local($z);`)
	h := newIncrHarness(t, decls, rules)
	ref, refDB := testEnv(t, DefaultOptions(), decls...)
	refProg, err := ref.CompileProgram(rules)
	if err != nil {
		t.Fatal(err)
	}
	step := func(ins ...ast.Fact) {
		t.Helper()
		h.step(ins, nil)
		for _, f := range ins {
			refDB.Get(f.Rel, f.Peer).Insert(f.Args)
		}
		refRes := referenceStage(ref, refProg)
		if got, want := relContents(h.db, "v", "local"), relContents(refDB, "v", "local"); !sameKeySet(got, want) {
			t.Fatalf("v = %v, reference %v", got, want)
		}
		checkNoErrors(t, refRes)
	}
	order := func() []int { return h.e.stage(nil).planner.orderFor(h.prog.Rules[0], 0) }

	var b []ast.Fact
	for z := int64(0); z < 100; z++ {
		b = append(b, intFact("b", 1, z))
	}
	step(append(b, intFact("c", 5))...)
	step(intFact("a", 0, 1))
	before := order()
	compiles, _ := compileCount(h.e)
	step(intFact("a", 2, 1))
	if c, _ := compileCount(h.e); c != compiles {
		t.Fatalf("same plan: compiles %d -> %d, want none", compiles, c)
	}
	var cs []ast.Fact
	for z := int64(0); z < 200; z++ {
		cs = append(cs, intFact("c", z))
	}
	step(cs...)
	after := order()
	if reflect.DeepEqual(before, after) {
		t.Fatalf("the cardinality flip kept the order %v: the test exercises nothing", before)
	}
	compiles, _ = compileCount(h.e)
	step(intFact("a", 3, 1))
	if c, _ := compileCount(h.e); c == compiles {
		t.Fatalf("order %v -> %v compiled no new chain", before, after)
	}
}

// TestRederivableCostIndependentOfUnrelatedRules: a delete stage at a view
// allocates the same with 500 view rules over other relations as with 10 —
// rederivation skips rules whose head cannot produce the fact.
func TestRederivableCostIndependentOfUnrelatedRules(t *testing.T) {
	noGC(t)
	perDelete := func(n int) float64 {
		decls := []string{"ext e(a,b)", "int v(a,b)"}
		srcs := []string{`v@local($x, $y) :- e@local($x, $y);`, `v@local($x, $y) :- e@local($y, $x);`}
		for i := 0; i < n; i++ {
			decls = append(decls, fmt.Sprintf("ext f%d(a,b)", i), fmt.Sprintf("int u%d(a,b)", i))
			srcs = append(srcs, fmt.Sprintf(`u%d@local($x, $y) :- f%d@local($x, $y);`, i, i))
		}
		h := newIncrHarness(t, decls, mustRules(t, srcs...))
		const stages = 50
		var ms runtime.MemStats
		var mallocs uint64
		for i := int64(0); i < stages; i++ {
			f := intFact("e", i, i+1)
			h.step([]ast.Fact{f}, nil)
			h.db.Get("e", "local").Delete(f.Args)
			in := &StageInput{Del: map[string][]value.Tuple{"e@local": {f.Args}}}
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			res := h.e.RunStageIncremental(h.prog, in, h.rv)
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - before
			if res.Retracted != 2 {
				t.Fatalf("delete stage retracted %d view facts, want 2", res.Retracted)
			}
		}
		return float64(mallocs) / stages
	}
	few, many := perDelete(10), perDelete(500)
	t.Logf("allocations per delete stage: %.0f with 10 unrelated rules, %.0f with 500", few, many)
	if many > 1.2*few {
		t.Fatalf("delete stage: %.0f allocations with 500 unrelated view rules, %.0f with 10 (limit 1.2x)", many, few)
	}
}

// TestIdleChainsCollected: a peer that is not running a stage holds no
// compiled chains — the rules hold them weakly. After an insert and a
// delete stage on each of 1 000 engines of four swarm-shaped remote view
// rules, a collection leaves at most 200 B per rule that dropping the
// rules' chain pointers would free.
func TestIdleChainsCollected(t *testing.T) {
	const peers, fanout = 1000, 4
	type world struct {
		e    *Engine
		prog *Program
		rv   *RemoteView
	}
	worlds := make([]world, peers)
	for i := range worlds {
		name := fmt.Sprintf("p%04d", i)
		db := store.New()
		if _, err := db.Declare(store.Schema{Name: "post", Peer: name, Kind: ast.Extensional, Cols: []string{"id"}}); err != nil {
			t.Fatal(err)
		}
		e := New(name, db, DefaultOptions())
		var srcs []string
		for k := 1; k <= fanout; k++ {
			srcs = append(srcs, fmt.Sprintf(`feed@p%04d(%q, $i) :- post@%s($i);`, (i+k)%peers, name, name))
		}
		prog, err := e.CompileProgram(mustRules(t, srcs...))
		if err != nil {
			t.Fatal(err)
		}
		w := world{e: e, prog: prog, rv: NewRemoteView()}
		e.RunStageIncremental(prog, nil, w.rv)
		post := value.Tuple{value.Str("hello")}
		db.Get("post", name).Insert(post)
		for _, in := range []*StageInput{
			{Ins: map[string][]value.Tuple{"post@" + name: {post}}},
			{Del: map[string][]value.Tuple{"post@" + name: {post}}},
		} {
			if in.Del != nil {
				db.Get("post", name).Delete(post)
			}
			if res := e.RunStageIncremental(prog, in, w.rv); len(res.RemoteOut) != fanout {
				t.Fatalf("stage shipped to %d peers, want %d", len(res.RemoteOut), fanout)
			}
		}
		worlds[i] = w
	}
	if c, _ := compileCount(worlds[0].e); c == 0 {
		t.Fatal("no chain compiled")
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	held := heap()
	for _, w := range worlds {
		for _, cr := range w.prog.Rules {
			cr.chains = weak.Pointer[ruleChains]{}
		}
	}
	freed := float64(held) - float64(heap())
	perRule := freed / (peers * fanout)
	t.Logf("chain state held by idle engines: %.0f B per rule", perRule)
	if perRule > 200 {
		t.Fatalf("idle engines hold %.0f B of chain state per rule, want <= 200", perRule)
	}
	runtime.KeepAlive(worlds)
}
