package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// incrHarness drives an engine in incremental mode the way a peer would:
// one full materialization, then delta stages.
type incrHarness struct {
	t    *testing.T
	e    *Engine
	db   *store.Store
	prog *Program
	rv   *RemoteView
}

func newIncrHarness(t *testing.T, decls []string, rules []ast.Rule) *incrHarness {
	t.Helper()
	e, db := testEnv(t, DefaultOptions(), decls...)
	prog, err := e.CompileProgram(rules)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if !prog.Incremental {
		t.Fatalf("program unexpectedly not incrementally maintainable")
	}
	h := &incrHarness{t: t, e: e, db: db, rv: NewRemoteView()}
	h.full(prog)
	return h
}

// full runs a RunStageFull rebuild of prog and makes it the harness's
// program, verifying the reported view deltas exactly as step does.
func (h *incrHarness) full(prog *Program) *Result {
	h.t.Helper()
	before := h.snapshotViews()
	res := h.e.RunStageFull(prog, nil, h.rv)
	checkNoErrors(h.t, res)
	h.checkViewDeltas(before, res)
	h.prog = prog
	return res
}

// step applies the given extensional inserts/deletes and runs one
// incremental stage, verifying that the reported view deltas match the
// actual before/after contents of every intensional relation.
func (h *incrHarness) step(ins, del []ast.Fact) *Result {
	h.t.Helper()
	before := h.snapshotViews()
	in := &StageInput{Ins: map[string][]value.Tuple{}, Del: map[string][]value.Tuple{}}
	for _, f := range ins {
		rel := h.db.Get(f.Rel, f.Peer)
		if rel.Insert(f.Args) {
			in.Ins[f.Rel+"@"+f.Peer] = append(in.Ins[f.Rel+"@"+f.Peer], f.Args)
		}
	}
	for _, f := range del {
		rel := h.db.Get(f.Rel, f.Peer)
		if rel.Delete(f.Args) {
			in.Del[f.Rel+"@"+f.Peer] = append(in.Del[f.Rel+"@"+f.Peer], f.Args)
		}
	}
	res := h.e.RunStageIncremental(h.prog, in, h.rv)
	checkNoErrors(h.t, res)
	h.checkViewDeltas(before, res)
	return res
}

// change makes prog the harness's program through an incremental stage with
// no base-fact change — the program delta against the previous program —
// verifying the reported view deltas exactly as step does.
func (h *incrHarness) change(prog *Program) *Result {
	h.prog = prog
	return h.step(nil, nil)
}

func (h *incrHarness) snapshotViews() map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, rel := range h.db.RelationsOf("local") {
		if rel.Kind() != ast.Intensional {
			continue
		}
		m := map[string]bool{}
		for _, t := range rel.Tuples() {
			m[t.Key()] = true
		}
		out[rel.Schema().ID()] = m
	}
	return out
}

// checkViewDeltas asserts Result.Views is exactly the symmetric difference
// of the before/after view contents.
func (h *incrHarness) checkViewDeltas(before map[string]map[string]bool, res *Result) {
	h.t.Helper()
	after := h.snapshotViews()
	for relID, b := range before {
		a := after[relID]
		var wantIns, wantDel []string
		for k := range a {
			if !b[k] {
				wantIns = append(wantIns, k)
			}
		}
		for k := range b {
			if !a[k] {
				wantDel = append(wantDel, k)
			}
		}
		var gotIns, gotDel []string
		if vd := res.Views[relID]; vd != nil {
			for _, t := range vd.Ins {
				gotIns = append(gotIns, t.Key())
			}
			for _, t := range vd.Del {
				gotDel = append(gotDel, t.Key())
			}
		}
		if !sameKeySet(wantIns, gotIns) || !sameKeySet(wantDel, gotDel) {
			h.t.Errorf("view delta mismatch for %s: got +%v -%v, want +%v -%v",
				relID, gotIns, gotDel, wantIns, wantDel)
		}
	}
}

func sameKeySet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]int{}
	for _, k := range a {
		m[k]++
	}
	for _, k := range b {
		m[k]--
		if m[k] < 0 {
			return false
		}
	}
	return true
}

func tcRules(t *testing.T) []ast.Rule {
	return mustRules(t,
		`tc@local($x,$y) :- edge@local($x,$y);`,
		`tc@local($x,$z) :- tc@local($x,$y), edge@local($y,$z);`,
	)
}

func edge(a, b string) ast.Fact {
	return ast.NewFact("edge", "local", value.Str(a), value.Str(b))
}

// TestIncrementalInsertMatchesRecompute: feeding inserts as deltas reaches
// the same fixpoint as recomputing from scratch.
func TestIncrementalInsertMatchesRecompute(t *testing.T) {
	h := newIncrHarness(t, []string{"ext edge(a,b)", "int tc(a,b)"}, tcRules(t))
	h.step([]ast.Fact{edge("a", "b"), edge("b", "c")}, nil)
	h.step([]ast.Fact{edge("c", "d")}, nil)
	if got := relContents(h.db, "tc", "local"); len(got) != 6 {
		t.Errorf("tc = %v, want 6 tuples", got)
	}
}

// TestFullStageReportsViewDeltas: a rebuild reports the exact net change to
// every view, like an incremental stage — on a first stage over existing
// base facts, across program changes in both directions, and (as nothing)
// on a rebuild that ends where it started.
func TestFullStageReportsViewDeltas(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext edge(a,b)", "int tc(a,b)")
	for _, f := range []ast.Fact{edge("a", "b"), edge("b", "c"), edge("c", "d")} {
		db.Get(f.Rel, f.Peer).Insert(f.Args)
	}
	compile := func(rules []ast.Rule) *Program {
		prog, err := e.CompileProgram(rules)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return prog
	}
	count := func(res *Result) (ins, del int) {
		if vd := res.Views["tc@local"]; vd != nil {
			return len(vd.Ins), len(vd.Del)
		}
		return 0, 0
	}
	h := &incrHarness{t: t, e: e, db: db, rv: NewRemoteView()}
	if ins, del := count(h.full(compile(tcRules(t)))); ins != 6 || del != 0 {
		t.Fatalf("first stage reported +%d -%d, want +6 -0", ins, del)
	}
	h.step([]ast.Fact{edge("d", "e")}, nil)
	// Dropping the recursive rule leaves the four direct edges.
	if ins, del := count(h.full(compile(tcRules(t)[:1]))); ins != 0 || del != 6 {
		t.Fatalf("program change reported +%d -%d, want +0 -6", ins, del)
	}
	if ins, del := count(h.full(compile(tcRules(t)))); ins != 6 || del != 0 {
		t.Fatalf("restoring the closure reported +%d -%d, want +6 -0", ins, del)
	}
	if res := h.full(h.prog); res.Views != nil {
		t.Fatalf("an unchanged rebuild reported %v", res.Views)
	}
}

// TestProgramDeltaReportsViewDeltas: the first stage is the delta from the
// empty program, and a program change is maintained, not rebuilt: removing a
// rule retracts exactly what only it derived, adding one derives exactly
// what is new, and a recompilation that renumbers and reorders the same
// rules derives and retracts nothing.
func TestProgramDeltaReportsViewDeltas(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext edge(a,b)", "int tc(a,b)")
	for _, f := range []ast.Fact{edge("a", "b"), edge("b", "c"), edge("c", "d")} {
		db.Get(f.Rel, f.Peer).Insert(f.Args)
	}
	renumbered := tcRules(t)
	renumbered[0], renumbered[1] = renumbered[1], renumbered[0]
	h := &incrHarness{t: t, e: e, db: db, rv: NewRemoteView()}
	for i, c := range []struct {
		rules                    []ast.Rule
		ins, del, derived, retra int
	}{
		{tcRules(t), 6, 0, 6, 0},     // first stage
		{tcRules(t)[:1], 0, 3, 0, 3}, // drop the recursive rule: the direct edges stay
		{tcRules(t), 3, 0, 3, 0},     // and back
		{renumbered, 0, 0, 0, 0},
	} {
		prog, err := e.CompileProgram(c.rules)
		if err != nil {
			t.Fatal(err)
		}
		res := h.change(prog)
		var ins, del int
		if vd := res.Views["tc@local"]; vd != nil {
			ins, del = len(vd.Ins), len(vd.Del)
		}
		if ins != c.ins || del != c.del || res.Derived != c.derived || res.Retracted != c.retra {
			t.Fatalf("change %d: +%d -%d, derived %d, retracted %d; want +%d -%d, derived %d, retracted %d",
				i, ins, del, res.Derived, res.Retracted, c.ins, c.del, c.derived, c.retra)
		}
	}
}

// TestProgramDeltaLeavesOtherViewsAlone: adding a remote view rule and
// removing it again — a delegation arriving and being withdrawn — derives
// nothing into an unrelated view, and ships the rule's facts as maintained
// inserts, then as maintained deletes.
func TestProgramDeltaLeavesOtherViewsAlone(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext src(x)", "int big(x)", "ext pic(x)")
	for i := 0; i < 500; i++ {
		db.Get("src", "local").Insert(value.Tuple{value.Int(int64(i))})
	}
	db.Get("pic", "local").Insert(value.Tuple{value.Int(1)})
	db.Get("pic", "local").Insert(value.Tuple{value.Int(2)})
	compile := func(srcs ...string) *Program {
		prog, err := e.CompileProgram(mustRules(t, srcs...))
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	const big, album = `big@local($x) :- src@local($x);`, `album@far($x) :- pic@local($x);`
	h := &incrHarness{t: t, e: e, db: db, rv: NewRemoteView()}
	if res := h.change(compile(big)); res.Derived != 500 {
		t.Fatalf("first stage derived %d, want 500", res.Derived)
	}
	for _, c := range []struct {
		prog *Program
		op   ast.UpdateOp
	}{{compile(big, album), ast.Derive}, {compile(big), ast.Delete}} {
		res := h.change(c.prog)
		if res.Derived != 0 || res.Views != nil {
			t.Fatalf("program change derived %d into the views (%v), want 0", res.Derived, res.Views)
		}
		if ops := res.RemoteOut["far"]; len(ops) != 2 || ops[0].Op != c.op || !ops[0].Maint || ops[1].Op != c.op || !ops[1].Maint {
			t.Fatalf("RemoteOut = %v, want two maintained %v ops", ops, c.op)
		}
	}
}

// TestRemovedNegationRuleRetracts: a view rule with negation needs rebuilds,
// and a change that removes it goes back to maintenance. The removed rule's
// over-delete walk must let its negated atom pass: here the negated tuple
// arrives in the same stage, so a walk testing the atom against the current
// store would find no derivation to retract.
func TestRemovedNegationRuleRetracts(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext a(x)", "ext b(x)", "int v(x)")
	one := value.Tuple{value.Int(1)}
	db.Get("a", "local").Insert(one)
	old, err := e.CompileProgram(mustRules(t, `v@local($x) :- a@local($x), not b@local($x);`))
	if err != nil || old.Incremental {
		t.Fatalf("compile: %v (incremental %v, want a rebuild program)", err, old.Incremental)
	}
	rv := NewRemoteView()
	e.RunStageFull(old, nil, rv)
	next, err := e.CompileProgram(nil)
	if err != nil {
		t.Fatal(err)
	}
	db.Get("b", "local").Insert(one)
	res := e.RunStageIncremental(next, &StageInput{Ins: map[string][]value.Tuple{"b@local": {one}}}, rv)
	if n := db.Get("v", "local").Len(); n != 0 || res.Retracted != 1 {
		t.Fatalf("v holds %d tuples after its only rule went, retracted %d; want 0 and 1", n, res.Retracted)
	}
}

// TestIncrementalDeleteCascades: deleting a base fact retracts every derived
// fact that transitively lost its only derivation.
func TestIncrementalDeleteCascades(t *testing.T) {
	h := newIncrHarness(t, []string{"ext edge(a,b)", "int tc(a,b)"}, tcRules(t))
	h.step([]ast.Fact{edge("a", "b"), edge("b", "c"), edge("c", "d")}, nil)
	res := h.step(nil, []ast.Fact{edge("b", "c")})
	if res.Retracted != 4 { // (b,c), (a,c), (b,d), (a,d)
		t.Errorf("retracted %d, want 4", res.Retracted)
	}
	got := relContents(h.db, "tc", "local")
	if len(got) != 2 { // (a,b), (c,d)
		t.Errorf("tc after delete = %v, want [(a, b) (c, d)]", got)
	}
}

// TestIncrementalAlternativeDerivationSurvives: a tuple with two derivations
// loses one support and stays; losing the second removes it.
func TestIncrementalAlternativeDerivationSurvives(t *testing.T) {
	h := newIncrHarness(t,
		[]string{"ext a(x)", "ext b(x)", "int both(x)"},
		mustRules(t,
			`both@local($x) :- a@local($x);`,
			`both@local($x) :- b@local($x);`,
		))
	av := ast.NewFact("a", "local", value.Str("v"))
	bv := ast.NewFact("b", "local", value.Str("v"))
	h.step([]ast.Fact{av, bv}, nil)
	res := h.step(nil, []ast.Fact{av})
	if res.Retracted != 0 {
		t.Errorf("retracted %d, want 0: the b-derivation still stands", res.Retracted)
	}
	if got := relContents(h.db, "both", "local"); len(got) != 1 {
		t.Fatalf("both = %v, want [(v)]", got)
	}
	res = h.step(nil, []ast.Fact{bv})
	if res.Retracted != 1 {
		t.Errorf("retracted %d, want 1", res.Retracted)
	}
	if got := relContents(h.db, "both", "local"); len(got) != 0 {
		t.Errorf("both = %v, want empty", got)
	}
}

// TestIncrementalDeleteWithCycle: mutual recursive support (a→b→a) must not
// keep tuples alive after the base support is gone — the over-delete /
// rederive pass handles what pure counting cannot.
func TestIncrementalDeleteWithCycle(t *testing.T) {
	h := newIncrHarness(t, []string{"ext edge(a,b)", "int tc(a,b)"}, tcRules(t))
	h.step([]ast.Fact{edge("a", "b"), edge("b", "a")}, nil)
	if got := relContents(h.db, "tc", "local"); len(got) != 4 {
		t.Fatalf("tc = %v, want 4 tuples on the 2-cycle", got)
	}
	h.step(nil, []ast.Fact{edge("a", "b")})
	got := relContents(h.db, "tc", "local")
	if len(got) != 1 || got[0] != "(b, a)" {
		t.Errorf("tc after breaking the cycle = %v, want [(b, a)]", got)
	}
}

// TestIncrementalDeleteThenReinsertSameStage: a batch that deletes one
// support and inserts another nets out correctly.
func TestIncrementalDeleteThenReinsertSameStage(t *testing.T) {
	h := newIncrHarness(t, []string{"ext edge(a,b)", "int tc(a,b)"}, tcRules(t))
	h.step([]ast.Fact{edge("a", "b"), edge("b", "c")}, nil)
	// Replace b->c by a parallel path b->c (same tuple deleted and a fresh
	// edge d->c inserted): (a,c) must survive only through what remains.
	res := h.step([]ast.Fact{edge("a", "c")}, []ast.Fact{edge("b", "c")})
	_ = res
	got := relContents(h.db, "tc", "local")
	// Remaining edges: a->b, a->c. tc = {(a,b), (a,c)}.
	if len(got) != 2 || got[0] != "(a, b)" || got[1] != "(a, c)" {
		t.Errorf("tc = %v, want [(a, b) (a, c)]", got)
	}
}

// TestCandidateWithLocalDerivationSurvives: a deletion candidate (a tuple
// whose external support vanished) must be restored by the rederivation
// pass when a local rule still derives it — and must go when it does not.
func TestCandidateWithLocalDerivationSurvives(t *testing.T) {
	h := newIncrHarness(t,
		[]string{"ext base(x)", "int v(x)"},
		mustRules(t, `v@local($x) :- base@local($x);`))
	h.step([]ast.Fact{ast.NewFact("base", "local", value.Int(1))}, nil)

	// Support lost, but base(1) still derives v(1): the candidate survives.
	in := &StageInput{Cand: map[string][]value.Tuple{"v@local": {{value.Int(1)}}}}
	res := h.e.RunStageIncremental(h.prog, in, h.rv)
	checkNoErrors(t, res)
	if res.Retracted != 0 {
		t.Errorf("retracted %d, want 0: the local derivation still stands", res.Retracted)
	}
	if got := relContents(h.db, "v", "local"); len(got) != 1 {
		t.Fatalf("v = %v, want [(1)]", got)
	}

	// Without the local derivation the candidate is genuinely retracted.
	h.step(nil, []ast.Fact{ast.NewFact("base", "local", value.Int(1))})
	h.db.Get("v", "local").Insert(value.Tuple{value.Int(1)}) // simulate a lingering seeded tuple
	in = &StageInput{Cand: map[string][]value.Tuple{"v@local": {{value.Int(1)}}}}
	res = h.e.RunStageIncremental(h.prog, in, h.rv)
	checkNoErrors(t, res)
	if got := relContents(h.db, "v", "local"); len(got) != 0 {
		t.Errorf("v = %v, want empty after the last support is gone", got)
	}
}

// TestExternalSupportSurvivesOverDelete: a view tuple that loses its local
// derivation stays while StageInput.Supported says a remote sender maintains
// it, and goes once none does.
func TestExternalSupportSurvivesOverDelete(t *testing.T) {
	h := newIncrHarness(t,
		[]string{"ext base(x)", "int v(x)"},
		mustRules(t, `v@local($x) :- base@local($x);`))
	one := value.Tuple{value.Int(1)}
	h.step([]ast.Fact{ast.NewFact("base", "local", one...)}, nil)

	var asked []string
	h.db.Get("base", "local").Delete(one)
	res := h.e.RunStageIncremental(h.prog, &StageInput{
		Del: map[string][]value.Tuple{"base@local": {one}},
		Supported: func(relID, key string) bool {
			asked = append(asked, relID)
			return relID == "v@local" && key == one.Key()
		},
	}, h.rv)
	checkNoErrors(t, res)
	if got := relContents(h.db, "v", "local"); len(got) != 1 || len(asked) != 1 {
		t.Fatalf("v = %v after asking %v, want [(1)] kept by its external support", got, asked)
	}

	// The sender drops it: a candidate with no support left goes.
	res = h.e.RunStageIncremental(h.prog, &StageInput{Cand: map[string][]value.Tuple{"v@local": {one}}}, h.rv)
	checkNoErrors(t, res)
	if got := relContents(h.db, "v", "local"); len(got) != 0 {
		t.Errorf("v = %v, want empty once no sender maintains it", got)
	}
}

// TestRestoredTupleReDeletedInLaterStratum: a tuple restored by an early
// stratum's rederivation (against then-stale later-stratum support) must
// still be deletable when the later stratum over-deletes that support — the
// ghost bookkeeping must not treat it as already processed.
func TestRestoredTupleReDeletedInLaterStratum(t *testing.T) {
	// The deletion rule with negation forces mid2/top into a later stratum
	// than mid without disabling incremental mode (deletion rules are not
	// view rules, so their negation is allowed).
	h := newIncrHarness(t,
		[]string{"ext e(x,y)", "ext req(q,x)", "int mid(x,y)", "int mid2(x,y)", "int top(x,y)"},
		mustRules(t,
			`mid@local($x,$y) :- e@local($x,$y);`,
			`mid2@local($x,$y) :- mid@local($x,$y);`,
			`top@local($x,$y) :- mid2@local($x,$y);`,
			`-mid2@$q($x,$x) :- req@local($q,$x), not mid@local($x,$x);`,
		))
	ea := ast.NewFact("e", "local", value.Str("a"), value.Str("b"))
	h.step([]ast.Fact{ea}, nil)
	if got := relContents(h.db, "top", "local"); len(got) != 1 {
		t.Fatalf("top = %v, want [(a, b)]", got)
	}
	// One stage: the base support vanishes AND top(a,b) is a deletion
	// candidate (its external support dropped). Stratum 0 deletes mid;
	// rederive restores top via the still-stale mid2; stratum 1 must then
	// re-delete it when mid2 goes.
	tup := value.Tuple{value.Str("a"), value.Str("b")}
	h.db.Get("e", "local").Delete(tup)
	in := &StageInput{
		Del:  map[string][]value.Tuple{"e@local": {tup}},
		Cand: map[string][]value.Tuple{"top@local": {tup}},
	}
	res := h.e.RunStageIncremental(h.prog, in, h.rv)
	checkNoErrors(t, res)
	for _, rel := range []string{"mid", "mid2", "top"} {
		if got := relContents(h.db, rel, "local"); len(got) != 0 {
			t.Errorf("%s = %v, want empty (naive recompute drops it)", rel, got)
		}
	}
}

// TestSameStageSeedAndCandidateNetsOut: a tuple that arrives and loses its
// support in the same stage (coalesced maintained +/-) must not feed the
// insert delta — nothing downstream may be derived from it.
func TestSameStageSeedAndCandidateNetsOut(t *testing.T) {
	h := newIncrHarness(t,
		[]string{"int base(x)", "int v(x)"},
		mustRules(t, `v@local($x) :- base@local($x);`))
	// Simulate the peer's coalesced ingestion: the tuple was inserted
	// (maintained seed, recorded in Ins) and its support dropped (Cand)
	// before the stage ran.
	base := h.db.Get("base", "local")
	tup := value.Tuple{value.Str("a")}
	base.Insert(tup)
	in := &StageInput{
		Ins:  map[string][]value.Tuple{"base@local": {tup}},
		Cand: map[string][]value.Tuple{"base@local": {tup}},
	}
	res := h.e.RunStageIncremental(h.prog, in, h.rv)
	checkNoErrors(t, res)
	if got := relContents(h.db, "base", "local"); len(got) != 0 {
		t.Errorf("base = %v, want empty", got)
	}
	if got := relContents(h.db, "v", "local"); len(got) != 0 {
		t.Errorf("v = %v, want empty: nothing may be derived from a retracted seed", got)
	}
}

// TestManyCoalescedSeedCandidatePairs: a stage that coalesced maintained +/-
// of 2 000 tuples (each both a seed and a candidate) next to 20 seeds that
// stay drops every pair from the insertion delta at once: nothing is
// derived from the pairs, the 20 survivors are, and Result.Views reports
// exactly that.
func TestManyCoalescedSeedCandidatePairs(t *testing.T) {
	h := newIncrHarness(t,
		[]string{"int base(x)", "int v(x)"},
		mustRules(t, `v@local($x) :- base@local($x);`))
	base := h.db.Get("base", "local")
	in := &StageInput{Ins: map[string][]value.Tuple{}, Cand: map[string][]value.Tuple{}}
	for i := 0; i < 2020; i++ {
		tup := value.Tuple{value.Int(int64(i))}
		base.Insert(tup)
		in.Ins["base@local"] = append(in.Ins["base@local"], tup)
		if i >= 20 {
			in.Cand["base@local"] = append(in.Cand["base@local"], tup)
		}
	}
	res := h.e.RunStageIncremental(h.prog, in, h.rv)
	checkNoErrors(t, res)
	if got := relContents(h.db, "base", "local"); len(got) != 20 {
		t.Errorf("base holds %d tuples, want the 20 seeds that were not candidates", len(got))
	}
	if got := relContents(h.db, "v", "local"); len(got) != 20 {
		t.Errorf("v holds %d tuples, want 20: nothing may be derived from a retracted seed", len(got))
	}
	if vd := res.Views["base@local"]; vd == nil || len(vd.Ins) != 0 || len(vd.Del) != 2000 {
		t.Errorf("base view delta = %+v, want 2000 deletions", vd)
	}
	if vd := res.Views["v@local"]; vd == nil || len(vd.Ins) != 20 || len(vd.Del) != 0 {
		t.Errorf("v view delta = %+v, want 20 insertions", vd)
	}
}

// TestOneShotRemoteDeleteEvictsRemoteView: a deletion-rule emission undoes
// the fact at the receiver, so the maintained remote view must forget it —
// the next stage re-ships the maintained insert while it is still derived.
func TestOneShotRemoteDeleteEvictsRemoteView(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext a(x)", "ext trigger(x)")
	prog, err := e.CompileProgram(mustRules(t,
		`r@q($x) :- a@local($x);`,
		`-r@q($x) :- trigger@local($x);`,
	))
	if err != nil {
		t.Fatal(err)
	}
	db.Get("a", "local").Insert(value.Tuple{value.Str("x")})
	rv := NewRemoteView()
	res := e.RunStageFull(prog, nil, rv)
	if got := res.RemoteOut["q"]; len(got) != 1 || got[0].Op != ast.Derive {
		t.Fatalf("stage 1 RemoteOut = %v, want one maintained insert", got)
	}

	// The deletion rule fires for one stage: the one-shot delete ships and
	// the fact leaves the maintained view.
	db.Get("trigger", "local").Insert(value.Tuple{value.Str("x")})
	res = e.RunStageIncremental(prog, &StageInput{
		Ins: map[string][]value.Tuple{"trigger@local": {{value.Str("x")}}},
	}, rv)
	sawOneShot := false
	for _, op := range res.RemoteOut["q"] {
		if op.Op == ast.Delete && !op.Maint {
			sawOneShot = true
		}
	}
	if !sawOneShot {
		t.Fatalf("RemoteOut = %v, want a one-shot delete", res.RemoteOut["q"])
	}

	// Still derived: the next stage must re-ship the maintained insert
	// (plus the still-firing one-shot delete) instead of staying silent.
	db.Get("trigger", "local").Delete(value.Tuple{value.Str("x")})
	res = e.RunStageIncremental(prog, &StageInput{
		Del: map[string][]value.Tuple{"trigger@local": {{value.Str("x")}}},
	}, rv)
	sawInsert := false
	for _, op := range res.RemoteOut["q"] {
		if op.Op == ast.Derive && op.Maint {
			sawInsert = true
		}
	}
	if !sawInsert {
		t.Fatalf("RemoteOut = %v, want the maintained insert re-shipped", res.RemoteOut["q"])
	}
}

// TestIncrementalRemoteDiff: remote emissions ship as deltas — a maintained
// insert when first derived, nothing while unchanged, a maintained delete
// when the last derivation disappears.
func TestIncrementalRemoteDiff(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext src(x)")
	prog, err := e.CompileProgram(mustRules(t, `sink@remote($x) :- src@local($x);`))
	if err != nil {
		t.Fatal(err)
	}
	src := db.Get("src", "local")
	src.Insert(value.Tuple{value.Str("v1")})
	rv := NewRemoteView()
	res := e.RunStageFull(prog, nil, rv)
	if got := res.RemoteOut["remote"]; len(got) != 1 || got[0].Op != ast.Derive || !got[0].Maint {
		t.Fatalf("first stage RemoteOut = %v, want one maintained insert", got)
	}

	// Unchanged stage: no remote traffic.
	res = e.RunStageIncremental(prog, &StageInput{}, rv)
	if got := res.RemoteOut["remote"]; len(got) != 0 {
		t.Fatalf("quiescent RemoteOut = %v, want empty", got)
	}

	// New fact: exactly one maintained insert.
	src.Insert(value.Tuple{value.Str("v2")})
	res = e.RunStageIncremental(prog, &StageInput{
		Ins: map[string][]value.Tuple{"src@local": {{value.Str("v2")}}},
	}, rv)
	if got := res.RemoteOut["remote"]; len(got) != 1 || got[0].Fact.Args[0].StringVal() != "v2" {
		t.Fatalf("RemoteOut after insert = %v, want one insert of v2", got)
	}

	// Lost derivation: a maintained delete.
	src.Delete(value.Tuple{value.Str("v1")})
	res = e.RunStageIncremental(prog, &StageInput{
		Del: map[string][]value.Tuple{"src@local": {{value.Str("v1")}}},
	}, rv)
	got := res.RemoteOut["remote"]
	if len(got) != 1 || got[0].Op != ast.Delete || !got[0].Maint || got[0].Fact.Args[0].StringVal() != "v1" {
		t.Fatalf("RemoteOut after delete = %v, want one maintained delete of v1", got)
	}
}

// TestResidualOutlivesOneOfItsValuations: a delegating rule whose prefix
// binds a variable the residual does not keep ($w) delegates one residual
// for two prefix valuations. Deleting one valuation ships nothing — the
// end-of-stage check finds the other — and deleting the second withdraws
// the residual with one maintained delete; a new valuation of a new
// residual delegates it with one maintained insert.
func TestResidualOutlivesOneOfItsValuations(t *testing.T) {
	e2 := func(a, b int64) ast.Fact { return ast.NewFact("edge", "local", value.Int(a), value.Int(b)) }
	h := newIncrHarness(t, []string{"ext edge(a,b)", "ext follows(p)", "int seen(a,b)"},
		mustRules(t, `seen@local($x, $y) :- edge@local($x, $w), follows@local($p), edge@$p($x, $y);`))
	// residuals reads the shipped templates and bindings as the residual
	// rules they add and remove: a template with parameters is no residual
	// by itself, each binding delta adds or removes one instantiation of it.
	templates := map[string]value.Tuple{} // binding relation -> its template
	residuals := func(res *Result) []string {
		var rest []RemoteOp
		for _, op := range res.RemoteOut["far"] {
			if !op.Maint || !Reserved(op.Fact.Rel) {
				t.Fatalf("unexpected remote op %v", op)
			}
			if _, _, r, err := Template(op.Fact.Args, "far"); err == nil && len(r.Body) > 0 && Reserved(r.Body[0].Rel.Val.StringVal()) {
				templates[r.Body[0].Rel.Val.StringVal()] = op.Fact.Args
			} else {
				rest = append(rest, op)
			}
		}
		var lines []string
		for _, op := range rest {
			tmpl, bindings := op.Fact.Args, []value.Tuple(nil)
			if op.Fact.Rel != TemplateRel {
				tmpl, bindings = templates[op.Fact.Rel], []value.Tuple{op.Fact.Args}
			}
			sign := "+"
			if op.Op == ast.Delete {
				sign = "-"
			}
			for _, a := range instantiate(t, tmpl, "far", func(string) []value.Tuple { return bindings }) {
				r, err := ast.DecodeRule([]byte(a[2].StringVal()))
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, sign+" "+r.String())
			}
		}
		return lines
	}
	h.step([]ast.Fact{ast.NewFact("follows", "local", value.Str("far"))}, nil)
	if got := residuals(h.step([]ast.Fact{e2(1, 2), e2(1, 3)}, nil)); len(got) != 1 ||
		got[0] != "+ seen@local(1, $y) :- edge@far(1, $y)" {
		t.Fatalf("two valuations of one residual shipped %v, want its one insert", got)
	}
	if got := residuals(h.step(nil, []ast.Fact{e2(1, 2)})); len(got) != 0 {
		t.Fatalf("deleting one of two valuations shipped %v, want nothing", got)
	}
	if got := residuals(h.step([]ast.Fact{e2(4, 5)}, []ast.Fact{e2(1, 3)})); len(got) != 2 ||
		got[0] != "- seen@local(1, $y) :- edge@far(1, $y)" || got[1] != "+ seen@local(4, $y) :- edge@far(4, $y)" {
		t.Fatalf("deleting the last valuation and adding another shipped %v, want one delete and one insert", got)
	}
}

// TestIncrementalEquivalentToRecomputeOnRandomSequences is the central
// correctness property of incremental maintenance: on random positive
// programs and random insert/delete sequences, the maintained views equal a
// from-scratch recomputation after every batch.
func TestIncrementalEquivalentToRecomputeOnRandomSequences(t *testing.T) {
	rnd := rand.New(rand.NewSource(13044187)) // arXiv:1304.4187
	for trial := 0; trial < 40; trial++ {
		schemas, facts, rules := randomProgram(rnd, 1+rnd.Intn(3), 1+rnd.Intn(5), 5+rnd.Intn(20), 2+rnd.Intn(5))

		// Incremental engine, materialized once.
		db := store.New()
		for _, s := range schemas {
			if _, err := db.Declare(s); err != nil {
				t.Fatal(err)
			}
		}
		base := db.Get("e", "local")
		live := map[string]value.Tuple{}
		for _, f := range facts {
			if base.Insert(f) {
				live[f.Key()] = f
			}
		}
		e := New("local", db, DefaultOptions())
		prog, err := e.CompileProgram(rules)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		rv := NewRemoteView()
		res := e.RunStageFull(prog, nil, rv)
		if len(res.Errors) > 0 {
			t.Fatalf("trial %d: %v", trial, res.Errors)
		}

		for step := 0; step < 6; step++ {
			in := &StageInput{Ins: map[string][]value.Tuple{}, Del: map[string][]value.Tuple{}}
			// Random deletions of live base tuples.
			nDel := rnd.Intn(3)
			for k := range live {
				if nDel == 0 {
					break
				}
				t0 := live[k]
				if base.Delete(t0) {
					in.Del["e@local"] = append(in.Del["e@local"], t0)
				}
				delete(live, k)
				nDel--
			}
			// Random insertions.
			for n := rnd.Intn(4); n > 0; n-- {
				t0 := value.Tuple{value.Int(int64(rnd.Intn(6))), value.Int(int64(rnd.Intn(6)))}
				if base.Insert(t0) {
					in.Ins["e@local"] = append(in.Ins["e@local"], t0)
					live[t0.Key()] = t0
				}
			}
			res := e.RunStageIncremental(prog, in, rv)
			if len(res.Errors) > 0 {
				t.Fatalf("trial %d step %d: %v", trial, step, res.Errors)
			}

			// Reference: recompute from scratch over the same base facts.
			ref := runReference(t, schemas, live, rules)
			for _, s := range schemas {
				got := relContents(db, s.Name, "local")
				want := ref[s.Name]
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("trial %d step %d: relation %s differs:\nincremental: %v\nrecompute:   %v\nrules: %v",
						trial, step, s.Name, got, want, rules)
				}
			}
		}
	}
}

func runReference(t *testing.T, schemas []store.Schema, base map[string]value.Tuple, rules []ast.Rule) map[string][]string {
	t.Helper()
	db := store.New()
	for _, s := range schemas {
		if _, err := db.Declare(s); err != nil {
			t.Fatal(err)
		}
	}
	rel := db.Get("e", "local")
	for _, f := range base {
		rel.Insert(f)
	}
	e := New("local", db, DefaultOptions())
	prog, err := e.CompileProgram(rules)
	if err != nil {
		t.Fatalf("reference compile: %v", err)
	}
	res := referenceStage(e, prog)
	for _, err := range res.Errors {
		t.Fatalf("reference stage error: %v", err)
	}
	out := map[string][]string{}
	for _, s := range schemas {
		out[s.Name] = relContents(db, s.Name, "local")
	}
	return out
}
