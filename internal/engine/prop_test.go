package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// randomProgram generates a random positive datalog program over nRels
// intensional relations and one extensional relation, all binary, plus a
// random base instance. The generated rules are safe by construction.
func randomProgram(rnd *rand.Rand, nRels, nRules, nFacts, domain int) (schemas []store.Schema, facts []value.Tuple, rules []ast.Rule) {
	schemas = append(schemas, store.Schema{Name: "e", Peer: "local", Kind: ast.Extensional, Cols: []string{"a", "b"}})
	relNames := []string{"e"}
	for i := 0; i < nRels; i++ {
		name := fmt.Sprintf("i%d", i)
		schemas = append(schemas, store.Schema{Name: name, Peer: "local", Kind: ast.Intensional, Cols: []string{"a", "b"}})
		relNames = append(relNames, name)
	}
	for i := 0; i < nFacts; i++ {
		facts = append(facts, value.Tuple{
			value.Int(int64(rnd.Intn(domain))), value.Int(int64(rnd.Intn(domain))),
		})
	}
	vars := []string{"x", "y", "z", "w"}
	for i := 0; i < nRules; i++ {
		head := relNames[1+rnd.Intn(nRels)] // intensional head
		bodyLen := 1 + rnd.Intn(3)
		var body []ast.Atom
		// Chain variables so every rule is safe and joins are non-trivial.
		for j := 0; j < bodyLen; j++ {
			rel := relNames[rnd.Intn(len(relNames))]
			v1 := vars[j%len(vars)]
			v2 := vars[(j+1)%len(vars)]
			body = append(body, ast.Atom{
				Rel:  ast.CStr(rel),
				Peer: ast.CStr("local"),
				Args: []ast.Term{ast.V(v1), ast.V(v2)},
			})
		}
		headArgs := []ast.Term{ast.V(vars[0]), ast.V(vars[bodyLen%len(vars)])}
		rules = append(rules, ast.Rule{
			ID:   fmt.Sprintf("r%d", i),
			Head: ast.Atom{Rel: ast.CStr(head), Peer: ast.CStr("local"), Args: headArgs},
			Body: body,
		})
	}
	return schemas, facts, rules
}

// withRandomFilters appends, to some rules, a builtin comparison and/or a
// negated atom over the extensional base — always at the *end* of the body,
// where safety is guaranteed (every variable is bound) and where the
// planner will want to float them forward. This makes the random programs
// adversarial for filter placement, not just join order.
func withRandomFilters(rnd *rand.Rand, rules []ast.Rule) []ast.Rule {
	for i := range rules {
		var bodyVars []string
		seen := map[string]bool{}
		for _, a := range rules[i].Body {
			for _, t := range a.Args {
				if t.IsVar() && !seen[t.Var] {
					seen[t.Var] = true
					bodyVars = append(bodyVars, t.Var)
				}
			}
		}
		if len(bodyVars) < 2 {
			continue
		}
		if rnd.Intn(2) == 0 {
			rules[i].Body = append(rules[i].Body, ast.Atom{
				Rel:  ast.CStr("le"),
				Peer: ast.CStr(BuiltinPeer),
				Args: []ast.Term{ast.V(bodyVars[rnd.Intn(len(bodyVars))]), ast.V(bodyVars[rnd.Intn(len(bodyVars))])},
			})
		}
		if rnd.Intn(2) == 0 {
			rules[i].Body = append(rules[i].Body, ast.Atom{
				Neg:  true,
				Rel:  ast.CStr("e"),
				Peer: ast.CStr("local"),
				Args: []ast.Term{ast.V(bodyVars[rnd.Intn(len(bodyVars))]), ast.V(bodyVars[rnd.Intn(len(bodyVars))])},
			})
		}
	}
	return rules
}

// randomStratifiedProgram extends randomProgram with the constructs the
// compiled/interpreted differential grid must cover: recursive view rules
// (positive body atoms may use the head's own relation), negation across
// strata (negated atoms only over strictly lower-numbered relations, so the
// program is stratified by construction), and builtin filters spliced into
// *random* interior body positions where their variables are already bound —
// not just appended at the end like withRandomFilters.
func randomStratifiedProgram(rnd *rand.Rand, nRels, nRules, nFacts, domain int) (schemas []store.Schema, facts []value.Tuple, rules []ast.Rule) {
	schemas = append(schemas, store.Schema{Name: "e", Peer: "local", Kind: ast.Extensional, Cols: []string{"a", "b"}})
	relNames := []string{"e"}
	for i := 0; i < nRels; i++ {
		name := fmt.Sprintf("i%d", i)
		schemas = append(schemas, store.Schema{Name: name, Peer: "local", Kind: ast.Intensional, Cols: []string{"a", "b"}})
		relNames = append(relNames, name)
	}
	for i := 0; i < nFacts; i++ {
		facts = append(facts, value.Tuple{
			value.Int(int64(rnd.Intn(domain))), value.Int(int64(rnd.Intn(domain))),
		})
	}
	vars := []string{"x", "y", "z", "w"}
	for i := 0; i < nRules; i++ {
		hi := 1 + rnd.Intn(nRels) // head index into relNames
		bodyLen := 1 + rnd.Intn(3)
		// Positive chain: relations up to and including the head's own (so
		// recursion through any stratum member is possible), chained variables
		// vars[j] → vars[j+1] so after j atoms vars[0..j] are bound.
		chain := make([]ast.Atom, bodyLen)
		for j := 0; j < bodyLen; j++ {
			chain[j] = ast.Atom{
				Rel:  ast.CStr(relNames[rnd.Intn(hi+1)]),
				Peer: ast.CStr("local"),
				Args: []ast.Term{ast.V(vars[j]), ast.V(vars[j+1])},
			}
		}
		// Optional builtin filter and negated atom at random chain positions
		// (after p chain atoms, vars[0..p] are bound). The negated atom only
		// uses relations strictly below the head, keeping strata acyclic.
		pf, pn := 0, 0
		var filter, negAtom ast.Atom
		if rnd.Intn(2) == 0 {
			pf = 1 + rnd.Intn(bodyLen)
			filter = ast.Atom{
				Rel:  ast.CStr([]string{"le", "lt", "neq"}[rnd.Intn(3)]),
				Peer: ast.CStr(BuiltinPeer),
				Args: []ast.Term{ast.V(vars[rnd.Intn(pf+1)]), ast.V(vars[rnd.Intn(pf+1)])},
			}
		}
		if rnd.Intn(2) == 0 {
			pn = 1 + rnd.Intn(bodyLen)
			negAtom = ast.Atom{
				Neg:  true,
				Rel:  ast.CStr(relNames[rnd.Intn(hi)]),
				Peer: ast.CStr("local"),
				Args: []ast.Term{ast.V(vars[rnd.Intn(pn+1)]), ast.V(vars[rnd.Intn(pn+1)])},
			}
		}
		var body []ast.Atom
		for j := 0; j < bodyLen; j++ {
			body = append(body, chain[j])
			if pf == j+1 {
				body = append(body, filter)
			}
			if pn == j+1 {
				body = append(body, negAtom)
			}
		}
		rules = append(rules, ast.Rule{
			ID:   fmt.Sprintf("r%d", i),
			Head: ast.Atom{Rel: ast.CStr(relNames[hi]), Peer: ast.CStr("local"), Args: []ast.Term{ast.V(vars[0]), ast.V(vars[bodyLen])}},
			Body: body,
		})
	}
	return schemas, facts, rules
}

// withDelegatingRules appends the rule shapes whose bodies or heads leave
// the peer or resolve at run time — the shapes only the old interpreter
// could run — plus the small extensional relations they read:
//
//	peers(p)    peer names: "local" and the remote "far"
//	names(r)    relation names: "e", intensional ones, and an undeclared one
//	cmp(op, p)  (relation, peer) pairs resolving to a builtin, a local
//	            relation, or a remote one
//	sink(a, b)  target of extensional (buffered-update) heads
//
// Heads range over a local view, a remote relation, an extensional relation
// (insert and delete), and a variable peer. Rules reading a variable relation
// depend on every view, so their view head is always the top relation, which
// no generated rule negates — the program stays stratified.
//
// Next to them come the remote view rules — out@far, or a view's name at
// far, over joins of the maintained (and possibly recursive) views — a
// one-shot deletion of out@far over a local body, and out@$p heads an event
// rule can send to far, so the RemoteView's two sources and its one-shot
// evictions overlap.
func withDelegatingRules(rnd *rand.Rand, schemas []store.Schema, rules []ast.Rule) ([]store.Schema, []ast.Fact, []ast.Rule) {
	top := schemas[len(schemas)-1].Name
	for _, s := range []store.Schema{
		{Name: "peers", Cols: []string{"p"}}, {Name: "names", Cols: []string{"r"}},
		{Name: "cmp", Cols: []string{"op", "p"}}, {Name: "sink", Cols: []string{"a", "b"}},
	} {
		s.Peer, s.Kind = "local", ast.Extensional
		schemas = append(schemas, s)
	}
	facts := []ast.Fact{
		ast.NewFact("peers", "local", value.Str("local")), ast.NewFact("peers", "local", value.Str("far")),
		ast.NewFact("names", "local", value.Str("e")), ast.NewFact("names", "local", value.Str("i0")),
		ast.NewFact("names", "local", value.Str("nosuch")),
		ast.NewFact("cmp", "local", value.Str("lt"), value.Str(BuiltinPeer)),
		ast.NewFact("cmp", "local", value.Str("e"), value.Str("local")),
		ast.NewFact("cmp", "local", value.Str("e"), value.Str("far")),
	}
	atom := func(rel, peer ast.Term, args ...string) ast.Atom {
		a := ast.Atom{Rel: rel, Peer: peer}
		for _, v := range args {
			a.Args = append(a.Args, ast.V(v))
		}
		return a
	}
	local, far := ast.CStr("local"), ast.CStr("far")
	e := func(a, b string) ast.Atom { return atom(ast.CStr("e"), local, a, b) }
	bodies := []struct {
		body    []ast.Atom
		peerVar bool // $p is bound: the head may use it as its peer
		topOnly bool // reads a variable relation
	}{
		{body: []ast.Atom{atom(ast.CStr("peers"), local, "p"), atom(ast.CStr("e"), ast.V("p"), "x", "y")}, peerVar: true},
		{body: []ast.Atom{atom(ast.CStr("names"), local, "r"), atom(ast.V("r"), local, "x", "y")}, topOnly: true},
		{body: []ast.Atom{e("x", "z"), atom(ast.CStr("hop"), far, "z", "y"), e("y", "x")}},
		{body: []ast.Atom{e("x", "y"), atom(ast.CStr("cmp"), local, "o", "p"), atom(ast.V("o"), ast.V("p"), "x", "y")}, peerVar: true, topOnly: true},
		{body: []ast.Atom{e("x", "y"), atom(ast.CStr("peers"), local, "p"), {Neg: true, Rel: ast.CStr("e"), Peer: ast.V("p"), Args: []ast.Term{ast.V("y"), ast.V("x")}}}, peerVar: true},
		{body: []ast.Atom{e("x", "y"), atom(ast.CStr("peers"), local, "p")}, peerVar: true}, // emits to far from a local body
		// $w is the prefix's alone: one residual stands for several valuations.
		{body: []ast.Atom{e("x", "w"), atom(ast.CStr("peers"), local, "p"), atom(ast.CStr("e"), ast.V("p"), "x", "y")}, peerVar: true},
	}
	for n := 1 + rnd.Intn(3); n > 0; n-- {
		b := bodies[rnd.Intn(len(bodies))]
		r := ast.Rule{ID: fmt.Sprintf("d%d", n), Body: b.body}
		view := relOf(schemas, rnd, ast.Intensional)
		if b.topOnly {
			view = top
		}
		switch k := rnd.Intn(6); {
		case k == 0:
			r.Head = atom(ast.CStr("out"), far, "x", "y")
		case k == 1:
			r.Head = atom(ast.CStr("sink"), local, "x", "y")
		case k == 2:
			r.Head, r.Op = atom(ast.CStr("sink"), local, "y", "x"), ast.Delete
		case k == 3 && b.peerVar:
			r.Head = atom(ast.CStr(view), ast.V("p"), "x", "y")
		case k == 4 && b.peerVar:
			r.Head = atom(ast.CStr("out"), ast.V("p"), "x", "y")
		default:
			r.Head = atom(ast.CStr(view), local, "x", "y")
		}
		rules = append(rules, r)
	}
	body := func() string {
		if rnd.Intn(3) == 0 {
			return "e"
		}
		return relOf(schemas, rnd, ast.Intensional)
	}
	for n := rnd.Intn(3); n > 0; n-- {
		// The head is out@far or a view's name at far, which the view@$p
		// event rules above also reach.
		head := "out"
		if rnd.Intn(2) == 0 {
			head = relOf(schemas, rnd, ast.Intensional)
		}
		r := ast.Rule{ID: fmt.Sprintf("v%d", n), Head: atom(ast.CStr(head), far, "x", "y")}
		if rnd.Intn(2) == 0 {
			r.Body = []ast.Atom{atom(ast.CStr(body()), local, "x", "y")}
		} else {
			r.Body = []ast.Atom{atom(ast.CStr(body()), local, "x", "z"), atom(ast.CStr(body()), local, "z", "y")}
		}
		if rnd.Intn(3) == 0 {
			r.Body = append(r.Body, atom(ast.CStr("le"), ast.CStr(BuiltinPeer), "x", "y"))
		}
		rules = append(rules, r)
	}
	if rnd.Intn(3) == 0 {
		rules = append(rules, ast.Rule{ID: "x1", Op: ast.Delete, Head: atom(ast.CStr("out"), far, "x", "y"),
			Body: []ast.Atom{e("x", "y"), atom(ast.CStr("le"), ast.CStr(BuiltinPeer), "y", "x")}})
	}
	return schemas, facts, rules
}

// relOf picks a random declared relation of the given kind.
func relOf(schemas []store.Schema, rnd *rand.Rand, kind ast.RelKind) string {
	var names []string
	for _, s := range schemas {
		if s.Kind == kind {
			names = append(names, s.Name)
		}
	}
	return names[rnd.Intn(len(names))]
}

// randomBatches generates n insert/delete batches: mostly over the binary
// base relation e, sometimes over the control relations of the delegating
// shapes, so peer/relation/builtin resolutions change mid-sequence too.
func randomBatches(rnd *rand.Rand, n, domain int, delegating bool) [][]FactOp {
	var batches [][]FactOp
	for s := 0; s < n; s++ {
		var b []FactOp
		for k := 1 + rnd.Intn(4); k > 0; k-- {
			f := ast.NewFact("e", "local", value.Int(int64(rnd.Intn(domain))), value.Int(int64(rnd.Intn(domain))))
			if delegating && rnd.Intn(4) == 0 {
				switch rnd.Intn(3) {
				case 0:
					f = ast.NewFact("peers", "local", value.Str([]string{"local", "far", "away"}[rnd.Intn(3)]))
				case 1:
					f = ast.NewFact("names", "local", value.Str([]string{"e", "i0", "sink"}[rnd.Intn(3)]))
				default:
					pair := [][2]string{{"lt", BuiltinPeer}, {"neq", BuiltinPeer}, {"e", "local"}, {"i0", "local"}, {"e", "far"}}[rnd.Intn(5)]
					f = ast.NewFact("cmp", "local", value.Str(pair[0]), value.Str(pair[1]))
				}
			}
			op := ast.Derive
			if rnd.Intn(3) == 0 {
				op = ast.Delete
			}
			b = append(b, FactOp{Op: op, Fact: f})
		}
		batches = append(batches, b)
	}
	return batches
}

// TestProductionEquivalentToReference is the engine's central correctness
// property: on random stratified programs — multi-way joins, recursion,
// negation across strata, builtin filters the planner floats, the
// delegating/run-time-resolved shapes and remote view rules — production
// rule execution, both incrementally maintained and recomputed, produces
// exactly what the reference evaluator produces: view contents, the remote
// facts its RemoteOut sequence leaves at each destination — the delegated
// residuals included, replayed from their maintained deltas against the
// reference's per-stage residual set — Result.LocalUpdates and
// Result.Errors, after the initial stage and after each of 10 random
// insert/delete batches — across a program change: one random rule is
// replaced by another at batch 3 and restored at batch 7.
func TestProductionEquivalentToReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(20130523)) // SIGMOD'13 demo week
	delegating, incremental, remote, withdrawn := 0, 0, 0, 0
	for trial := 0; trial < 180; trial++ {
		var schemas []store.Schema
		var tuples []value.Tuple
		var rules []ast.Rule
		domain := 2 + rnd.Intn(6)
		if trial%2 == 0 {
			schemas, tuples, rules = randomProgram(rnd, 1+rnd.Intn(3), 1+rnd.Intn(5), 5+rnd.Intn(30), domain)
			if trial%4 == 0 {
				rules = withRandomFilters(rnd, rules)
			}
		} else {
			schemas, tuples, rules = randomStratifiedProgram(rnd, 1+rnd.Intn(3), 1+rnd.Intn(5), 5+rnd.Intn(30), domain)
		}
		// A rule of a second program over the same relations replaces a
		// random rule at batch 3, and the original comes back at batch 7.
		gen := randomStratifiedProgram
		if trial%2 == 0 {
			gen = randomProgram // its positive rules may form any cycle
		}
		_, _, alt := gen(rnd, len(schemas)-1, 1+rnd.Intn(3), 0, domain)
		var facts []ast.Fact
		withDeleg := trial%3 != 0
		if withDeleg {
			schemas, facts, rules = withDelegatingRules(rnd, schemas, rules)
			delegating++
		}
		for _, tp := range tuples {
			facts = append(facts, ast.Fact{Rel: "e", Peer: "local", Args: tp})
		}
		replaced := append([]ast.Rule(nil), rules...)
		k := rnd.Intn(len(replaced))
		replaced[k] = alt[rnd.Intn(len(alt))]
		replaced[k].ID = rules[k].ID
		edits := map[int][]ast.Rule{3: replaced, 7: rules}
		cov := checkAgainstReference(t, fmt.Sprintf("trial %d", trial), schemas, facts, rules, randomBatches(rnd, 10, domain, withDeleg), edits)
		if cov.incremental {
			incremental++
		}
		if cov.remote {
			remote++
		}
		if cov.withdrawn {
			withdrawn++
		}
	}
	t.Logf("%d delegating programs, %d incrementally maintained, %d with a remote view rule, %d withdrawing a residual incrementally",
		delegating, incremental, remote, withdrawn)
	if delegating < 50 || incremental < 50 || remote < 50 || withdrawn < 25 {
		t.Fatalf("coverage too thin: %d delegating programs, %d incrementally maintained, %d with a remote view rule (want ≥ 50 each), %d withdrawing a residual incrementally (want ≥ 25)",
			delegating, incremental, remote, withdrawn)
	}
}

// stageOutputs canonicalizes everything a stage produced locally — view
// contents of the given peer plus Result.LocalUpdates and Errors — as sorted
// text, so two evaluators compare with one string equality. Remote emissions,
// delegated residuals included, are compared separately (remoteReplica):
// production's Result.Remote holds the event rules' emissions only.
func stageOutputs(db *store.Store, local string, res *Result) string {
	var lines []string
	for _, rel := range db.RelationsOf(local) {
		for _, t := range rel.Tuples() {
			lines = append(lines, "fact "+rel.Schema().ID()+t.String())
		}
	}
	for _, op := range res.LocalUpdates {
		lines = append(lines, "update "+op.String())
	}
	for _, err := range res.Errors {
		lines = append(lines, "error "+err.Error())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// viewDeltaKeys canonicalizes a stage's Result.Views as sorted text.
func viewDeltaKeys(res *Result) string {
	var lines []string
	for relID, vd := range res.Views {
		for _, t := range vd.Ins {
			lines = append(lines, "+"+relID+t.String())
		}
		for _, t := range vd.Del {
			lines = append(lines, "-"+relID+t.String())
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// refWorld is one engine over its own store, built from shared schemas,
// base facts and rules, so production and reference never share state.
type refWorld struct {
	e    *Engine
	db   *store.Store
	prog *Program
}

func newRefWorld(t testing.TB, opts Options, schemas []store.Schema, facts []ast.Fact, rules []ast.Rule) *refWorld {
	t.Helper()
	db := store.New()
	for _, s := range schemas {
		if _, err := db.Declare(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range facts {
		db.Get(f.Rel, f.Peer).Insert(f.Args)
	}
	e := New("local", db, opts)
	prog, err := e.CompileProgram(rules)
	if err != nil {
		t.Fatalf("compile: %v\nrules: %v", err, rules)
	}
	return &refWorld{e: e, db: db, prog: prog}
}

// apply replays one batch of extensional inserts/deletes against the
// world's store and returns its net effect as a StageInput (the peer
// layer's contract: Ins present, Del absent, a tuple inserted and deleted
// within the batch in neither). A fact of an undeclared relation declares
// it extensional, as a peer does on a fact's first arrival.
func (w *refWorld) apply(batch []FactOp) *StageInput {
	in := &StageInput{Ins: map[string][]value.Tuple{}, Del: map[string][]value.Tuple{}}
	was := map[string]bool{}
	var order []ast.Fact
	for _, op := range batch {
		rel := w.db.Get(op.Fact.Rel, op.Fact.Peer)
		if rel == nil {
			rel, _ = w.db.Declare(store.Schema{Name: op.Fact.Rel, Peer: op.Fact.Peer,
				Kind: ast.Extensional, Cols: store.GenericCols(len(op.Fact.Args))})
		}
		if _, seen := was[op.Fact.Key()]; !seen {
			was[op.Fact.Key()] = rel.Contains(op.Fact.Args)
			order = append(order, op.Fact)
		}
		if op.Op == ast.Delete {
			rel.Delete(op.Fact.Args)
		} else {
			rel.Insert(op.Fact.Args)
		}
	}
	for _, f := range order {
		id := f.Rel + "@" + f.Peer
		switch now := w.db.Get(f.Rel, f.Peer).Contains(f.Args); {
		case now && !was[f.Key()]:
			in.Ins[id] = append(in.Ins[id], f.Args)
		case !now && was[f.Key()]:
			in.Del[id] = append(in.Del[id], f.Args)
		}
	}
	return in
}

// remoteReplica is what a stream of RemoteOut ops leaves at each
// destination: dst -> relation id -> tuple key -> fact. Replaying ops in
// order, a maintained insert adds a fact and every delete — maintained or
// one-shot — removes it.
type remoteReplica map[string]map[string]map[string]ast.Fact

func (r remoteReplica) replay(t testing.TB, out map[string][]RemoteOp) {
	t.Helper()
	for dst, ops := range out {
		for _, op := range ops {
			if op.Op == ast.Derive && !op.Maint {
				t.Fatalf("RemoteOut ships an unmaintained insert %v", op)
			}
			r.put(dst, op.Fact, op.Op == ast.Derive)
		}
	}
}

func (r remoteReplica) put(dst string, f ast.Fact, present bool) {
	relID := f.Rel + "@" + f.Peer
	if present {
		if r[dst] == nil {
			r[dst] = map[string]map[string]ast.Fact{}
		}
		if r[dst][relID] == nil {
			r[dst][relID] = map[string]ast.Fact{}
		}
		r[dst][relID][f.Args.Key()] = f
		return
	}
	delete(r[dst][relID], f.Args.Key())
}

// text renders the replica as sorted "dst fact" lines.
func (r remoteReplica) text() string {
	var lines []string
	for dst, rels := range r {
		for _, facts := range rels {
			for _, f := range facts {
				lines = append(lines, dst+" "+f.String())
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// digests returns the replica's per-relation digests at dst, nil when empty
// — what RemoteView.Digests must read.
func (r remoteReplica) digests(dst string) map[string]store.Digest {
	var out map[string]store.Digest
	for relID, facts := range r[dst] {
		if len(facts) == 0 {
			continue
		}
		if out == nil {
			out = map[string]store.Digest{}
		}
		var d store.Digest
		for key := range facts {
			d.Add(key)
		}
		out[relID] = d
	}
	return out
}

// referenceRemote returns what the reference stage leaves at each
// destination — its Derive-op emission set minus the facts the same stage
// deletes one-shot (those ship as the one-shot delete; the maintained insert
// follows a stage later) — and its one-shot deletes as sorted text.
func referenceRemote(res *Result) (held remoteReplica, shots string) {
	held = remoteReplica{}
	var shotLines []string
	for dst, ops := range res.Remote {
		for _, op := range ops {
			if op.Op == ast.Derive {
				held.put(dst, op.Fact, true)
			}
		}
	}
	for dst, ops := range res.Remote {
		for _, op := range ops {
			if op.Op == ast.Delete {
				held.put(dst, op.Fact, false)
				shotLines = append(shotLines, fmt.Sprintf("%s %s maint=false", dst, op))
			}
		}
	}
	sort.Strings(shotLines)
	return held, strings.Join(shotLines, "\n")
}

// remoteOutText renders RemoteOut as sorted text; oneShot keeps only the
// one-shot deletes.
func remoteOutText(out map[string][]RemoteOp, oneShot bool) string {
	var lines []string
	for dst, ops := range out {
		for _, op := range ops {
			if oneShot && op.Maint {
				continue
			}
			lines = append(lines, fmt.Sprintf("%s %s maint=%v", dst, FactOp{Op: op.Op, Fact: op.Fact}, op.Maint))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// checkAgainstReference runs the same program and batch schedule through
// production incremental maintenance, production recompute and the
// reference evaluator, each over its own store, and demands identical
// outputs (stageOutputs) after the initial stage and after every batch, and
// identical view deltas (Result.Views) from the two production paths. Remote
// emissions are checked as a sequence: each production path's RemoteOut,
// replayed stage by stage into a per-destination replica, must leave exactly
// what the reference stage emits, ship exactly its one-shot deletes, and
// keep the RemoteView's summary trees equal to the replica's digests; the
// two paths must ship the same ops. edits[i], when present, is the whole
// rule set every world recompiles to before batch i: a program change the
// incremental engine maintains as a program delta. The incremental world's
// first stage is a RunStageIncremental too — the delta from the empty
// program. It reports what the run covered (coverage).
func checkAgainstReference(t testing.TB, label string, schemas []store.Schema, facts []ast.Fact, rules []ast.Rule, batches [][]FactOp, edits map[int][]ast.Rule) (cov coverage) {
	t.Helper()
	full := DefaultOptions()
	full.Incremental = false
	incr := newRefWorld(t, DefaultOptions(), schemas, facts, rules)
	reco := newRefWorld(t, full, schemas, facts, rules)
	ref := newRefWorld(t, full, schemas, facts, rules)
	rvI, rvR := NewRemoteView(), NewRemoteView()
	replI, replR := remoteReplica{}, remoteReplica{}
	dsts := map[string]bool{}
	compare := func(step int, resI, resR *Result) {
		t.Helper()
		refRes := referenceStage(ref.e, ref.prog)
		want := stageOutputs(ref.db, "local", refRes)
		for _, got := range []struct {
			name string
			out  string
		}{{"incremental", stageOutputs(incr.db, "local", resI)}, {"recompute", stageOutputs(reco.db, "local", resR)}} {
			if got.out != want {
				t.Fatalf("%s step %d: production %s differs from the reference\nrules: %v\n--- reference\n%s\n--- %s\n%s",
					label, step, got.name, rules, want, got.name, got.out)
			}
		}
		// Both started from the same store and ended at the reference's, so
		// exact view deltas must agree too.
		if vi, vr := viewDeltaKeys(resI), viewDeltaKeys(resR); vi != vr {
			t.Fatalf("%s step %d: view deltas differ\nrules: %v\n--- incremental\n%s\n--- recompute\n%s",
				label, step, rules, vi, vr)
		}
		if oi, or := remoteOutText(resI.RemoteOut, false), remoteOutText(resR.RemoteOut, false); oi != or {
			t.Fatalf("%s step %d: RemoteOut differs\nrules: %v\n--- incremental\n%s\n--- recompute\n%s",
				label, step, rules, oi, or)
		}
		held, shots := referenceRemote(refRes)
		for dst := range held {
			dsts[dst] = true
		}
		for _, w := range []struct {
			name string
			res  *Result
			repl remoteReplica
			rv   *RemoteView
		}{{"incremental", resI, replI, rvI}, {"recompute", resR, replR, rvR}} {
			w.repl.replay(t, w.res.RemoteOut)
			if got, want := w.repl.text(), held.text(); got != want {
				t.Fatalf("%s step %d: %s RemoteOut sequence leaves other facts than the reference emits\nrules: %v\n--- reference\n%s\n--- %s replica\n%s",
					label, step, w.name, rules, want, w.name, got)
			}
			if got := remoteOutText(w.res.RemoteOut, true); got != shots {
				t.Fatalf("%s step %d: %s one-shot deletes differ\nrules: %v\n--- reference\n%s\n--- %s\n%s",
					label, step, w.name, rules, shots, w.name, got)
			}
			for dst := range w.res.RemoteOut {
				dsts[dst] = true
			}
		}
		for dst := range dsts {
			di, dr := rvI.Digests(dst), rvR.Digests(dst)
			if !reflect.DeepEqual(di, dr) || !reflect.DeepEqual(di, replI.digests(dst)) {
				t.Fatalf("%s step %d: summary trees at %s differ\nrules: %v\nincremental %v\nrecompute   %v\nreplica     %v",
					label, step, dst, rules, di, dr, replI.digests(dst))
			}
		}
	}
	cov.incremental = true
	stage := func(in *StageInput) *Result {
		for _, cr := range incr.prog.Rules {
			cov.remote = cov.remote || cr.Remote
		}
		if !incr.prog.Incremental {
			cov.incremental = false
			return incr.e.RunStageFull(incr.prog, nil, rvI)
		}
		res := incr.e.RunStageIncremental(incr.prog, in, rvI)
		for _, ops := range res.RemoteOut {
			for _, op := range ops {
				cov.withdrawn = cov.withdrawn || op.Maint && op.Op == ast.Delete && op.Fact.Rel == ResidualRel
			}
		}
		return res
	}
	compare(-1, stage(nil), reco.e.RunStageFull(reco.prog, nil, rvR))
	for step, b := range batches {
		if edit, ok := edits[step]; ok {
			rules = edit
			for _, w := range []*refWorld{incr, reco, ref} {
				prog, err := w.e.CompileProgram(rules)
				if err != nil {
					t.Fatalf("%s step %d: compile edit: %v\nrules: %v", label, step, err, rules)
				}
				w.prog = prog
			}
		}
		in := incr.apply(b)
		reco.apply(b)
		ref.apply(b)
		compare(step, stage(in), reco.e.RunStageFull(reco.prog, nil, rvR))
	}
	return cov
}

// coverage is what one checkAgainstReference run exercised: whether the
// program was incrementally maintainable at every stage (otherwise the
// "incremental" engine recomputed too), whether it had a remote view rule,
// and whether an incremental stage withdrew a delegated residual.
type coverage struct{ incremental, remote, withdrawn bool }

// TestMaxIterationsGuard verifies the runaway-fixpoint safety net.
func TestMaxIterationsGuard(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIterations = 3
	e, db := testEnv(t, opts, "ext seed(x)", "int grow(x)")
	insertFacts(t, db, `seed@local(0);`)
	// grow is genuinely infinite only with function symbols, which the
	// language lacks; emulate pressure with a long chain instead.
	base := db.Get("seed", "local")
	for i := 1; i < 50; i++ {
		base.Insert(value.Tuple{value.Int(int64(i))})
	}
	prog, err := e.CompileProgram(mustRules(t,
		`grow@local($x) :- seed@local($x);`,
		`grow@local($y) :- grow@local($x), seed@local($y);`,
	))
	if err != nil {
		t.Fatal(err)
	}
	res := e.RunStage(prog)
	if res.Iterations > 3 {
		t.Errorf("iterations = %d despite MaxIterations=3", res.Iterations)
	}
}
