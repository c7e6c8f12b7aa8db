package engine

import (
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// TestRemoteViewTreesTrackDiff drives random full emission sets through
// Diff and checks the incrementally maintained summary trees against a
// model: per (dst, relation) the tree root must equal the digest of the
// facts actually maintained, RangeFacts must enumerate exactly the members
// of a hash range, and emptied destinations must drop their trees.
func TestRemoteViewTreesTrackDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := NewRemoteView()
	mk := func(rel, dst string, k int) ast.Fact {
		return ast.NewFact(rel, dst, value.Int(int64(k)))
	}

	// model: dst -> relID -> tuple key -> fact
	model := map[string]map[string]map[string]ast.Fact{}
	for round := 0; round < 60; round++ {
		remote := map[string][]FactOp{}
		want := map[string]map[string]map[string]ast.Fact{}
		for _, dst := range []string{"b", "c"} {
			if rng.Intn(8) == 0 {
				continue // this destination derives nothing this round
			}
			for _, rel := range []string{"u", "w"} {
				for k := 0; k < 40; k++ {
					if rng.Intn(2) == 0 {
						continue
					}
					f := mk(rel, dst, k)
					remote[dst] = append(remote[dst], FactOp{Op: ast.Derive, Fact: f})
					relID := rel + "@" + dst
					if want[dst] == nil {
						want[dst] = map[string]map[string]ast.Fact{}
					}
					if want[dst][relID] == nil {
						want[dst][relID] = map[string]ast.Fact{}
					}
					want[dst][relID][f.Args.Key()] = f
				}
			}
		}
		v.Diff(remote)
		model = want

		for dst, rels := range model {
			for relID, facts := range rels {
				var wantDig store.Digest
				for key := range facts {
					wantDig.Add(key)
				}
				tr := v.Tree(dst, relID)
				if tr == nil {
					t.Fatalf("round %d: no tree for %s at %s", round, relID, dst)
				}
				if got := tr.Root(); got != wantDig {
					t.Fatalf("round %d: tree root %+v, want %+v for %s at %s", round, got, wantDig, relID, dst)
				}
				if d := v.Digests(dst)[relID]; d != wantDig {
					t.Fatalf("round %d: Digests %+v, want %+v", round, d, wantDig)
				}
				got, _ := v.RangeFacts(dst, relID, 0, ^uint64(0), 0)
				if len(got) != len(facts) {
					t.Fatalf("round %d: RangeFacts full range returned %d facts, want %d", round, len(got), len(facts))
				}
				lo, hi := rng.Uint64(), rng.Uint64()
				if lo > hi {
					lo, hi = hi, lo
				}
				n := 0
				for key := range facts {
					if h := store.KeyHash(key); lo <= h && h <= hi {
						n++
					}
				}
				if got, end := v.RangeFacts(dst, relID, lo, hi, 0); len(got) != n || end != hi {
					t.Fatalf("round %d: RangeFacts[%x,%x] returned %d facts to %x, want %d", round, lo, hi, len(got), end, n)
				}
			}
		}
		for _, dst := range []string{"b", "c"} {
			if model[dst] == nil && v.Digests(dst) != nil {
				t.Fatalf("round %d: emptied destination %s still digests %v", round, dst, v.Digests(dst))
			}
		}
	}
}

// TestRemoteViewOneShotDeleteSkipsTree: an insert cancelled by a same-stage
// one-shot delete never joins the view, so the tree must not count it.
func TestRemoteViewOneShotDeleteSkipsTree(t *testing.T) {
	v := NewRemoteView()
	f := ast.NewFact("u", "b", value.Int(1))
	v.Diff(map[string][]FactOp{"b": {
		{Op: ast.Derive, Fact: f},
		{Op: ast.Delete, Fact: f},
	}})
	if tr := v.Tree("b", "u@b"); tr != nil && tr.Len() != 0 {
		t.Fatalf("cancelled insert joined the tree: %d members", tr.Len())
	}
	if len(v.rels["b"]) != 0 {
		t.Fatalf("cancelled insert joined the view: %v", v.rels["b"])
	}
}

func init() {
	// Surface tree bookkeeping bugs (double-remove, remove-of-absent) as
	// panics throughout this package's tests.
	store.DebugAsserts = true
}

// TestClassifyRemoteViewRules: a Derive rule with a constant remote head
// over a local, positive, constant-named body is a remote view rule — the
// paper's §2 rule once delegated to emilien, the Wepic hub publish rule and
// a swarm follow rule — and Explain says so; deletion heads, variable head
// peers, negated bodies and bodies that leave the peer stay event rules.
func TestClassifyRemoteViewRules(t *testing.T) {
	for _, c := range []struct {
		local, rule string
		remote      bool
	}{
		{"emilien", `attendeePictures@jules($id, $name, $owner, $data) :- pictures@emilien($id, $name, $owner, $data);`, true},
		{"sigmod", `hubRatings@jules($i, $s) :- rate@sigmod($i, $s);`, true},
		{"a", `feed@f("a", $i) :- post@a($i);`, true},
		{"a", `out@f($x) :- post@a($x), lt@builtin($x, 5);`, true},
		{"jules", `attendeePictures@jules($id, $name) :- selectedAttendee@jules($a), pictures@$a($id, $name);`, false},
		{"a", `-out@f($x) :- post@a($x);`, false},
		{"a", `out@$p($x) :- post@a($x), peers@a($p);`, false},
		{"a", `out@f($x) :- post@a($x), not hidden@a($x);`, false},
		{"a", `out@f($x) :- names@a($r), $r@a($x);`, false},
		{"a", `out@f($x) :- post@a($x), more@g($x);`, false},
	} {
		e := New(c.local, store.New(), DefaultOptions())
		prog, err := e.CompileProgram(mustRules(t, c.rule))
		if err != nil {
			t.Fatal(err)
		}
		cr := prog.Rules[0]
		if cr.Remote != c.remote || cr.Event == c.remote {
			t.Errorf("at %s, %s: Remote=%v Event=%v, want Remote=%v", c.local, c.rule, cr.Remote, cr.Event, c.remote)
		}
		if got := strings.Contains(e.Explain(prog), ", remote view): "); got != c.remote {
			t.Errorf("at %s, Explain(%s) shows remote view: %v, want %v", c.local, c.rule, got, c.remote)
		}
	}
}

// TestRemoteViewSharesIngestedKey: a remote view rule that ships an ingested
// tuple as it is keeps the key string StageInput.InsKeys gave for it — the
// store's — not a copy; without InsKeys it keeps a copy.
func TestRemoteViewSharesIngestedKey(t *testing.T) {
	for _, given := range []bool{true, false} {
		db := store.New()
		rate, err := db.Declare(store.Schema{Name: "rate", Peer: "sigmod", Kind: ast.Extensional, Cols: []string{"id", "stars"}})
		if err != nil {
			t.Fatal(err)
		}
		e := New("sigmod", db, DefaultOptions())
		prog, err := e.CompileProgram(mustRules(t, `hubRatings@jules($i, $s) :- rate@sigmod($i, $s);`))
		if err != nil {
			t.Fatal(err)
		}
		rv := NewRemoteView()
		e.RunStageFull(prog, nil, rv)
		row := value.Tuple{value.Int(7), value.Int(5)}
		key := row.Key()
		rate.InsertKeyed(row, key)
		in := &StageInput{Ins: map[string][]value.Tuple{"rate@sigmod": {row}}}
		if given {
			in.InsKeys = map[string][]string{"rate@sigmod": {key}}
		}
		e.RunStageIncremental(prog, in, rv)
		held, _ := rv.Tree("jules", "hubRatings@jules").RangeKeys(0, ^uint64(0), 0)
		if len(held) != 1 || held[0] != key {
			t.Fatalf("given=%v: view holds %q, want [%q]", given, held, key)
		}
		if shared := unsafe.StringData(held[0]) == unsafe.StringData(key); shared != given {
			t.Errorf("given=%v: view's key shares the ingested key's bytes: %v", given, shared)
		}
	}
}

// TestRemoteViewRuleODelta is the O(δ) gate of remote view rules: the hub
// publish rule over 500 and over 5 000 ratings ships exactly one maintained
// op per inserted or deleted rating, and an insert-and-delete round trip
// allocates no more at 5 000 rows than at 500 (within 1.2×) — the rule is
// maintained from the delta, not re-derived and diffed.
func TestRemoteViewRuleODelta(t *testing.T) {
	allocs := func(rows int) float64 {
		db := store.New()
		if _, err := db.Declare(store.Schema{Name: "rate", Peer: "sigmod", Kind: ast.Extensional, Cols: []string{"id", "stars"}}); err != nil {
			t.Fatal(err)
		}
		e := New("sigmod", db, DefaultOptions())
		prog, err := e.CompileProgram(mustRules(t, `hubRatings@jules($i, $s) :- rate@sigmod($i, $s);`))
		if err != nil {
			t.Fatal(err)
		}
		rate := db.Get("rate", "sigmod")
		for i := 0; i < rows; i++ {
			rate.Insert(value.Tuple{value.Int(int64(i)), value.Int(5)})
		}
		rv := NewRemoteView()
		if res := e.RunStageFull(prog, nil, rv); len(res.RemoteOut["jules"]) != rows {
			t.Fatalf("first stage shipped %d ops, want %d", len(res.RemoteOut["jules"]), rows)
		}
		row := value.Tuple{value.Int(int64(rows)), value.Int(5)}
		stage := func(ins bool) *Result {
			in := &StageInput{}
			if ins {
				rate.Insert(row)
				in.Ins = map[string][]value.Tuple{"rate@sigmod": {row}}
			} else {
				rate.Delete(row)
				in.Del = map[string][]value.Tuple{"rate@sigmod": {row}}
			}
			return e.RunStageIncremental(prog, in, rv)
		}
		for _, ins := range []bool{true, false} {
			want := ast.Delete
			if ins {
				want = ast.Derive
			}
			got := stage(ins).RemoteOut["jules"]
			if len(got) != 1 || got[0].Op != want || !got[0].Maint || got[0].Fact.String() != "hubRatings@jules("+row[0].Literal()+", 5)" {
				t.Fatalf("%d rows: one %v shipped %v, want one maintained op on the new row", rows, want, got)
			}
		}
		return testing.AllocsPerRun(50, func() {
			stage(true)
			stage(false)
		})
	}
	small, large := allocs(500), allocs(5000)
	t.Logf("allocations per insert+delete round trip: %.0f at 500 rows, %.0f at 5000", small, large)
	if large > 1.2*small {
		t.Fatalf("a round trip allocates %.0f at 5000 rows, %.0f at 500: the remote head is not maintained in O(δ)", large, small)
	}
}

// TestRemoteRederiveIgnoresEventRules: a fact both a remote view rule and an
// event rule derive stays held while either does; when the remote view
// rule's derivation goes, the rederive check must not credit the event
// rule's derivation to the remote view rule — or the fact would outlive the
// event rule too.
func TestRemoteRederiveIgnoresEventRules(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext a(x)", "ext b(x)", "ext peers(p)", "int w(x)", "int v(x)")
	prog, err := e.CompileProgram(mustRules(t,
		`w@local($x) :- a@local($x);`,
		`v@far($x) :- w@local($x);`,
		`v@$p($x) :- b@local($x), peers@local($p);`,
	))
	if err != nil {
		t.Fatal(err)
	}
	insertFacts(t, db, `a@local(1);`, `b@local(1);`, `peers@local("far");`)
	rv := NewRemoteView()
	if got := e.RunStageFull(prog, nil, rv).RemoteOut["far"]; len(got) != 1 {
		t.Fatalf("first stage shipped %v, want one maintained insert", got)
	}
	one := value.Tuple{value.Int(1)}
	del := func(rel string) []RemoteOp {
		db.Get(rel, "local").Delete(one)
		res := e.RunStageIncremental(prog, &StageInput{Del: map[string][]value.Tuple{rel + "@local": {one}}}, rv)
		checkNoErrors(t, res)
		return res.RemoteOut["far"]
	}
	if got := del("a"); len(got) != 0 {
		t.Fatalf("losing the remote view derivation shipped %v; the event rule still derives v@far(1)", got)
	}
	if got := del("b"); len(got) != 1 || got[0].Op != ast.Delete || !got[0].Maint {
		t.Fatalf("losing the event derivation too shipped %v, want one maintained delete", got)
	}
	if rv.Tree("far", "v@far") != nil {
		t.Fatalf("the emptied relation keeps a summary tree")
	}
}
