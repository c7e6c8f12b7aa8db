package peer

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/acl"
	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/value"
)

// TestProvenanceRecordedAcrossStages checks that why-provenance answers for
// facts derived during a peer stage, including multi-rule chains.
func TestProvenanceRecordedAcrossStages(t *testing.T) {
	n := NewNetwork()
	p, err := n.NewPeer(Config{Name: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadSource(`
		relation extensional pictures@alice(id);
		relation extensional private@alice(id);
		relation intensional album@alice(id);
		relation intensional featured@alice(id);
		pictures@alice(1);
		private@alice(1);
		album@alice($x) :- pictures@alice($x), private@alice($x);
		featured@alice($x) :- album@alice($x);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)

	album := ast.NewFact("album", "alice", value.Int(1))
	featured := ast.NewFact("featured", "alice", value.Int(1))
	why := p.Why(album)
	if len(why) != 1 || len(why[0].Supports) != 2 {
		t.Fatalf("why(album) = %v", why)
	}
	// The exact support set: both base facts, in written body order.
	if got, want := fmt.Sprint(why[0].Supports), "[pictures@alice(1) private@alice(1)]"; got != want {
		t.Fatalf("why(album) supports = %s, want %s", got, want)
	}
	if why := p.Why(featured); len(why) != 1 || fmt.Sprint(why[0].Supports) != "[album@alice(1)]" {
		t.Fatalf("why(featured) = %v, want one derivation from album@alice(1)", why)
	}
	// featured's base supports reach through album to the two base facts.
	base := p.BaseSupports(featured)
	if len(base) != 2 {
		t.Fatalf("base supports = %v, want the 2 extensional facts", base)
	}
	for _, f := range base {
		if f.Rel != "pictures" && f.Rel != "private" {
			t.Errorf("unexpected base support %v", f)
		}
	}
}

// TestViewGuardOverPeerProvenance wires the paper's sketched model end to
// end: grants on stored relations + the provenance-derived default policy
// for views, with declassification as the override.
func TestViewGuardOverPeerProvenance(t *testing.T) {
	n := NewNetwork()
	p, err := n.NewPeer(Config{Name: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadSource(`
		relation extensional pictures@alice(id);
		relation extensional private@alice(id);
		relation intensional album@alice(id);
		pictures@alice(1);
		private@alice(1);
		album@alice($x) :- pictures@alice($x), private@alice($x);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)

	grants := acl.NewGrants("alice")
	guard := acl.NewViewGuard(grants, p)
	view := ast.NewFact("album", "alice", value.Int(1))

	// Bob can read pictures but not private: the view is denied.
	grants.Grant("pictures", "bob", acl.ReadPriv)
	if guard.CanRead("bob", view, true) {
		t.Error("view readable although a base fact is not granted")
	}
	// Granting the second base relation opens the view.
	grants.Grant("private", "bob", acl.ReadPriv)
	if !guard.CanRead("bob", view, true) {
		t.Error("view denied although all base facts are granted")
	}
	// Declassification: carol gets the view without any base grants.
	if guard.CanRead("carol", view, true) {
		t.Error("carol must not read before declassification")
	}
	guard.Declassify("album")
	grants.Grant("album", "carol", acl.ReadPriv)
	if !guard.CanRead("carol", view, true) {
		t.Error("declassified view with a direct grant must be readable")
	}
}

// TestProvenanceResetsPerStage checks that stale derivations do not leak
// across stages: a fact no longer derivable has no answer.
func TestProvenanceResetsPerStage(t *testing.T) {
	n := NewNetwork()
	p, err := n.NewPeer(Config{Name: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadSource(`
		relation extensional src@alice(x);
		relation intensional view@alice(x);
		src@alice("a");
		view@alice($x) :- src@alice($x);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	old := ast.NewFact("view", "alice", value.Str("a"))
	if len(p.Why(old)) == 0 {
		t.Fatal("no derivation reported")
	}
	if err := p.DeleteString(`src@alice("a");`); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertString(`src@alice("b");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if len(p.Why(old)) != 0 {
		t.Error("stale provenance for a fact no longer derivable")
	}
	if len(p.Why(ast.NewFact("view", "alice", value.Str("b")))) == 0 {
		t.Error("fresh derivation missing")
	}
}

// TestProvenancePeerStaysIncremental: answering provenance questions costs
// the stage loop nothing — after one insert into a 5 000-row base the stage
// derives one view row, and Why and BaseSupports answer for it.
func TestProvenancePeerStaysIncremental(t *testing.T) {
	n := NewNetwork()
	p, err := n.NewPeer(Config{Name: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadSource(`
		relation extensional src@alice(x);
		relation intensional view@alice(x);
		view@alice($x) :- src@alice($x);
	`); err != nil {
		t.Fatal(err)
	}
	b := engine.NewBatch()
	for i := 0; i < 5000; i++ {
		b.Insert(ast.NewFact("src", "alice", value.Int(int64(i))))
	}
	if err := p.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if err := p.InsertString(`src@alice(5000);`); err != nil {
		t.Fatal(err)
	}
	if rep := p.RunStage(); rep.Derived != 1 {
		t.Fatalf("StageReport.Derived = %d after one insert, want 1", rep.Derived)
	}
	row := ast.NewFact("view", "alice", value.Int(5000))
	if why := p.Why(row); len(why) != 1 || fmt.Sprint(why[0].Supports) != "[src@alice(5000)]" {
		t.Fatalf("Why(%s) = %v", row, why)
	}
	if base := p.BaseSupports(row); fmt.Sprint(base) != "[src@alice(5000)]" {
		t.Fatalf("BaseSupports(%s) = %v", row, base)
	}
}

// TestStageReportShape sanity-checks the metrics the benchmarks rely on.
func TestStageReportShape(t *testing.T) {
	n := NewNetwork()
	p, err := n.NewPeer(Config{Name: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadSource(`
		relation extensional a@alice(x);
		relation intensional b@alice(x);
		a@alice("v");
		b@alice($x) :- a@alice($x);
	`); err != nil {
		t.Fatal(err)
	}
	rep := p.RunStage()
	if !rep.Ran || rep.Stage != 1 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Applied != 1 || rep.Derived != 1 {
		t.Errorf("applied=%d derived=%d", rep.Applied, rep.Derived)
	}
	if rep.Duration() <= 0 {
		t.Error("durations not recorded")
	}
	stats := p.Stats()
	if stats.Stages != 1 || stats.Derived != 1 || stats.UpdatesApplied != 1 {
		t.Errorf("stats = %+v", stats)
	}
}
