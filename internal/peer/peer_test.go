package peer

import (
	"context"
	"strings"
	"testing"

	"repro/internal/acl"
	"repro/internal/ast"
	"repro/internal/value"
)

func newTestNetwork(t *testing.T, names ...string) (*Network, map[string]*Peer) {
	t.Helper()
	n := closingNetwork(t)
	peers := make(map[string]*Peer, len(names))
	for _, name := range names {
		p, err := n.NewPeer(Config{Name: name})
		if err != nil {
			t.Fatalf("NewPeer(%s): %v", name, err)
		}
		peers[name] = p
	}
	return n, peers
}

// closingNetwork is NewNetwork whose peers close when the test ends, so
// that no flusher of theirs runs on into later tests — whose allocation
// counts, taken process-wide, it would inflate.
func closingNetwork(t testing.TB) *Network {
	n := NewNetwork()
	t.Cleanup(func() {
		for _, p := range n.Peers() {
			p.Close()
		}
	})
	return n
}

func quiesce(t *testing.T, n *Network) int {
	t.Helper()
	_, stages, err := n.RunToQuiescence(context.Background(), 200)
	if err != nil {
		t.Fatalf("RunToQuiescence: %v", err)
	}
	return stages
}

func tuples(p *Peer, rel string) []string {
	var out []string
	for _, tp := range p.Query(rel) {
		out = append(out, tp.String())
	}
	return out
}

func TestSinglePeerFixpointThroughStages(t *testing.T) {
	n, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	if err := alice.LoadSource(`
		relation extensional edge@alice(a, b);
		relation intensional tc@alice(a, b);
		edge@alice("a","b");
		edge@alice("b","c");
		tc@alice($x,$y) :- edge@alice($x,$y);
		tc@alice($x,$z) :- tc@alice($x,$y), edge@alice($y,$z);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	got := tuples(alice, "tc")
	if len(got) != 3 {
		t.Errorf("tc = %v, want 3 tuples", got)
	}
}

func TestRemoteFactDelivery(t *testing.T) {
	n, ps := newTestNetwork(t, "alice", "bob")
	alice, bob := ps["alice"], ps["bob"]
	if err := bob.DeclareRelation("inbox", ast.Extensional, "x"); err != nil {
		t.Fatal(err)
	}
	if err := alice.LoadSource(`
		relation extensional out@alice(x);
		out@alice("hello");
		inbox@bob($x) :- out@alice($x);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(bob, "inbox"); len(got) != 1 || got[0] != "(hello)" {
		t.Errorf("bob inbox = %v, want [(hello)]", got)
	}
}

func TestPaperDelegationScenario(t *testing.T) {
	// §2 of the paper: Jules' rule delegates the residual
	//   attendeePictures@jules(...) :- pictures@emilien(...)
	// to emilien once selectedAttendee@jules("emilien") holds.
	n, ps := newTestNetwork(t, "jules", "emilien")
	jules, emilien := ps["jules"], ps["emilien"]
	if err := emilien.LoadSource(`
		relation extensional pictures@emilien(id, name, owner, data);
		pictures@emilien(1, "sea.jpg", "emilien", 0xABCD);
		pictures@emilien(2, "sky.jpg", "emilien", 0x1234);
	`); err != nil {
		t.Fatal(err)
	}
	if err := jules.LoadSource(`
		relation extensional selectedAttendee@jules(attendee);
		relation intensional attendeePictures@jules(id, name, owner, data);
		attendeePictures@jules($id,$name,$owner,$data) :-
			selectedAttendee@jules($attendee),
			pictures@$attendee($id,$name,$owner,$data);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(jules, "attendeePictures"); len(got) != 0 {
		t.Fatalf("no attendee selected yet, but attendeePictures = %v", got)
	}

	if err := jules.InsertString(`selectedAttendee@jules("emilien");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)

	// The residual rule must now be installed at emilien.
	delegated := emilien.DelegatedRules()["jules"]
	if len(delegated) != 1 {
		t.Fatalf("emilien has %d delegated rules from jules, want 1: %v", len(delegated), delegated)
	}
	wantRule := `attendeePictures@jules($id, $name, $owner, $data) :- pictures@emilien($id, $name, $owner, $data)`
	if got := delegated[0].String(); got != wantRule {
		t.Errorf("delegated rule = %q, want %q", got, wantRule)
	}
	// And jules sees emilien's pictures.
	if got := tuples(jules, "attendeePictures"); len(got) != 2 {
		t.Errorf("attendeePictures = %v, want 2 pictures", got)
	}

	// Adding a picture at emilien flows to jules without further setup.
	if err := emilien.InsertString(`pictures@emilien(3, "dinner.jpg", "emilien", 0x99);`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(jules, "attendeePictures"); len(got) != 3 {
		t.Errorf("after new upload, attendeePictures = %v, want 3", got)
	}

	// Deselecting the attendee withdraws the delegation (maintenance).
	if err := jules.DeleteString(`selectedAttendee@jules("emilien");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := emilien.DelegatedRules()["jules"]; len(got) != 0 {
		t.Errorf("delegation not withdrawn: %v", got)
	}
	if got := tuples(jules, "attendeePictures"); len(got) != 0 {
		t.Errorf("attendeePictures after withdrawal = %v, want empty", got)
	}
}

func TestDelegationControlHoldAndAccept(t *testing.T) {
	// Figure 3 of the paper: an untrusted peer's delegation waits in a
	// queue; the program changes only after explicit approval.
	n := closingNetwork(t)
	jules, err := n.NewPeer(Config{Name: "jules", Policy: acl.NewTrustPolicy("sigmod")})
	if err != nil {
		t.Fatal(err)
	}
	julia, err := n.NewPeer(Config{Name: "julia"})
	if err != nil {
		t.Fatal(err)
	}
	if err := jules.LoadSource(`
		relation extensional pictures@jules(id);
		pictures@jules(7);
	`); err != nil {
		t.Fatal(err)
	}
	// Julia wants jules to push his picture ids to her.
	if err := julia.LoadSource(`
		relation extensional trigger@julia(p);
		relation extensional collected@julia(id);
		trigger@julia("jules");
		collected@julia($id) :- trigger@julia($p), pictures@$p($id);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)

	// The delegation must be pending, not installed.
	if got := jules.DelegatedRules()["julia"]; len(got) != 0 {
		t.Fatalf("delegation installed without approval: %v", got)
	}
	pend := jules.Controller().Pending()
	if len(pend) != 1 {
		t.Fatalf("pending queue = %v, want 1 entry", pend)
	}
	if got := tuples(julia, "collected"); len(got) != 0 {
		t.Errorf("julia got data before approval: %v", got)
	}

	// Jules accepts; the rule is installed and data flows.
	if err := jules.Controller().Accept(pend[0].ID); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := jules.DelegatedRules()["julia"]; len(got) != 1 {
		t.Fatalf("delegation not installed after approval: %v", got)
	}
	if got := tuples(julia, "collected"); len(got) != 1 || got[0] != "(7)" {
		t.Errorf("julia collected = %v, want [(7)]", got)
	}
	if !strings.Contains(jules.ProgramText(), "delegated by julia") {
		t.Errorf("program text does not show the delegated rule:\n%s", jules.ProgramText())
	}
}

func TestDelegationControlReject(t *testing.T) {
	n := closingNetwork(t)
	jules, err := n.NewPeer(Config{Name: "jules", Policy: acl.NewTrustPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	julia, err := n.NewPeer(Config{Name: "julia"})
	if err != nil {
		t.Fatal(err)
	}
	if err := jules.DeclareRelation("pictures", ast.Extensional, "id"); err != nil {
		t.Fatal(err)
	}
	if err := julia.LoadSource(`
		relation extensional trigger@julia(p);
		trigger@julia("jules");
		collected@julia($id) :- trigger@julia($p), pictures@$p($id);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	pend := jules.Controller().Pending()
	if len(pend) != 1 {
		t.Fatalf("pending = %v", pend)
	}
	if err := jules.Controller().Reject(pend[0].ID); err != nil {
		t.Fatal(err)
	}
	if jules.Controller().Rejected() != 1 {
		t.Errorf("rejected count = %d, want 1", jules.Controller().Rejected())
	}
	if len(jules.Controller().Pending()) != 0 {
		t.Errorf("queue not emptied after reject")
	}
	quiesce(t, n)
	if got := jules.DelegatedRules()["julia"]; len(got) != 0 {
		t.Errorf("rejected delegation was installed: %v", got)
	}
}

// TestDelegationControlPerResidual: under a policy that holds everything,
// the user approves a delegating rule's template, not each valuation. The
// template waits in one approval entry while its bindings wait, unread, in
// their relation; a binding withdrawn while the template is pending leaves
// it pending, the user's acceptance lets the next stage install it, and a
// later valuation flows without approval. Another rule of the same origin
// is held on its own and rejected: its bindings stay unread until its
// origin withdraws the template and, trusted now, delegates it again.
func TestDelegationControlPerResidual(t *testing.T) {
	n := NewSequentialNetwork()
	jules, err := n.NewPeer(Config{Name: "jules", Policy: acl.NewTrustPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	julia, err := n.NewPeer(Config{Name: "julia"})
	if err != nil {
		t.Fatal(err)
	}
	if err := jules.LoadSource(`
		relation extensional pictures@jules(id, tag);
		pictures@jules(1, "sea");
		pictures@jules(2, "sky");
		pictures@jules(3, "sun");
	`); err != nil {
		t.Fatal(err)
	}
	if err := julia.LoadSource(`
		relation extensional wanted@julia(p, tag);
		relation extensional collected@julia(id, tag);
		relation extensional asked@julia(p, tag);
		relation extensional other@julia(id);
		wanted@julia("jules", "sea");
		wanted@julia("jules", "sky");
		collected@julia($id, $tag) :- wanted@julia($p, $tag), pictures@$p($id, $tag);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	ctrl := jules.Controller()
	pend := ctrl.Pending()
	if len(pend) != 1 || pend[0].RuleID != "r1" || len(jules.DelegatedRules()) != 0 {
		t.Fatalf("pending = %v, installed %v; want one entry holding the rule's template, nothing installed", pend, jules.DelegatedRules())
	}

	// A binding withdrawn while the template is pending leaves it pending.
	if err := julia.DeleteString(`wanted@julia("jules", "sky");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := ctrl.Pending(); len(got) != 1 || got[0].ID != pend[0].ID {
		t.Fatalf("pending after the withdrawal = %v, want %v", got, pend)
	}

	// Accepting installs it at jules' next stage; data flows.
	if err := ctrl.Accept(pend[0].ID); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(julia, "collected"); len(jules.DelegatedRules()["julia"]) != 1 || len(got) != 1 || got[0] != "(1, sea)" {
		t.Fatalf("after the acceptance jules installed %v and julia collected %v; want the template and [(1, sea)]",
			jules.DelegatedRules(), got)
	}

	// A later valuation of the accepted rule is a binding: no approval.
	if err := julia.InsertString(`wanted@julia("jules", "sun");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(julia, "collected"); len(ctrl.Pending()) != 0 || len(got) != 2 {
		t.Fatalf("a later valuation: pending %v, julia collected %v; want it flowing without approval", ctrl.Pending(), got)
	}

	// Another rule of julia's is held on its own, and rejected.
	if _, err := julia.AddRule(`other@julia($id) :- asked@julia($p, $t), pictures@$p($id, $t)`); err != nil {
		t.Fatal(err)
	}
	if err := julia.InsertString(`asked@julia("jules", "sky");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if pend = ctrl.Pending(); len(pend) != 1 {
		t.Fatalf("pending = %v, want the other rule's template", pend)
	}
	if err := ctrl.Reject(pend[0].ID); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(julia, "other"); ctrl.Rejected() != 1 || len(jules.DelegatedRules()["julia"]) != 1 || len(got) != 0 {
		t.Fatalf("after the rejection: rejected %d, installed %v, julia's other = %v; want 1, one template, nothing",
			ctrl.Rejected(), jules.DelegatedRules(), got)
	}

	// Its next valuation holds the template again. Once julia is trusted,
	// the valuation after that installs it in the stage that receives it:
	// the template stands for every valuation, the earlier ones included.
	if err := julia.InsertString(`asked@julia("jules", "sun");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if pend = ctrl.Pending(); len(pend) != 1 || len(tuples(julia, "other")) != 0 {
		t.Fatalf("pending = %v, julia's other = %v; want the other rule's template held again, nothing", pend, tuples(julia, "other"))
	}
	ctrl.Policy().(*acl.TrustPolicy).Trust("julia")
	if err := julia.InsertString(`asked@julia("jules", "sea");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(julia, "other"); len(ctrl.Pending()) != 0 || len(got) != 3 || len(jules.DelegatedRules()["julia"]) != 2 {
		t.Fatalf("trusted: pending %v, julia's other = %v, installed %v; want nothing pending, [(1) (2) (3)] and two templates",
			ctrl.Pending(), got, jules.DelegatedRules())
	}
}

// TestChainedTemplateHeldApart: a's rule r1 delegates to b, and b's
// installed template delegates on to c; b's own rule r1 also delegates to c,
// and c's user approved it. a's chained template is another rule of b's at
// c, so it waits in c's queue: approving one rule approves no other.
func TestChainedTemplateHeldApart(t *testing.T) {
	n := NewSequentialNetwork()
	peers := map[string]*Peer{}
	for _, name := range []string{"a", "b", "c"} {
		p, err := n.NewPeer(Config{Name: name, Policy: acl.NewTrustPolicy("a")})
		if err != nil {
			t.Fatal(err)
		}
		peers[name] = p
	}
	a, b, c := peers["a"], peers["b"], peers["c"]
	for p, src := range map[*Peer]string{
		c: `relation extensional data@c(x); data@c(1); data@c(2);`,
		b: `relation extensional src@b(x); relation extensional mid@b(x); relation extensional outb@b(x);
			src@b(1); mid@b(2);
			outb@b($x) :- src@b($x), data@c($x);`,
		a: `relation extensional go@a(x); relation extensional outa@a(x);
			go@a(2);
			outa@a($x) :- go@a($x), mid@b($x), data@c($x);`,
	} {
		if err := p.LoadSource(src); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, n)
	// b's own r1 is the first rule c holds; approve it alone.
	pend := c.Controller().Pending()
	if len(pend) == 0 || pend[0].Origin != "b" || pend[0].RuleID != "r1" {
		t.Fatalf("c's queue = %v, want b's own r1 first", pend)
	}
	if err := c.Controller().Accept(pend[0].ID); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(b, "outb"); len(got) != 1 || len(tuples(a, "outa")) != 0 {
		t.Fatalf("after approving b's r1: b's outb = %v, a's outa = %v; want [(1)] and nothing", got, tuples(a, "outa"))
	}
	pend = c.Controller().Pending()
	if len(pend) != 1 || pend[0].Origin != "b" || pend[0].RuleID == "r1" {
		t.Fatalf("c's queue = %v, want a's chained template held, under an ID of its own", pend)
	}
	if err := c.Controller().Accept(pend[0].ID); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(a, "outa"); len(got) != 1 || got[0] != "(2)" {
		t.Fatalf("after approving the chained template a's outa = %v, want [(2)]", got)
	}
}

func TestTransferRuleWithVariableProtocolAndPeer(t *testing.T) {
	// The paper's picture-transfer rule: the head relation AND peer both
	// come from data.
	n, ps := newTestNetwork(t, "jules", "emilien")
	jules, emilien := ps["jules"], ps["emilien"]
	if err := emilien.LoadSource(`
		relation extensional communicate@emilien(protocol);
		relation extensional wepic@emilien(attendee, name, id, owner);
		communicate@emilien("wepic");
	`); err != nil {
		t.Fatal(err)
	}
	if err := jules.LoadSource(`
		relation extensional selectedAttendee@jules(attendee);
		relation extensional selectedPictures@jules(name, id, owner);
		selectedAttendee@jules("emilien");
		selectedPictures@jules("sea.jpg", 1, "jules");
		$protocol@$attendee($attendee, $name, $id, $owner) :-
			selectedAttendee@jules($attendee),
			communicate@$attendee($protocol),
			selectedPictures@jules($name, $id, $owner);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	got := tuples(emilien, "wepic")
	if len(got) != 1 || got[0] != "(emilien, sea.jpg, 1, jules)" {
		t.Errorf("emilien wepic = %v", got)
	}
}

func TestTransientIntensionalFacts(t *testing.T) {
	// A fact sent to a remote *intensional* relation holds for exactly one
	// stage at the destination.
	n, ps := newTestNetwork(t, "alice", "bob")
	alice, bob := ps["alice"], ps["bob"]
	if err := bob.LoadSource(`
		relation intensional ping@bob(x);
		relation extensional log@bob(x);
		log@bob($x) :- ping@bob($x);
	`); err != nil {
		t.Fatal(err)
	}
	if err := alice.DeclareRelation("dummy", ast.Extensional, "x"); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	// Alice pushes a transient fact straight to bob's view.
	if err := alice.Insert(ast.NewFact("ping", "bob", value.Str("p1"))); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(bob, "log"); len(got) != 1 || got[0] != "(p1)" {
		t.Fatalf("bob log = %v, want [(p1)]", got)
	}
	// The transient fact itself must be gone after the stage that consumed it.
	if got := tuples(bob, "ping"); len(got) != 0 {
		t.Errorf("transient fact persisted in view: %v", got)
	}
}

func TestRuleCustomizationChangesView(t *testing.T) {
	// §4 "Customizing rules": replacing the rule with the rating-5 variant
	// changes the contents of attendeePictures.
	n, ps := newTestNetwork(t, "jules", "emilien")
	jules, emilien := ps["jules"], ps["emilien"]
	if err := emilien.LoadSource(`
		relation extensional pictures@emilien(id, name, owner, data);
		relation extensional rate@emilien(id, stars);
		pictures@emilien(1, "sea.jpg", "emilien", 0x01);
		pictures@emilien(2, "sky.jpg", "emilien", 0x02);
		rate@emilien(1, 5);
		rate@emilien(2, 3);
	`); err != nil {
		t.Fatal(err)
	}
	if err := jules.LoadSource(`
		relation extensional selectedAttendee@jules(attendee);
		relation intensional attendeePictures@jules(id, name, owner, data);
		selectedAttendee@jules("emilien");
	`); err != nil {
		t.Fatal(err)
	}
	id, err := jules.AddRule(`attendeePictures@jules($id,$name,$owner,$data) :-
		selectedAttendee@jules($attendee),
		pictures@$attendee($id,$name,$owner,$data);`)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(jules, "attendeePictures"); len(got) != 2 {
		t.Fatalf("attendeePictures = %v, want 2", got)
	}

	// Customize: only rating-5 pictures (the owner is the rater, as in the
	// paper's example).
	if err := jules.ReplaceRule(id, `attendeePictures@jules($id,$name,$owner,$data) :-
		selectedAttendee@jules($attendee),
		pictures@$attendee($id,$name,$owner,$data),
		rate@$owner($id, 5);`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	got := tuples(jules, "attendeePictures")
	if len(got) != 1 || !strings.HasPrefix(got[0], "(1, sea.jpg") {
		t.Errorf("customized attendeePictures = %v, want only picture 1", got)
	}
}

func TestChainedDelegation(t *testing.T) {
	// a's rule reads b then c: the residual delegated to b still contains a
	// non-local atom, so b re-delegates to c.
	n, ps := newTestNetwork(t, "a", "b", "c")
	pa, pb, pc := ps["a"], ps["b"], ps["c"]
	if err := pb.LoadSource(`
		relation extensional mid@b(x);
		mid@b("m");
	`); err != nil {
		t.Fatal(err)
	}
	if err := pc.LoadSource(`
		relation extensional leaf@c(x, y);
		leaf@c("m", "z");
	`); err != nil {
		t.Fatal(err)
	}
	if err := pa.LoadSource(`
		relation extensional seed@a(x);
		relation extensional got@a(y);
		seed@a("go");
		got@a($y) :- seed@a($x), mid@b($m), leaf@c($m, $y);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(pa, "got"); len(got) != 1 || got[0] != "(z)" {
		t.Errorf("a got = %v, want [(z)]", got)
	}
	if got := pc.DelegatedRules()["b"]; len(got) != 1 {
		t.Errorf("c should hold a re-delegated rule from b, got %v", got)
	}
}

func TestDeletePropagatesRemotely(t *testing.T) {
	n, ps := newTestNetwork(t, "alice", "bob")
	alice, bob := ps["alice"], ps["bob"]
	if err := bob.LoadSource(`
		relation extensional data@bob(x);
		data@bob("old");
	`); err != nil {
		t.Fatal(err)
	}
	if err := alice.LoadSource(`
		relation extensional purge@alice(x);
		purge@alice("old");
		-data@bob($x) :- purge@alice($x);
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := tuples(bob, "data"); len(got) != 0 {
		t.Errorf("bob data = %v, want empty after remote deletion", got)
	}
}

func TestStageSkippedWhenNothingChanges(t *testing.T) {
	n, ps := newTestNetwork(t, "alice")
	alice := ps["alice"]
	if err := alice.LoadSource(`
		relation extensional a@alice(x);
		a@alice("v");
	`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	before := alice.Stats().Stages
	// Re-inserting an existing fact is a no-op: the stage must be skipped.
	if err := alice.InsertString(`a@alice("v");`); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	after := alice.Stats()
	if after.Stages != before {
		t.Errorf("stage ran on a no-op insert: %d -> %d", before, after.Stages)
	}
	if after.StagesSkipped == 0 {
		t.Errorf("expected a skipped stage to be recorded")
	}
}

func TestUnsafeRuleRejectedSynchronously(t *testing.T) {
	n, ps := newTestNetwork(t, "alice")
	_ = n
	if _, err := ps["alice"].AddRule(`out@alice($x, $y) :- in@alice($x);`); err == nil {
		t.Fatal("expected safety error")
	}
}

func TestRemoveRuleWithdrawsDelegations(t *testing.T) {
	n, ps := newTestNetwork(t, "jules", "emilien")
	jules, emilien := ps["jules"], ps["emilien"]
	if err := emilien.DeclareRelation("pictures", ast.Extensional, "id"); err != nil {
		t.Fatal(err)
	}
	if err := jules.LoadSource(`
		relation extensional sel@jules(a);
		sel@jules("emilien");
	`); err != nil {
		t.Fatal(err)
	}
	id, err := jules.AddRule(`view@jules($id) :- sel@jules($a), pictures@$a($id);`)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := emilien.DelegatedRules()["jules"]; len(got) != 1 {
		t.Fatalf("delegation missing: %v", got)
	}
	if err := jules.RemoveRule(id); err != nil {
		t.Fatal(err)
	}
	quiesce(t, n)
	if got := emilien.DelegatedRules()["jules"]; len(got) != 0 {
		t.Errorf("delegation survives rule removal: %v", got)
	}
}

func TestProgramTextListsRules(t *testing.T) {
	n, ps := newTestNetwork(t, "alice")
	_ = n
	alice := ps["alice"]
	if _, err := alice.AddRule(`b@alice($x) :- a@alice($x);`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(alice.ProgramText(), "b@alice($x) :- a@alice($x);") {
		t.Errorf("program text missing rule:\n%s", alice.ProgramText())
	}
}
