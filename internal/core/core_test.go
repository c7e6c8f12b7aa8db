package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/acl"
	"repro/internal/engine"
)

func TestLoadSourceMultiPeer(t *testing.T) {
	sys := NewSystem()
	err := sys.LoadSource(`
		peer emilien;
		relation extensional pictures@emilien(id, name, owner, data);
		pictures@emilien(1, "sea.jpg", "emilien", 0xCAFE);

		peer jules;
		relation extensional selectedAttendee@jules(attendee);
		relation intensional attendeePictures@jules(id, name, owner, data);
		selectedAttendee@jules("emilien");
		attendeePictures@jules($id,$name,$owner,$data) :-
			selectedAttendee@jules($attendee),
			pictures@$attendee($id,$name,$owner,$data);
	`)
	if err != nil {
		t.Fatal(err)
	}
	rounds, stages, err := sys.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rounds == 0 || stages == 0 {
		t.Errorf("rounds=%d stages=%d", rounds, stages)
	}
	got := sys.Peer("jules").Query("attendeePictures")
	if len(got) != 1 {
		t.Fatalf("attendeePictures = %v", got)
	}
}

func TestLoadSourceRoutesCrossPeerFacts(t *testing.T) {
	sys := NewSystem()
	// A fact for bob written inside alice's section must land at bob.
	err := sys.LoadSource(`
		peer bob;
		relation extensional inbox@bob(x);

		peer alice;
		relation extensional out@alice(x);
		inbox@bob("direct");
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys.MustRun()
	if got := sys.Peer("bob").Query("inbox"); len(got) != 1 {
		t.Errorf("bob inbox = %v", got)
	}
}

func TestLoadSourceRuleWithoutPeerContext(t *testing.T) {
	sys := NewSystem()
	// No `peer` statement: a constant-head rule runs at its head peer.
	err := sys.LoadSource(`
		relation extensional a@alice(x);
		relation intensional b@alice(x);
		a@alice("v");
		b@alice($x) :- a@alice($x);
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys.MustRun()
	if got := sys.Peer("alice").Query("b"); len(got) != 1 {
		t.Errorf("b = %v", got)
	}
}

func TestLoadSourceVariableHeadNeedsContext(t *testing.T) {
	sys := NewSystem()
	err := sys.LoadSource(`
		relation extensional a@alice(x);
		b@$p("v") :- a@alice($p);
	`)
	if err == nil || !strings.Contains(err.Error(), "peer") {
		t.Errorf("err = %v, want peer-context error", err)
	}
}

func TestAddPeerOptions(t *testing.T) {
	sys := NewSystem()
	p, err := sys.AddPeer("guarded",
		WithPolicy(acl.NewTrustPolicy("hub")),
		WithEngineOptions(engine.Options{Incremental: false, MaxIterations: 10}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if o := p.Engine().Options(); o.Incremental || o.MaxIterations != 10 {
		t.Error("engine options not applied")
	}
	if p.Controller().Policy().DecideDelegation("stranger") != acl.Hold {
		t.Error("policy not applied")
	}
}

func TestDuplicatePeerNamesShareBusEndpoint(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.AddPeer("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddPeer("dup"); err != nil {
		t.Fatal(err) // second registration is tolerated; first peer wins in the registry
	}
	if sys.Peer("dup") == nil {
		t.Fatal("peer lookup failed")
	}
	if got := len(sys.Peers()); got != 1 {
		t.Errorf("peers = %d, want 1", got)
	}
}

func TestParseErrorSurfaces(t *testing.T) {
	sys := NewSystem()
	if err := sys.LoadSource(`this is not webdamlog`); err == nil {
		t.Error("parse error swallowed")
	}
}
