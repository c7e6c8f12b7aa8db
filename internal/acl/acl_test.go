package acl

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ast"
)

// template returns the i-th template of julia's rule r1: one per value the
// rule's prefix binds a peer or relation name to.
func template(i int) Template {
	return Template{Origin: "julia", RuleID: "r1", Key: fmt.Sprint(i), Rule: ast.Rule{
		Head: ast.NewAtom("out", "julia", ast.V("x")),
		Body: []ast.Atom{{Rel: ast.CStr(fmt.Sprintf("in%d", i)), Peer: ast.CStr("me"), Args: []ast.Term{ast.V("x")}}},
	}}
}

// newRecordingController returns a controller over policy and a counter of
// its ready calls.
func newRecordingController(policy Policy) (*Controller, *int) {
	n := new(int)
	return NewController(policy, func() { *n++ }), n
}

func TestTrustPolicyDecisions(t *testing.T) {
	p := NewTrustPolicy("sigmod")
	if p.DecideDelegation("sigmod") != Accept {
		t.Error("trusted peer must be accepted")
	}
	if p.DecideDelegation("stranger") != Hold {
		t.Error("untrusted peer must be held")
	}
	p.Trust("stranger")
	if p.DecideDelegation("stranger") != Accept {
		t.Error("newly trusted peer must be accepted")
	}
	p.Distrust("stranger")
	if p.DecideDelegation("stranger") != Hold {
		t.Error("distrusted peer must be held again")
	}
	if !p.Trusted("sigmod") || p.Trusted("nobody") {
		t.Error("Trusted() inconsistent")
	}
}

func TestOpenAndClosedPolicies(t *testing.T) {
	if (OpenPolicy{}).DecideDelegation("anyone") != Accept {
		t.Error("open policy must accept")
	}
	if (ClosedPolicy{}).DecideDelegation("anyone") != Reject {
		t.Error("closed policy must reject")
	}
}

func TestControllerAcceptFlow(t *testing.T) {
	c, ready := newRecordingController(NewTrustPolicy())
	if d := c.Decide(template(1)); d != Hold {
		t.Fatalf("decision = %v, want hold", d)
	}
	if d := c.Decide(template(2)); d != Hold {
		t.Fatalf("decision = %v, want hold", d)
	}
	if *ready != 0 || len(c.TakeApproved()) != 0 {
		t.Fatal("templates approved before the user accepted them")
	}
	pend := c.Pending()
	if len(pend) != 2 || pend[0].Origin != "julia" || pend[0].Key != "1" || pend[1].Key != "2" {
		t.Fatalf("pending = %v, want the two templates in arrival order", pend)
	}
	// Accepting one approves the rule: its other held template goes too.
	if err := c.Accept(pend[0].ID); err != nil {
		t.Fatal(err)
	}
	if got := c.TakeApproved(); *ready != 1 || len(got) != 2 || got[0].Key == got[1].Key {
		t.Fatalf("accept: ready called %d times, approved %v", *ready, got)
	}
	if len(c.Pending()) != 0 || len(c.TakeApproved()) != 0 {
		t.Error("queue not cleared after accept")
	}
	// Later templates of the accepted rule auto-apply.
	if d := c.Decide(template(3)); d != Accept {
		t.Errorf("maintenance decision = %v, want accept", d)
	}
}

func TestControllerRejectFlow(t *testing.T) {
	c, ready := newRecordingController(NewTrustPolicy())
	c.Decide(template(1))
	pend := c.Pending()
	if err := c.Reject(pend[0].ID); err != nil {
		t.Fatal(err)
	}
	if c.Rejected() != 1 || len(c.Pending()) != 0 {
		t.Errorf("rejected=%d pending=%d", c.Rejected(), len(c.Pending()))
	}
	if *ready != 0 || len(c.TakeApproved()) != 0 {
		t.Error("rejected delegation was approved")
	}
	// A rejected (not accepted) origin stays held on resend.
	if d := c.Decide(template(1)); d != Hold {
		t.Errorf("resend decision = %v, want hold", d)
	}
}

func TestControllerWithdrawalAlwaysApplies(t *testing.T) {
	c, _ := newRecordingController(NewTrustPolicy())
	c.Decide(template(1)) // held
	c.Decide(template(2)) // held
	c.Withdraw("1")
	if pend := c.Pending(); len(pend) != 1 || pend[0].Key != "2" {
		t.Fatalf("pending = %v, want the one template not withdrawn", pend)
	}
	c.Withdraw("2")
	c.Withdraw("3") // never held: nothing to do
	if len(c.Pending()) != 0 {
		t.Error("withdrawing every template must clear the queue")
	}
}

// TestControllerResendRefreshesPending: a template re-delivered while it is
// held (its origin's stream restarted, say) stays one entry under its first
// queue id.
func TestControllerResendRefreshesPending(t *testing.T) {
	c, _ := newRecordingController(NewTrustPolicy())
	c.Decide(template(1))
	c.Decide(template(2))
	first := c.Pending()
	c.Decide(template(1))
	if pend := c.Pending(); len(pend) != 2 || pend[0].ID != first[0].ID || pend[0].Key != "1" {
		t.Fatalf("pending = %v, want the same two entries as %v", pend, first)
	}
}

func TestControllerUnknownIDs(t *testing.T) {
	c := NewController(nil, func() {})
	if err := c.Accept(42); !errors.Is(err, ErrNoSuchDelegation) {
		t.Errorf("Accept(42) = %v", err)
	}
	if err := c.Reject(42); !errors.Is(err, ErrNoSuchDelegation) {
		t.Errorf("Reject(42) = %v", err)
	}
}

func TestControllerNilPolicyAcceptsAll(t *testing.T) {
	c, _ := newRecordingController(nil)
	if d := c.Decide(template(1)); d != Accept {
		t.Errorf("decision = %v", d)
	}
}

// TestControllerTrustApprovesHeld: once the policy trusts the origin, its
// rule's next template is accepted and the ones still held are approved
// with it, for the deciding caller to take without being called back.
func TestControllerTrustApprovesHeld(t *testing.T) {
	policy := NewTrustPolicy()
	c, ready := newRecordingController(policy)
	c.Decide(template(1))
	policy.Trust("julia")
	if d := c.Decide(template(2)); d != Accept {
		t.Fatalf("decision = %v, want accept", d)
	}
	if got := c.TakeApproved(); *ready != 0 || len(got) != 1 || got[0].Key != "1" || len(c.Pending()) != 0 {
		t.Fatalf("held template not approved: ready %d, approved %v, pending %v", *ready, got, c.Pending())
	}
}

// TestControllerConcurrentUse: a peer's stages decide, withdraw and take
// templates while a user lists, accepts and rejects the queue from another
// goroutine (run with -race): no template is handed over twice.
func TestControllerConcurrentUse(t *testing.T) {
	c := NewController(NewTrustPolicy(), func() {})
	const rules, templates = 8, 400
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the user
		defer wg.Done()
		for {
			for _, p := range c.Pending() {
				if p.ID%3 == 0 {
					c.Reject(p.ID)
				} else {
					c.Accept(p.ID)
				}
			}
			select {
			case <-done:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	installed := map[string]bool{}
	take := func(tp Template) {
		if installed[tp.Key] {
			t.Fatalf("template %s handed over twice", tp.Key)
		}
		installed[tp.Key] = true
	}
	for i := 0; i < templates; i++ {
		tp := template(i)
		tp.RuleID = fmt.Sprint(i % rules)
		if c.Decide(tp) == Accept {
			take(tp)
		}
		if i%5 == 4 {
			c.Withdraw(tp.Key)
		}
		for _, a := range c.TakeApproved() {
			take(a)
		}
	}
	close(done)
	wg.Wait()
	for _, a := range c.TakeApproved() {
		take(a)
	}
	if len(installed) == 0 {
		t.Fatal("nothing was accepted")
	}
}

func TestControllerRejectPolicy(t *testing.T) {
	c, ready := newRecordingController(ClosedPolicy{})
	if d := c.Decide(template(1)); d != Reject {
		t.Errorf("decision = %v", d)
	}
	if c.Rejected() != 1 || *ready != 0 || len(c.Pending()) != 0 {
		t.Error("reject accounting wrong")
	}
}

func TestGrants(t *testing.T) {
	g := NewGrants("alice")
	if !g.Allowed("pictures", "alice", ReadPriv|WritePriv|GrantPriv) {
		t.Error("owner must hold all privileges")
	}
	if g.Allowed("pictures", "bob", ReadPriv) {
		t.Error("no grant yet")
	}
	g.Grant("pictures", "bob", ReadPriv)
	if !g.Allowed("pictures", "bob", ReadPriv) || g.Allowed("pictures", "bob", WritePriv) {
		t.Error("grant scope wrong")
	}
	g.Grant("pictures", "bob", WritePriv)
	if !g.Allowed("pictures", "bob", ReadPriv|WritePriv) {
		t.Error("privileges must accumulate")
	}
	g.Revoke("pictures", "bob", WritePriv)
	if g.Allowed("pictures", "bob", WritePriv) || !g.Allowed("pictures", "bob", ReadPriv) {
		t.Error("revoke scope wrong")
	}
	g.Grant("pictures", "*", ReadPriv)
	if !g.Allowed("pictures", "stranger", ReadPriv) {
		t.Error("wildcard grant ignored")
	}
	if got := g.Grantees("pictures"); len(got) != 2 {
		t.Errorf("grantees = %v", got)
	}
}

func TestPrivilegeString(t *testing.T) {
	if got := (ReadPriv | WritePriv).String(); got != "read|write" {
		t.Errorf("priv string = %q", got)
	}
	if got := Privilege(0).String(); got != "none" {
		t.Errorf("zero priv = %q", got)
	}
}

type fakeProv map[string][]ast.Fact

func (f fakeProv) BaseSupports(fact ast.Fact) []ast.Fact { return f[fact.Key()] }

func TestViewGuardProvenancePolicy(t *testing.T) {
	g := NewGrants("alice")
	base1 := ast.NewFact("pictures", "alice")
	base2 := ast.NewFact("private", "alice")
	view := ast.NewFact("album", "alice")
	prov := fakeProv{view.Key(): {base1, base2}}
	vg := NewViewGuard(g, prov)

	g.Grant("pictures", "bob", ReadPriv)
	if vg.CanRead("bob", view, true) {
		t.Error("bob cannot read: private base fact not granted")
	}
	g.Grant("private", "bob", ReadPriv)
	if !vg.CanRead("bob", view, true) {
		t.Error("bob must read once all base facts are granted")
	}
	// Extensional facts check the relation directly.
	if vg.CanRead("carol", base1, false) {
		t.Error("carol has no grant on pictures")
	}
	if !vg.CanRead("alice", base2, false) {
		t.Error("owner always reads")
	}
}

func TestViewGuardDeclassify(t *testing.T) {
	g := NewGrants("alice")
	view := ast.NewFact("album", "alice")
	secret := ast.NewFact("private", "alice")
	prov := fakeProv{view.Key(): {secret}}
	vg := NewViewGuard(g, prov)

	if vg.CanRead("bob", view, true) {
		t.Error("default provenance policy must deny")
	}
	// "a user may override this policy … effectively declassifying some data"
	vg.Declassify("album")
	g.Grant("album", "bob", ReadPriv)
	if !vg.CanRead("bob", view, true) {
		t.Error("declassified view with a grant must be readable")
	}
	vg.Reclassify("album")
	if vg.CanRead("bob", view, true) {
		t.Error("reclassified view must deny again")
	}
	if vg.Declassified("album") {
		t.Error("Declassified() stale")
	}
}

func TestViewGuardNoProvenanceFallsBack(t *testing.T) {
	g := NewGrants("alice")
	vg := NewViewGuard(g, fakeProv{})
	view := ast.NewFact("album", "alice")
	if vg.CanRead("bob", view, true) {
		t.Error("no grants: deny")
	}
	g.Grant("album", "bob", ReadPriv)
	if !vg.CanRead("bob", view, true) {
		t.Error("fallback to grants on the view itself")
	}
}

func TestDecisionString(t *testing.T) {
	if Accept.String() != "accept" || Hold.String() != "hold" || Reject.String() != "reject" {
		t.Error("Decision.String broken")
	}
}
