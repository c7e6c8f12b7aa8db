// Package acl implements WebdamLog's access-control features as demonstrated
// in the paper:
//
//   - control of delegation (§3, Figure 3): "each delegation sent by an
//     untrusted peer will be pending in a queue until the user explicitly
//     accepts it via the Web interface. By default, all peers except the
//     sigmod peer will be considered untrusted";
//   - the sketched model of §2 "Access control": discretionary grants on
//     stored relations, plus a default policy for derived relations computed
//     from the provenance of their base facts (see ViewGuard and
//     engine.Engine.BaseSupports).
package acl

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ast"
)

// Decision is the outcome of a policy check for an incoming delegation.
type Decision uint8

// Possible decisions.
const (
	// Accept installs the delegation immediately.
	Accept Decision = iota
	// Hold queues the delegation until a user explicitly accepts it.
	Hold
	// Reject drops the delegation.
	Reject
)

// String renders the decision.
func (d Decision) String() string {
	switch d {
	case Accept:
		return "accept"
	case Hold:
		return "hold"
	case Reject:
		return "reject"
	}
	return fmt.Sprintf("decision(%d)", uint8(d))
}

// Policy decides what to do with delegations arriving from a peer.
type Policy interface {
	// DecideDelegation is consulted for each incoming delegation set.
	DecideDelegation(origin string) Decision
}

// TrustPolicy is the demonstration's policy: delegations from trusted peers
// are accepted, everything else is held for explicit approval.
type TrustPolicy struct {
	mu      sync.RWMutex
	trusted map[string]bool
}

// NewTrustPolicy builds a policy trusting exactly the given peers.
func NewTrustPolicy(trusted ...string) *TrustPolicy {
	p := &TrustPolicy{trusted: make(map[string]bool, len(trusted))}
	for _, t := range trusted {
		p.trusted[t] = true
	}
	return p
}

// Trust marks origin as trusted.
func (p *TrustPolicy) Trust(origin string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.trusted[origin] = true
}

// Distrust removes origin from the trusted set.
func (p *TrustPolicy) Distrust(origin string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.trusted, origin)
}

// Trusted reports whether origin is trusted.
func (p *TrustPolicy) Trusted(origin string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.trusted[origin]
}

// DecideDelegation implements Policy.
func (p *TrustPolicy) DecideDelegation(origin string) Decision {
	if p.Trusted(origin) {
		return Accept
	}
	return Hold
}

// OpenPolicy accepts everything (the engine-level default when no access
// control is configured).
type OpenPolicy struct{}

// DecideDelegation implements Policy.
func (OpenPolicy) DecideDelegation(string) Decision { return Accept }

// ClosedPolicy rejects all delegations (a peer that computes only for
// itself).
type ClosedPolicy struct{}

// DecideDelegation implements Policy.
func (ClosedPolicy) DecideDelegation(string) Decision { return Reject }

// PendingDelegation is a delegation held in the approval queue.
type PendingDelegation struct {
	ID     int
	Origin string
	RuleID string
	Rules  []ast.Rule
}

// String renders the pending entry the way the demo UI shows it.
func (p PendingDelegation) String() string {
	s := fmt.Sprintf("#%d from %s (rule %s):", p.ID, p.Origin, p.RuleID)
	for _, r := range p.Rules {
		s += "\n  " + r.String() + ";"
	}
	return s
}

// InstallFunc applies an accepted delegation: it replaces the rule set
// delegated by (origin, ruleID) at the local peer.
type InstallFunc func(origin, ruleID string, rules []ast.Rule)

// Controller mediates between incoming delegations and the local program,
// implementing the approval queue of Figure 3.
type Controller struct {
	policy  Policy
	install InstallFunc

	mu       sync.Mutex
	pending  map[string]*PendingDelegation // key = origin+"\x00"+ruleID
	accepted map[string]bool               // keys whose updates now auto-apply
	nextID   int
	rejected int
}

// ErrNoSuchDelegation is returned by Accept/Reject for unknown queue ids.
var ErrNoSuchDelegation = errors.New("acl: no such pending delegation")

// NewController builds a controller with the given policy. install is
// called, possibly from Accept, to apply a delegation to the local program.
func NewController(policy Policy, install InstallFunc) *Controller {
	if policy == nil {
		policy = OpenPolicy{}
	}
	return &Controller{
		policy:   policy,
		install:  install,
		pending:  make(map[string]*PendingDelegation),
		accepted: make(map[string]bool),
	}
}

// Policy returns the controller's policy (e.g. to adjust trust at runtime).
func (c *Controller) Policy() Policy { return c.policy }

// OnDelegation handles an incoming delegation set for (origin, ruleID).
// Empty rule sets are withdrawals and always apply immediately (removing
// rules can only reduce what the local peer computes for others). Updates to
// a delegation that was explicitly accepted before are auto-applied: the
// user approved the rule, and the origin is merely maintaining it.
func (c *Controller) OnDelegation(origin, ruleID string, rules []ast.Rule) Decision {
	key := origin + "\x00" + ruleID
	if len(rules) == 0 {
		c.mu.Lock()
		delete(c.pending, key)
		c.mu.Unlock()
		c.install(origin, ruleID, nil)
		return Accept
	}
	c.mu.Lock()
	wasAccepted := c.accepted[key]
	c.mu.Unlock()
	d := c.policy.DecideDelegation(origin)
	if wasAccepted && d == Hold {
		d = Accept
	}
	switch d {
	case Accept:
		c.mu.Lock()
		c.accepted[key] = true
		delete(c.pending, key)
		c.mu.Unlock()
		c.install(origin, ruleID, rules)
	case Hold:
		c.mu.Lock()
		if cur, ok := c.pending[key]; ok {
			cur.Rules = rules // origin re-sent: keep the freshest version
		} else {
			c.nextID++
			c.pending[key] = &PendingDelegation{ID: c.nextID, Origin: origin, RuleID: ruleID, Rules: rules}
		}
		c.mu.Unlock()
	case Reject:
		c.mu.Lock()
		c.rejected++
		c.mu.Unlock()
	}
	return d
}

// Pending lists queued delegations ordered by arrival.
func (c *Controller) Pending() []PendingDelegation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PendingDelegation, 0, len(c.pending))
	for _, p := range c.pending {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Rejected returns the count of delegations dropped by policy.
func (c *Controller) Rejected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rejected
}

// Accept approves pending delegation id: the rules are installed and future
// updates from the same (origin, rule) auto-apply.
func (c *Controller) Accept(id int) error {
	c.mu.Lock()
	var key string
	var found *PendingDelegation
	for k, p := range c.pending {
		if p.ID == id {
			key, found = k, p
			break
		}
	}
	if found == nil {
		c.mu.Unlock()
		return fmt.Errorf("%w: id %d", ErrNoSuchDelegation, id)
	}
	delete(c.pending, key)
	c.accepted[key] = true
	c.mu.Unlock()
	c.install(found.Origin, found.RuleID, found.Rules)
	return nil
}

// Reject drops pending delegation id.
func (c *Controller) Reject(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, p := range c.pending {
		if p.ID == id {
			delete(c.pending, k)
			c.rejected++
			return nil
		}
	}
	return fmt.Errorf("%w: id %d", ErrNoSuchDelegation, id)
}
