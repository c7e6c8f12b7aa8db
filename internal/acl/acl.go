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
	// DecideDelegation is consulted for each incoming template.
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

// Template is one delegated rule as the controller sees it: a template its
// origin's rule RuleID delegates here, identified by Key. Approving it
// approves every valuation: the bindings that instantiate a template are
// facts, and never reach the controller.
type Template struct {
	Origin, RuleID, Key string
	Rule                ast.Rule
}

// PendingDelegation is a template held in the approval queue.
type PendingDelegation struct {
	ID int
	Template
}

// String renders the pending entry the way the demo UI shows it.
func (p PendingDelegation) String() string {
	return fmt.Sprintf("#%d from %s (rule %s):\n  %s;", p.ID, p.Origin, p.RuleID, p.Rule.String())
}

// Controller mediates between incoming delegations and the local program,
// implementing the approval queue of Figure 3. It only decides: the peer
// installs what it accepts, under its own stage.
type Controller struct {
	policy Policy
	ready  func()

	mu       sync.Mutex
	pending  map[string]*PendingDelegation // by template key
	accepted map[string]bool               // origin+"\x00"+ruleID: its templates auto-apply
	approved []Template                    // held, then accepted: for the peer's next stage
	nextID   int
	rejected int
}

// ErrNoSuchDelegation is returned by Accept/Reject for unknown queue ids.
var ErrNoSuchDelegation = errors.New("acl: no such pending delegation")

// NewController builds a controller with the given policy. Accept calls
// ready, outside the controller's lock, once the templates it approved await
// installation (TakeApproved).
func NewController(policy Policy, ready func()) *Controller {
	if policy == nil {
		policy = OpenPolicy{}
	}
	return &Controller{
		policy:   policy,
		ready:    ready,
		pending:  make(map[string]*PendingDelegation),
		accepted: make(map[string]bool),
	}
}

// Policy returns the controller's policy (e.g. to adjust trust at runtime).
func (c *Controller) Policy() Policy { return c.policy }

// Decide handles one template arriving from its origin, or asked about
// again when a binding of it arrives while it is not installed: Accept means
// the caller installs it now, Hold queues it for approval, Reject drops it.
// Templates of a rule accepted before are auto-applied: the user approved
// the rule, and the origin is merely maintaining it. Once the policy accepts
// a rule's template, its templates still held are approved too, for the
// caller's stage to take (TakeApproved) — ready is not called.
func (c *Controller) Decide(t Template) Decision {
	rule := t.Origin + "\x00" + t.RuleID
	d := c.policy.DecideDelegation(t.Origin)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.accepted[rule] && d == Hold {
		d = Accept
	}
	switch d {
	case Accept:
		c.approveLocked(rule)
	case Hold:
		if c.pending[t.Key] == nil {
			c.nextID++
			c.pending[t.Key] = &PendingDelegation{ID: c.nextID, Template: t}
		}
	case Reject:
		c.rejected++
	}
	return d
}

// Withdraw drops a template its origin no longer delegates from the approval
// queue; nothing happens unless it is held there.
func (c *Controller) Withdraw(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pending, key)
}

// Pending lists queued delegations ordered by arrival, as copies.
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

// Accept approves pending delegation id and every other held template of
// its rule: they await the peer's next stage (TakeApproved), and later
// templates of the rule auto-apply.
func (c *Controller) Accept(id int) error {
	c.mu.Lock()
	p := c.findLocked(id)
	if p == nil {
		c.mu.Unlock()
		return fmt.Errorf("%w: id %d", ErrNoSuchDelegation, id)
	}
	c.approveLocked(p.Origin + "\x00" + p.RuleID)
	c.mu.Unlock()
	c.ready()
	return nil
}

// approveLocked accepts rule and moves its held templates to the approved
// list.
func (c *Controller) approveLocked(rule string) {
	c.accepted[rule] = true
	for key, p := range c.pending {
		if p.Origin+"\x00"+p.RuleID == rule {
			delete(c.pending, key)
			c.approved = append(c.approved, p.Template)
		}
	}
}

// findLocked returns pending delegation id, or nil.
func (c *Controller) findLocked(id int) *PendingDelegation {
	for _, p := range c.pending {
		if p.ID == id {
			return p
		}
	}
	return nil
}

// TakeApproved returns the templates accepted while held and forgets them:
// the caller installs those its origin still delegates.
func (c *Controller) TakeApproved() []Template {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.approved
	c.approved = nil
	return out
}

// Reject drops pending delegation id.
func (c *Controller) Reject(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.findLocked(id)
	if p == nil {
		return fmt.Errorf("%w: id %d", ErrNoSuchDelegation, id)
	}
	delete(c.pending, p.Key)
	c.rejected++
	return nil
}
