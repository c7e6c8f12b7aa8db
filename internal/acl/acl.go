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
	"slices"
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
	// DecideDelegation is consulted for each incoming residual.
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

// Residual is one delegated rule as the controller sees it. The unit a user
// approves is the origin's source rule (Origin, RuleID), which delegates its
// residuals one at a time; Key identifies the residual itself.
type Residual struct {
	Origin, RuleID, Key string
	Rule                ast.Rule
}

// PendingDelegation is a delegation held in the approval queue: the
// residuals of one (origin, rule) received and not withdrawn so far.
type PendingDelegation struct {
	ID     int
	Origin string
	RuleID string
	Rules  []ast.Rule
	keys   []string // Rules[i] is the residual keys[i]
}

// String renders the pending entry the way the demo UI shows it.
func (p PendingDelegation) String() string {
	s := fmt.Sprintf("#%d from %s (rule %s):", p.ID, p.Origin, p.RuleID)
	for _, r := range p.Rules {
		s += "\n  " + r.String() + ";"
	}
	return s
}

// Controller mediates between incoming delegations and the local program,
// implementing the approval queue of Figure 3. It only decides: the peer
// installs what it accepts, one residual at a time, under its own stage.
type Controller struct {
	policy Policy
	ready  func()

	mu       sync.Mutex
	pending  map[string]*PendingDelegation // key = origin+"\x00"+ruleID
	accepted map[string]bool               // keys whose residuals now auto-apply
	approved []Residual                    // held, then accepted: for the peer's next stage
	nextID   int
	rejected int
}

// ErrNoSuchDelegation is returned by Accept/Reject for unknown queue ids.
var ErrNoSuchDelegation = errors.New("acl: no such pending delegation")

// NewController builds a controller with the given policy. Accept calls
// ready, outside the controller's lock, once the residuals it approved await
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

// Decide handles one residual arriving from its origin: Accept means the
// caller installs it now, Hold queues it for approval, Reject drops it.
// Residuals of a delegation that was accepted before are auto-applied: the
// user approved the rule, and the origin is merely maintaining it. Once the
// policy accepts a delegation, its residuals still held are approved too,
// for the caller's stage to take (TakeApproved) — ready is not called.
func (c *Controller) Decide(r Residual) Decision {
	key := r.Origin + "\x00" + r.RuleID
	d := c.policy.DecideDelegation(r.Origin)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.accepted[key] && d == Hold {
		d = Accept
	}
	held := c.pending[key]
	switch d {
	case Accept:
		c.accepted[key] = true
		if held != nil {
			c.approveLocked(key, held)
		}
	case Hold:
		if held == nil {
			c.nextID++
			held = &PendingDelegation{ID: c.nextID, Origin: r.Origin, RuleID: r.RuleID}
			c.pending[key] = held
		}
		if i := slices.Index(held.keys, r.Key); i >= 0 {
			held.Rules[i] = r.Rule // origin re-sent: keep the freshest version
		} else {
			held.Rules, held.keys = append(held.Rules, r.Rule), append(held.keys, r.Key)
		}
	case Reject:
		c.rejected++
	}
	return d
}

// Withdraw drops a residual its origin no longer delegates from the approval
// queue; nothing happens unless it is held there.
func (c *Controller) Withdraw(origin, ruleID, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := origin + "\x00" + ruleID
	held := c.pending[k]
	if held == nil {
		return
	}
	if i := slices.Index(held.keys, key); i >= 0 {
		held.Rules, held.keys = slices.Delete(held.Rules, i, i+1), slices.Delete(held.keys, i, i+1)
	}
	if len(held.keys) == 0 {
		delete(c.pending, k)
	}
}

// Pending lists queued delegations ordered by arrival, as copies: the queue
// changes as residuals arrive and leave.
func (c *Controller) Pending() []PendingDelegation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PendingDelegation, 0, len(c.pending))
	for _, p := range c.pending {
		out = append(out, PendingDelegation{ID: p.ID, Origin: p.Origin, RuleID: p.RuleID, Rules: slices.Clone(p.Rules)})
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

// Accept approves pending delegation id: its residuals await the peer's next
// stage (TakeApproved), and later residuals of the same (origin, rule)
// auto-apply.
func (c *Controller) Accept(id int) error {
	c.mu.Lock()
	for key, p := range c.pending {
		if p.ID == id {
			c.accepted[key] = true
			c.approveLocked(key, p)
			c.mu.Unlock()
			c.ready()
			return nil
		}
	}
	c.mu.Unlock()
	return fmt.Errorf("%w: id %d", ErrNoSuchDelegation, id)
}

// approveLocked moves a pending delegation's residuals to the approved list.
func (c *Controller) approveLocked(key string, p *PendingDelegation) {
	delete(c.pending, key)
	for i, r := range p.Rules {
		c.approved = append(c.approved, Residual{Origin: p.Origin, RuleID: p.RuleID, Key: p.keys[i], Rule: r})
	}
}

// TakeApproved returns the residuals accepted while held, in approval order,
// and forgets them: the caller installs those its origin still delegates.
func (c *Controller) TakeApproved() []Residual {
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
	for k, p := range c.pending {
		if p.ID == id {
			delete(c.pending, k)
			c.rejected++
			return nil
		}
	}
	return fmt.Errorf("%w: id %d", ErrNoSuchDelegation, id)
}
