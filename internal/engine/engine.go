// Package engine implements WebdamLog rule evaluation for a single peer's
// computation stage, replacing the Bud datalog runtime used by the paper.
//
// A stage (paper §2, "WebdamLog peers, in brief") is: (1) load inputs
// received from remote peers, (2) run a fixpoint of the local program,
// (3) send facts (updates) and rules (delegations) to other peers. This
// package implements step (2) and computes the outputs of step (3); the
// peer package orchestrates the loop and the message passing.
//
// Evaluation is left-to-right per the paper ("Rule bodies in WebdamLog are
// evaluated from left to right. The order matters"). When evaluation of a
// body reaches an atom whose peer term resolves to a remote peer, the
// remainder of the body — with the prefix's bindings substituted in — is
// delegated to that peer as a residual rule. It travels as data: a template
// fact (TemplateRel), the rule with the prefix's bindings as parameters,
// installed once, and a binding fact per valuation, both maintained like any
// remote fact.
package engine

import (
	"sort"
	"sync/atomic"
	"weak"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// Options configures evaluation. The zero value is not useful; use
// DefaultOptions as a base.
type Options struct {
	// Incremental keeps derived relations materialized between stages and
	// maintains them from each stage's base-fact and program deltas (inserts
	// through the semi-naive machinery, deletions through an
	// over-delete/rederive pass), instead of recomputing every view from
	// scratch per stage. When false — the recompute reference the benchmark
	// verifies against — or when the program is not incrementally
	// maintainable (negation in a view rule), every stage rebuilds the views
	// (RunStageFull). See incremental.go.
	Incremental bool
	// MaxIterations bounds fixpoint iterations as a safety net.
	MaxIterations int
}

// DefaultOptions returns the production configuration.
func DefaultOptions() Options {
	return Options{Incremental: true, MaxIterations: 1_000_000}
}

// FactOp is a produced fact together with what to do with it (derive/insert
// vs delete).
type FactOp struct {
	Op   ast.UpdateOp
	Fact ast.Fact
}

// String renders the op for logs.
func (f FactOp) String() string {
	if f.Op == ast.Delete {
		return "-" + f.Fact.String()
	}
	return "+" + f.Fact.String()
}

// Key returns a canonical dedupe key.
func (f FactOp) Key() string {
	if f.Op == ast.Delete {
		return "-" + f.Fact.Key()
	}
	return "+" + f.Fact.Key()
}

// ViewDelta is the net change one stage made to a materialized local view:
// the tuples that appeared and the tuples that vanished, with no overlap.
type ViewDelta struct {
	Ins []value.Tuple
	Del []value.Tuple
}

// RemoteOp is one fact delta bound for a remote peer. Maint distinguishes
// maintained view deltas (the sender starts/stops deriving the fact and will
// keep the receiver posted) from one-shot updates produced by explicit
// deletion rules; see protocol.FactDelta.
type RemoteOp struct {
	Op    ast.UpdateOp
	Maint bool
	Fact  ast.Fact
}

// Result collects the outputs of one stage's fixpoint.
type Result struct {
	// LocalUpdates are +/- updates to local extensional relations, to be
	// applied at the beginning of the next local stage.
	LocalUpdates []FactOp
	// Remote maps destination peer name to the facts the stage's event rules
	// emitted for it: the full Derive-op set, templates and bindings included
	// (see TemplateRel), and the one-shot deletes, before delta maintenance.
	// Maintained rules are not in it under RunStageIncremental and
	// RunStageFull — their derivations go straight into the caller's
	// RemoteView — so RemoteOut, not Remote, is what the stage ships. Bare
	// RunStage, which is given no RemoteView, lists every remote emission
	// here.
	Remote map[string][]FactOp
	// RemoteOut maps destination peer name to the deltas to actually ship:
	// maintained inserts for newly derived facts, templates and bindings,
	// maintained deletes for those whose last derivation disappeared, and
	// pass-through one-shot deletion-rule updates. Populated by
	// RunStageIncremental and RunStageFull (which maintain the caller's
	// RemoteView), not by bare RunStage.
	RemoteOut map[string][]RemoteOp
	// Views maps "rel@peer" to the net change the stage made to that
	// materialized local view, relative to the store as the stage found it,
	// in no particular order; relations that did not change are absent. A
	// view that was empty when the stage began reports its whole contents.
	// Populated by RunStageIncremental and RunStageFull, not by bare
	// RunStage.
	Views map[string]*ViewDelta
	// Derived counts new intensional facts derived in this stage.
	Derived int
	// Retracted counts intensional facts deleted by this stage's deletion
	// pass (net of rederivations).
	Retracted int
	// Iterations counts fixpoint iterations across all strata.
	Iterations int
	// Errors collects non-fatal runtime semantic errors (e.g. a deletion
	// rule whose head resolved to an intensional relation).
	Errors []error
}

// RemotePeers returns the destinations with outgoing deltas, sorted — the
// emission order the peer layer uses.
func (r *Result) RemotePeers() []string {
	out := make([]string, 0, len(r.RemoteOut))
	for p := range r.RemoteOut {
		if len(r.RemoteOut[p]) > 0 {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Engine evaluates compiled programs against a store on behalf of a peer.
// The maintained per-destination remote view is not engine state: the
// caller owns it (peer session layer) as a RemoteView and passes it to
// RunStageFull / RunStageIncremental.
type Engine struct {
	local string
	db    *store.Store
	opts  Options
	// views is the program the materialized views were last made
	// consistent with (nil: the empty program). RunStageIncremental
	// maintains them from the difference between it and the stage's
	// program; see programDelta.
	views *Program

	// Plan-cache telemetry: planFor lookups that found an existing plan vs
	// ones that computed a fresh one. The cache is per stage, so hits
	// measure intra-stage rule reuse (semi-naive iterations re-planning
	// the same rule). Atomics so monitoring can read them without a lock.
	planHits   atomic.Uint64
	planMisses atomic.Uint64

	// Rule-execution telemetry: closure chains freshly compiled and lookups
	// that reused one, compiled in this stage or an earlier one.
	ruleCompiles atomic.Uint64
	compiledHits atomic.Uint64
}

// New creates an engine for the peer named local over db.
func New(local string, db *store.Store, opts Options) *Engine {
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 1_000_000
	}
	return &Engine{local: local, db: db, opts: opts}
}

// Store returns the underlying store.
func (e *Engine) Store() *store.Store { return e.db }

// Options returns the evaluation options.
func (e *Engine) Options() Options { return e.opts }

// PlanCacheStats returns the lifetime join-plan cache counters: lookups
// that reused a stage's cached plan (hits) and lookups that computed one
// (misses).
func (e *Engine) PlanCacheStats() (hits, misses uint64) {
	return e.planHits.Load(), e.planMisses.Load()
}

// CompiledStats returns the lifetime rule-execution counters: closure chains
// compiled and cache lookups that reused one. The third result counted
// interpreter fallbacks when there was an interpreter; every rule compiles
// now, so it is always 0 (kept for callers that read it).
func (e *Engine) CompiledStats() (compiles, hits, fallbacks uint64) {
	return e.ruleCompiles.Load(), e.compiledHits.Load(), 0
}

// termRef is a compiled term: either a constant or a slot in the rule's
// variable frame.
type termRef struct {
	isVar bool
	slot  int
	val   value.Value
}

// value resolves the term under the frame env.
func (t termRef) value(env []value.Value) value.Value {
	if t.isVar {
		return env[t.slot]
	}
	return t.val
}

// cAtom is a compiled atom.
type cAtom struct {
	neg  bool
	rel  termRef
	peer termRef
	args []termRef
	// relID is "rel@peer" when both name terms are constants, "" when either
	// is a variable resolved at run time.
	relID string
	// deltaID is the relation a delta position here can range over — a
	// delta holds relations of this peer only: relID, or the relation of
	// that name here when only the peer is a variable; "" when the relation
	// is one.
	deltaID string
}

// tuple materializes the atom's argument terms under the frame env.
func (a *cAtom) tuple(env []value.Value) value.Tuple {
	t := make(value.Tuple, len(a.args))
	for k, arg := range a.args {
		t[k] = arg.value(env)
	}
	return t
}

// CompiledRule is a rule compiled against a variable frame: each distinct
// variable is assigned a slot index, and every term is resolved to either a
// constant or a slot.
type CompiledRule struct {
	Rule      *ast.Rule
	NumSlots  int
	SlotNames []string
	Head      cAtom
	Body      []cAtom
	Stratum   int

	// Event marks rules outside the incremental maintenance fast path:
	// deletion rules, rules whose head is extensional or has a variable peer
	// or relation — unless every valuation delegates before reaching it —
	// rules whose local prefix negates or names a relation by a variable,
	// and remote-head rules whose locally run body does. Event rules are
	// evaluated in full every stage, which preserves the paper's continuous
	// emission semantics; the others — views, remote views and maintained
	// delegations — are maintained from deltas. See classify in
	// incremental.go.
	Event bool
	// Remote marks remote view rules: a Derive rule whose head names a
	// constant remote peer and relation and whose locally run body is
	// positive and constant-named. Its materialization is the RemoteView
	// the stage maintains.
	Remote bool
	// MaybeView marks rules whose head could land in a local intensional
	// relation (every view rule, plus event rules with a variable head
	// relation or peer). Only these participate in the deletion pass and in
	// rederivation checks.
	MaybeView bool

	// key identifies the rule across recompilations: its ID, origin and
	// rendered text, computed once by CompileRule. Two programs differ by
	// the rules whose key and classification only one of them has
	// (programDelta).
	key string
	// chains holds the rule's compiled walks weakly (compiledFor).
	chains weak.Pointer[ruleChains]
}

// class returns the rule's classification as classify last left it.
func (c *CompiledRule) class() ruleClass { return ruleClass{c.Event, c.Remote, c.MaybeView} }

// String renders the original rule.
func (c *CompiledRule) String() string { return c.Rule.String() }

// Program is a compiled, stratified set of rules ready for RunStage.
type Program struct {
	Rules  []*CompiledRule
	Strata [][]*CompiledRule

	// Incremental reports that this program can be maintained by
	// RunStageIncremental: Options.Incremental is on and no rule that may
	// derive into a local view uses negation. Otherwise every stage
	// rebuilds the views (RunStageFull).
	Incremental bool

	// keys holds each rule's identity and classification, as classify left
	// them: a rule shared with a later program may be reclassified there.
	keys []ruleKey
	// maxSlots is the widest rule's NumSlots: rederivable's frame size.
	maxSlots int
}
