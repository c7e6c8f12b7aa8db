package engine

import (
	"fmt"
	"slices"
	"strings"
	"weak"

	"repro/internal/store"
	"repro/internal/value"
)

// Join planning.
//
// The paper fixes body-atom order for *safety* ("atoms are evaluated from
// left to right. The order matters"); followed for performance too, a badly
// ordered multi-way join scans its largest relation before the selective
// atoms bind anything. This file reorders each rule's body at stage time by
// estimated selectivity — live relation cardinalities, the bound-argument
// mask each atom would be probed with under the order chosen so far
// (sideways information passing: later atoms are probed with earlier atoms'
// bindings), and index statistics (store.Relation.FanEstimate) — so the
// most selective atoms bind first and the big relations are probed, not
// scanned.
//
// Reordering is restricted to what is provably model-invariant:
//
//   - only the *local region* is reordered — the maximal body prefix whose
//     atoms name the local peer or the builtin peer with a constant. The
//     first atom past the region may resolve to a remote peer at run time,
//     and the delegated residual must be exactly the written suffix with
//     the prefix's bindings substituted in (paper §2), so everything from
//     there on keeps its written order. Since the region is a prefix, the
//     set of atoms evaluated before the delegation point — and therefore
//     the bindings the residual is built from — is unchanged.
//   - positive atoms commute freely: a join is a set intersection, and the
//     stratified semantics freezes every relation a stratum's negated
//     atoms read, so moving a positive atom never changes the model.
//   - negated atoms and builtin predicates bind nothing and only prune;
//     they float to the earliest position at which all their variables are
//     bound, which preserves the paper's safety conditions by
//     construction.
//
// The delta-position choice of semi-naive passes is part of the plan: when
// one body position ranges over the previous iteration's delta (or the
// deletion frontier of the DRed pass), that atom is placed as early as its
// binding prerequisites allow — the delta is almost always the smallest
// input — and the rest of the body is ordered around the variables it
// binds. Rederivation checks get their own order, planned with every head
// variable pre-bound (they run head-unified).
//
// Plans are computed lazily, once per rule (and per delta position) per
// stage, against the store cardinalities current at that moment; the
// orders are deterministic given the store state. plan_test.go pins the
// orders; the written-order reference evaluator pins that they do not
// change results. The chains compiled from them outlive it (compiledFor).

// plannerUnknownCost ranks atoms whose relation cannot be resolved at plan
// time (a variable in relation position): after anything that estimates
// cheaper from real statistics, before full scans of larger relations.
const plannerUnknownCost = 1 << 20

// rulePlan caches one rule's chosen evaluation orders for the current
// stage. Each order is a permutation of body indices: the first `region`
// entries permute the local region, the rest are the written suffix.
type rulePlan struct {
	region   int
	full     []int   // deltaPos < 0 (and any deltaPos outside the region)
	delta    [][]int // per in-region delta position, built on first use
	rederive []int   // head slots pre-bound (rederivation existence checks)
}

// compiledKey identifies one compiled closure chain. The four walk kinds
// (semi-naive eval, DRed over-delete, rederive match, why) compile the same
// rule into behaviorally different programs — different terminals, different
// delta sources, ghost sweeps or not — so the stage kind is part of the
// cache key: a DRed chain must never be served for a semi-naive walk (see
// TestCompiledCacheKeyedByStageKind).
type compiledKey struct {
	cr       *CompiledRule
	kind     stageKind
	deltaPos int
}

// ruleChains is one rule's chains kept across stages: at most one per (walk
// kind, delta position), each with its plan order. Beside the order,
// compileExec reads only the rule's engine, the store's catalog and the
// rule's classification, so the set is valid while the last two are what it
// was made for.
type ruleChains struct {
	decls uint64
	class ruleClass
	progs []*execProg
}

// stagePlanner owns the stage's plans and strong references to its chains.
// It lives in the pooled stageState: reset empties its caches, keeps up to
// ScratchCap emptied plans for the next stage, and keeps the scratch the
// greedy order runs in.
type stagePlanner struct {
	e        *Engine
	plans    map[*CompiledRule]*rulePlan
	compiled map[compiledKey]*execProg
	free     []*rulePlan
	// bound, placed and ord are order's scratch.
	bound, placed []bool
	ord           []int
}

func (pl *stagePlanner) reset() {
	for _, rp := range pl.plans {
		if rp != nil && len(pl.free) < ScratchCap {
			clear(rp.delta)
			*rp = rulePlan{delta: rp.delta[:0]}
			pl.free = append(pl.free, rp)
		}
	}
	pl.e, pl.plans, pl.compiled = nil, reuse(pl.plans), reuse(pl.compiled)
}

// newPlan returns an empty plan for a rule whose region is region atoms.
func (pl *stagePlanner) newPlan(region int) *rulePlan {
	var rp *rulePlan
	if n := len(pl.free); n > 0 {
		rp, pl.free = pl.free[n-1], pl.free[:n-1]
	} else {
		rp = &rulePlan{}
	}
	rp.region = region
	return rp
}

// compiledFor returns the closure chain for one (rule, stage kind, delta
// position) triple under the order the stage plans for it. The rule holds
// its chains weakly: a later stage planning the same order reuses one, and a
// collection between stages takes an idle rule's chains back. A declaration
// in the store or a reclassification voids the set; a new order, one chain.
func (pl *stagePlanner) compiledFor(cr *CompiledRule, kind stageKind, deltaPos int) *execProg {
	k := compiledKey{cr: cr, kind: kind, deltaPos: deltaPos}
	if ep := pl.compiled[k]; ep != nil {
		pl.e.compiledHits.Add(1)
		return ep
	}
	var ord []int
	if kind.headBound() {
		ord = pl.rederiveOrder(cr)
	} else {
		ord = pl.orderFor(cr, deltaPos)
	}
	set, decls := cr.chains.Value(), pl.e.db.Declarations()
	if set == nil || set.decls != decls || set.class != cr.class() {
		set = &ruleChains{decls: decls, class: cr.class()}
		cr.chains = weak.Make(set)
	}
	i := slices.IndexFunc(set.progs, func(ep *execProg) bool { return ep.kind == kind && ep.deltaPos == deltaPos })
	if i >= 0 && slices.Equal(set.progs[i].ord, ord) {
		pl.e.compiledHits.Add(1)
	} else {
		ep := pl.e.compileExec(cr, kind, deltaPos, ord)
		ep.ord, ep.set = ord, set
		if i < 0 {
			i, set.progs = len(set.progs), append(set.progs, nil)
		}
		set.progs[i] = ep
		pl.e.ruleCompiles.Add(1)
	}
	pl.compiled[k] = set.progs[i]
	return set.progs[i]
}

// planRegion returns the length of the rule's reorderable prefix: atoms
// whose peer term is a constant naming the local peer or the builtin
// peer. Everything from the first possibly-remote atom on keeps written
// order (see the file comment).
func planRegion(cr *CompiledRule, local string) int {
	for i := range cr.Body {
		a := &cr.Body[i]
		if a.peer.isVar || a.peer.val.Kind() != value.KindString {
			return i
		}
		if pn := a.peer.val.StringVal(); pn != local && pn != BuiltinPeer {
			return i
		}
	}
	return len(cr.Body)
}

// planFor returns the rule's cached plan, creating it on first use. Rules
// with fewer than two reorderable atoms plan to nil — written order.
func (pl *stagePlanner) planFor(cr *CompiledRule) *rulePlan {
	if rp, ok := pl.plans[cr]; ok {
		pl.e.planHits.Add(1)
		return rp
	}
	pl.e.planMisses.Add(1)
	var rp *rulePlan
	if region := planRegion(cr, pl.e.local); region >= 2 {
		rp = pl.newPlan(region)
		rp.full = pl.order(cr, region, -1, false)
	}
	pl.plans[cr] = rp
	return rp
}

// orderFor returns the evaluation order for one rule invocation: body
// position deltaPos ranges over the delta (-1 for a full evaluation). A
// nil result means written order.
func (pl *stagePlanner) orderFor(cr *CompiledRule, deltaPos int) []int {
	rp := pl.planFor(cr)
	if rp == nil {
		return nil
	}
	if deltaPos < 0 || deltaPos >= rp.region {
		// A delta atom in the written suffix is reached in written order
		// anyway; the region still evaluates under the full plan.
		return rp.full
	}
	if len(rp.delta) < rp.region {
		rp.delta = append(rp.delta[:0], make([][]int, rp.region)...)
	}
	if rp.delta[deltaPos] == nil {
		rp.delta[deltaPos] = pl.order(cr, rp.region, deltaPos, false)
	}
	return rp.delta[deltaPos]
}

// rederiveOrder returns the order for head-unified existence checks: every
// head variable is already bound, which usually makes a very different atom
// the cheapest entry point.
func (pl *stagePlanner) rederiveOrder(cr *CompiledRule) []int {
	rp := pl.planFor(cr)
	if rp == nil {
		return nil
	}
	if rp.rederive == nil {
		rp.rederive = pl.order(cr, rp.region, -1, true)
	}
	return rp.rederive
}

// markAtomSlots marks every variable slot the atom mentions as bound.
func markAtomSlots(a *cAtom, bound []bool) {
	if a.rel.isVar {
		bound[a.rel.slot] = true
	}
	if a.peer.isVar {
		bound[a.peer.slot] = true
	}
	markArgSlots(a, bound)
}

// markArgSlots marks the variable slots of the atom's arguments as bound —
// what matching a positive atom does.
func markArgSlots(a *cAtom, bound []bool) {
	for _, arg := range a.args {
		if arg.isVar {
			bound[arg.slot] = true
		}
	}
}

// planPos maps plan step s to its body position under ord (nil = written
// order).
func planPos(ord []int, s int) int {
	if ord == nil {
		return s
	}
	return ord[s]
}

// isFilter reports whether body atom i binds nothing and only prunes: a
// negated atom or a builtin predicate.
func isFilter(cr *CompiledRule, i int) bool {
	a := &cr.Body[i]
	return a.neg || (!a.peer.isVar && a.peer.val.Kind() == value.KindString &&
		a.peer.val.StringVal() == BuiltinPeer)
}

// order runs the greedy placement over the rule's local region: at each
// step every filter whose variables are bound floats in (written order,
// earliest position), then the cheapest eligible positive atom is placed
// and its argument variables become bound. The delta atom, when in the
// region, is taken as soon as it is eligible regardless of cost — delta
// inputs are small by construction. headBound binds the head's slots before
// the body runs (rederivation's head unification). Ties break toward
// written order, so the chosen order is deterministic. The order is worked
// out in the planner's scratch and kept as the order of one of the rule's
// chains when it equals one (keep), so a stage that plans as the last did
// allocates nothing for it.
func (pl *stagePlanner) order(cr *CompiledRule, region, deltaPos int, headBound bool) []int {
	bound := scratch(&pl.bound, cr.NumSlots)
	if headBound {
		markAtomSlots(&cr.Head, bound)
	}
	placed := scratch(&pl.placed, region)
	order := pl.ord[:0]

	ready := func(i int, needArgs bool) bool {
		a := &cr.Body[i]
		if a.rel.isVar && !bound[a.rel.slot] {
			return false
		}
		if a.peer.isVar && !bound[a.peer.slot] {
			return false
		}
		if needArgs {
			for _, arg := range a.args {
				if arg.isVar && !bound[arg.slot] {
					return false
				}
			}
		}
		return true
	}
	place := func(i int) {
		placed[i] = true
		order = append(order, i)
		if !isFilter(cr, i) {
			markArgSlots(&cr.Body[i], bound)
		}
	}

	for {
		for again := true; again; {
			again = false
			for i := 0; i < region; i++ {
				if !placed[i] && isFilter(cr, i) && ready(i, true) {
					place(i)
					again = true
				}
			}
		}
		best, bestCost := -1, 0.0
		for i := 0; i < region; i++ {
			if placed[i] || isFilter(cr, i) || !ready(i, false) {
				continue
			}
			if i == deltaPos {
				best = i
				break
			}
			if c := pl.atomCost(cr, i, bound); best == -1 || c < bestCost {
				best, bestCost = i, c
			}
		}
		if best == -1 {
			break
		}
		place(best)
	}
	// Safety guarantees the greedy loop placed everything (the earliest
	// unplaced positive atom is always eligible, and filters follow once
	// their written-earlier positives are in); sweep defensively anyway so
	// a malformed compiled rule still evaluates every atom.
	for i := 0; i < region; i++ {
		if !placed[i] {
			order = append(order, i)
		}
	}
	for i := region; i < len(cr.Body); i++ {
		order = append(order, i)
	}
	pl.ord = order
	return keep(cr, order)
}

// keep returns ord as a slice that outlives the planner's scratch: the
// order of one of cr's chains when it is equal, else a copy.
func keep(cr *CompiledRule, ord []int) []int {
	if set := cr.chains.Value(); set != nil {
		for _, ep := range set.progs {
			if slices.Equal(ep.ord, ord) {
				return ep.ord
			}
		}
	}
	return slices.Clone(ord)
}

// atomCost estimates the number of tuples body atom i yields when probed
// with the given slots bound — the branching factor the greedy order
// minimizes at each step.
func (pl *stagePlanner) atomCost(cr *CompiledRule, i int, bound []bool) float64 {
	a := &cr.Body[i]
	if a.rel.isVar || a.peer.isVar {
		return plannerUnknownCost
	}
	if a.rel.val.Kind() != value.KindString || a.peer.val.Kind() != value.KindString {
		return 0 // compiles to an error step: nothing is scanned
	}
	rel := pl.e.db.Get(a.rel.val.StringVal(), a.peer.val.StringVal())
	if rel == nil {
		return 0 // undeclared local relation: the atom joins nothing
	}
	if len(a.args) != rel.Schema().Arity() {
		return 0 // arity mismatch: no tuple can match
	}
	var mask store.ColMask
	allBound := true
	for k, arg := range a.args {
		if arg.isVar && !bound[arg.slot] {
			allBound = false
			continue
		}
		mask |= 1 << uint(k)
	}
	if allBound && len(a.args) > 0 {
		return 0.5 // pure membership probe: strictly better than any scan
	}
	if mask == 0 {
		return float64(rel.Len())
	}
	return rel.FanEstimate(mask)
}

// Explain renders, per rule of prog, how the rule is maintained across
// stages (view, remote view or event; see classify), the join order the
// planner chooses against the store's *current* contents and how each step
// compiles for a full evaluation, with per-step cardinality and selectivity
// estimates — the surface behind `wdl run -explain`.
func (e *Engine) Explain(prog *Program) string {
	var sb strings.Builder
	st := e.stage(nil)
	defer st.release()
	pl := &st.planner
	for _, cr := range prog.Rules {
		kind := "event"
		switch {
		case cr.Remote:
			kind = "remote view"
		case !cr.Event:
			kind = "view"
		}
		fmt.Fprintf(&sb, "rule %s (stratum %d, %s): %s;\n", cr.Rule.ID, cr.Stratum, kind, cr.Rule.String())
		ord := pl.orderFor(cr, -1)
		if ord == nil && len(cr.Body) > 1 {
			sb.WriteString("  written order (fewer than two reorderable atoms)\n")
		}
		bound := make([]bool, cr.NumSlots)
		for step := range cr.Body {
			i := planPos(ord, step)
			sp := e.analyzeStep(cr, i, kindEval, -1, bound)
			fmt.Fprintf(&sb, "  %d. body atom %d: %s  [%s]\n", step+1, i+1, cr.Rule.Body[i].String(), explainStep(&sp))
			if !isFilter(cr, i) {
				markArgSlots(&cr.Body[i], bound)
			}
		}
		if region := planRegion(cr, e.local); region < len(cr.Body) {
			fmt.Fprintf(&sb, "  atoms %d.. keep written order: the peer term may resolve remote (delegation boundary)\n", region+1)
		}
	}
	return sb.String()
}

// explainStep renders one analyzed step's annotation: what kind of step the
// atom compiles to, and for keyed probes the live cardinality and the
// estimated fan under the bindings accumulated so far.
func explainStep(sp *stepSpec) string {
	switch sp.sKind {
	case specBuiltin:
		return "builtin filter"
	case specNeg, specPass:
		return "negated: membership test"
	case specDynamic:
		return "resolved at run time: probe, filter or delegation"
	case specDelegate:
		return "delegates the rest of the body to " + sp.peerName
	case specError:
		return "runtime error: " + sp.msg
	case specDead:
		return "rows=0 (undeclared or arity mismatch)"
	}
	if sp.mask == 0 {
		return fmt.Sprintf("rows=%d, full scan", sp.rel.Len())
	}
	var boundCols []string
	for k, col := range sp.rel.Schema().Cols {
		if sp.mask.Has(k) {
			boundCols = append(boundCols, col)
		}
	}
	return fmt.Sprintf("rows=%d, probe(%s), est≈%.4g", sp.rel.Len(), strings.Join(boundCols, ","), sp.rel.FanEstimate(sp.mask))
}
