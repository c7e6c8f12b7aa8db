package engine

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// deltaSet holds, per relation id ("name@peer"), the tuples newly derived
// in the previous fixpoint iteration.
type deltaSet map[string][]value.Tuple

// maxCollectedErrors bounds Result.Errors so a pathological program cannot
// exhaust memory with repeated runtime complaints.
const maxCollectedErrors = 100

type stageState struct {
	out         *Result
	updatesSeen map[string]bool
	remoteSeen  map[string]bool
	delegSeen   map[string]bool
	delta       deltaSet
	// why collects the derivations a kindWhy walk finds (why.go).
	why      []Derivation
	errCount int
	// planner holds the stage's join-plan and compiled-chain caches
	// (plan.go).
	planner *stagePlanner
	// incr is the stage's maintenance bookkeeping (incremental.go); nil
	// outside runDelta.
	incr *incrState
	// rv is the caller's RemoteView during RunStageIncremental and
	// RunStageFull, where remote view rules derive into it; nil in bare
	// RunStage, which emits them into Result.Remote like any remote head.
	rv *RemoteView
}

func (e *Engine) newStageState() *stageState {
	return &stageState{
		planner: e.newPlanner(),
		out: &Result{
			Remote:      map[string][]FactOp{},
			Delegations: map[string]map[string][]ast.Rule{},
		},
		updatesSeen: map[string]bool{},
		remoteSeen:  map[string]bool{},
		delegSeen:   map[string]bool{},
		delta:       deltaSet{},
	}
}

func (st *stageState) errf(format string, args ...any) {
	st.errCount++
	if st.errCount == maxCollectedErrors {
		st.out.Errors = append(st.out.Errors, fmt.Errorf("engine: too many runtime errors; suppressing the rest"))
		return
	}
	if st.errCount > maxCollectedErrors {
		return
	}
	st.out.Errors = append(st.out.Errors, fmt.Errorf(format, args...))
}

// RunStage evaluates the program over the current store contents as a first
// build — the program delta from the empty program, with no base-fact deltas
// and no RemoteView — and returns the stage outputs. Local intensional
// relations gain what the program derives (nothing is retracted); everything
// else is returned in Result for the peer to apply or transmit.
func (e *Engine) RunStage(prog *Program) *Result {
	return e.runDelta(nil, prog, nil, nil).out
}

// forDeltaPositions calls fn for every positive body position of cr that
// can range over d. A position whose relation is statically known and has
// no tuples in d is skipped: the pass could only rediscover derivations
// already found, at the price of fully scanning every atom before it.
func forDeltaPositions(cr *CompiledRule, d deltaSet, fn func(j int)) {
	for j := range cr.Body {
		a := &cr.Body[j]
		if a.neg || (a.relID != "" && len(d[a.relID]) == 0) {
			continue
		}
		fn(j)
	}
}

// evalRule evaluates one rule through its compiled chain. deltaPos < 0
// requests a full evaluation; otherwise body position deltaPos ranges over
// prevDelta instead of the full relation.
func (e *Engine) evalRule(cr *CompiledRule, st *stageState, deltaPos int, prevDelta deltaSet) {
	st.planner.compiledFor(cr, kindEval, deltaPos).run(st, prevDelta)
}

// resolveName resolves a compiled relation/peer term to its string name.
func resolveName(t termRef, env []value.Value) (string, bool) {
	v := t.value(env)
	if v.Kind() != value.KindString {
		return "", false
	}
	return v.StringVal(), true
}

// produce materializes the head under the current bindings and routes it:
// local intensional -> derive now (feeding the fixpoint); local extensional
// -> buffered update for the next stage; remote -> outgoing message.
func (e *Engine) produce(cr *CompiledRule, env []value.Value, st *stageState) {
	headPeer, ok := resolveName(cr.Head.peer, env)
	if !ok {
		st.errf("engine: rule %s: head peer term is not a string", cr.Rule.ID)
		return
	}
	headRel, ok := resolveName(cr.Head.rel, env)
	if !ok {
		st.errf("engine: rule %s: head relation term is not a string", cr.Rule.ID)
		return
	}
	t := cr.Head.tuple(env)
	fact := ast.Fact{Rel: headRel, Peer: headPeer, Args: t}
	op := cr.Rule.Op

	if headPeer != e.local {
		fo := FactOp{Op: op, Fact: fact}
		key := headPeer + "\x00" + fo.Key()
		if !st.remoteSeen[key] {
			st.remoteSeen[key] = true
			st.out.Remote[headPeer] = append(st.out.Remote[headPeer], fo)
		}
		return
	}

	rel := e.db.Get(headRel, headPeer)
	if rel == nil {
		// The paper: "peers may discover new peers and new relations".
		// Unknown local head relations are auto-declared extensional.
		var err error
		rel, err = e.db.Declare(store.Schema{
			Name: headRel, Peer: headPeer, Kind: ast.Extensional, Cols: store.GenericCols(len(t)),
		})
		if err != nil {
			st.errf("engine: rule %s: %v", cr.Rule.ID, err)
			return
		}
	}
	if rel.Schema().Arity() != len(t) {
		st.errf("engine: rule %s: head %s has arity %d but relation expects %d",
			cr.Rule.ID, fact.String(), len(t), rel.Schema().Arity())
		return
	}

	if rel.Kind() == ast.Intensional {
		if op == ast.Delete {
			st.errf("engine: rule %s: cannot delete from intensional relation %s@%s",
				cr.Rule.ID, headRel, headPeer)
			return
		}
		e.deriveLocal(st, rel, headRel+"@"+headPeer, t)
		return
	}

	// Local extensional head: buffered +/- update, visible next stage.
	fo := FactOp{Op: op, Fact: fact}
	key := fo.Key()
	if !st.updatesSeen[key] {
		st.updatesSeen[key] = true
		st.out.LocalUpdates = append(st.out.LocalUpdates, fo)
	}
}

// deriveLocal inserts a derived tuple into a local intensional relation and
// does the fixpoint and incremental-maintenance bookkeeping: the semi-naive
// delta, the derivation counter, and the net view-delta sets — none for a
// view that was empty when the stage began and lost nothing since, whose
// delta is its contents; a tuple already present is a no-op. Shared by
// produce and the terminal fast path (compilefast.go), which resolves the
// head statically and skips produce's name resolution per derivation.
func (e *Engine) deriveLocal(st *stageState, rel *store.Relation, relID string, t value.Tuple) {
	if !rel.Insert(t) {
		return
	}
	st.out.Derived++
	st.delta[relID] = append(st.delta[relID], t)
	ic := st.incr
	if ic == nil {
		return
	}
	m := ic.marked[relID]
	fresh := ic.isFresh(rel, relID)
	if fresh && len(m) == 0 {
		return
	}
	key := t.Key()
	if m[key] != nil {
		delete(m, key) // deleted then rederived this stage: net zero
		// Un-ghost so a later deletion round can re-target it.
		delete(ic.ghosts[relID], key)
	} else if !fresh && !ic.isSeeded(relID, key) {
		in := ic.insNew[relID]
		if in == nil {
			in = map[string]value.Tuple{}
			ic.insNew[relID] = in
		}
		in[key] = t
	}
}

// deriveRemote is the kindEval terminal of a remote view rule: it adds the
// head under the current bindings to the stage's RemoteView. The tuple key
// is encoded once, into the walk's scratch buffer, and a fact the view
// already maintains costs no allocation; a new one shares the key of an equal
// tuple ingested this stage (incrState.storedKey).
func (e *Engine) deriveRemote(x *execCtx, cr *CompiledRule) {
	st := x.st
	if st.rv == nil {
		e.produce(cr, x.env, st)
		return
	}
	h := &cr.Head
	dst := h.peer.val.StringVal()
	base := len(x.key)
	x.key = appendHeadKey(x, x.key, h)
	if key := x.key[base:]; !st.rv.maintained(dst, h.relID, key) {
		st.rv.addMaint(dst, h.relID, st.incr.storedKey(key), h.tuple(x.env))
	}
	x.key = x.key[:base]
}

// retractRemote is the kindDRed terminal of a remote view rule: it retracts
// the head under the current bindings from the stage's RemoteView and
// queues it for the end-of-stage rederive check.
func (e *Engine) retractRemote(x *execCtx, cr *CompiledRule) {
	st := x.st
	h := &cr.Head
	dst := h.peer.val.StringVal()
	base := len(x.key)
	x.key = appendHeadKey(x, x.key, h)
	if key, ok := st.rv.retractMaint(dst, h.relID, x.key[base:]); ok {
		st.incr.remoteMarks = append(st.incr.remoteMarks, factRef{factID{dst, h.relID, key}, h.tuple(x.env)})
	}
	x.key = x.key[:base]
}

// appendHeadKey appends the tuple key of the head under the current frame.
func appendHeadKey(x *execCtx, dst []byte, h *cAtom) []byte {
	for _, arg := range h.args {
		dst = arg.value(x.env).AppendKey(dst)
	}
	return dst
}

// addDelegation emits the residual rule for the suffix starting at body
// position i, with the prefix's bindings (the slots marked in bound)
// substituted in, targeted at peer target. Residuals are deduplicated; the
// peer layer handles replacing the previous stage's set (delegation
// maintenance).
func (e *Engine) addDelegation(cr *CompiledRule, i int, env []value.Value, bound []bool, target string, st *stageState) {
	sub := ast.Substitution{}
	for slot, name := range cr.SlotNames {
		if bound[slot] {
			sub[name] = env[slot]
		}
	}
	residual := sub.ApplyRule(ast.Rule{
		ID:     cr.Rule.ID,
		Origin: e.local,
		Op:     cr.Rule.Op,
		Head:   cr.Rule.Head,
		Body:   cr.Rule.Body[i:],
	})
	key := cr.Rule.ID + "\x00" + target + "\x00" + residual.String()
	if st.delegSeen[key] {
		return
	}
	st.delegSeen[key] = true
	byTarget := st.out.Delegations[cr.Rule.ID]
	if byTarget == nil {
		byTarget = map[string][]ast.Rule{}
		st.out.Delegations[cr.Rule.ID] = byTarget
	}
	byTarget[target] = append(byTarget[target], residual)
}
