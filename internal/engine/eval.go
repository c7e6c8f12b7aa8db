package engine

import (
	"fmt"
	"slices"

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
		planner:     e.newPlanner(),
		out:         &Result{Remote: map[string][]FactOp{}},
		updatesSeen: map[string]bool{},
		remoteSeen:  map[string]bool{},
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
// can range over d. A position whose relation is statically known (deltaID)
// and has no tuples in d is skipped: the pass could only rediscover
// derivations already found, at the price of fully scanning every atom
// before it.
func forDeltaPositions(cr *CompiledRule, d deltaSet, fn func(j int)) {
	for j := range cr.Body {
		a := &cr.Body[j]
		if a.neg || (a.deltaID != "" && len(d[a.deltaID]) == 0) {
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

// emitRemote lists fo, bound for dst, in Result.Remote once per stage.
func emitRemote(st *stageState, dst string, fo FactOp) {
	key := dst + "\x00" + fo.Key()
	if !st.remoteSeen[key] {
		st.remoteSeen[key] = true
		st.out.Remote[dst] = append(st.out.Remote[dst], fo)
	}
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

	if headRel == ResidualRel {
		st.errf("engine: rule %s: %s is reserved for delegations", cr.Rule.ID, ResidualRel)
		return
	}
	if headPeer != e.local {
		emitRemote(st, headPeer, FactOp{Op: op, Fact: fact})
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
		e.deriveLocal(st, rel, rel.ID(), t)
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
	key := t.Key()
	if !rel.InsertKeyed(t, key) {
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
		st.incr.remoteMarks = append(st.incr.remoteMarks, remoteMark{factRef: factRef{factID{dst, h.relID, key}, h.tuple(x.env)}})
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

// ResidualRel is the reserved relation delegations travel in. The residual
// rule a stage delegates to peer target for the suffix of rule ruleID at
// this peer is the fact ResidualRel@target(origin, ruleID, rule), the rule
// in ast.Rule.AppendBinary form (see Residual), maintained in the RemoteView
// like any remote fact: it ships as a maintained insert when its first
// derivation appears and as a maintained delete when its last one goes. The
// name is no identifier, so no parsed program can name the relation.
const ResidualRel = "#residual"

// Residual decodes a residual fact's arguments (see ResidualRel).
func Residual(args value.Tuple) (origin, ruleID string, r ast.Rule, err error) {
	if len(args) != 3 || args[0].Kind() != value.KindString || args[1].Kind() != value.KindString ||
		args[2].Kind() != value.KindBlob {
		return "", "", r, fmt.Errorf("engine: %s%s is not a residual", ResidualRel, args)
	}
	r, err = ast.DecodeRule([]byte(args[2].StringVal()))
	return args[0].StringVal(), args[1].StringVal(), r, err
}

// residualArgs builds the residual fact's arguments for the suffix starting
// at body position i, with the prefix's bindings (the slots marked in bound)
// substituted in.
func (e *Engine) residualArgs(cr *CompiledRule, i int, env []value.Value, bound []bool) value.Tuple {
	sub := ast.Substitution{}
	for slot, name := range cr.SlotNames {
		if bound[slot] {
			sub[name] = env[slot]
		}
	}
	r := sub.ApplyRule(ast.Rule{Op: cr.Rule.Op, Head: cr.Rule.Head, Body: cr.Rule.Body[i:]})
	return value.Tuple{value.Str(e.local), value.Str(cr.Rule.ID), value.Blob(r.AppendBinary(nil))}
}

// deriveResidual is the kindEval step at a body atom that resolved to the
// remote peer target: it delegates the suffix from position i there. A
// maintained rule adds the residual to the stage's RemoteView, an event rule
// (or bare RunStage) emits it into Result.Remote.
func (e *Engine) deriveResidual(x *execCtx, cr *CompiledRule, i int, bound []bool, target string) {
	st := x.st
	args := e.residualArgs(cr, i, x.env, bound)
	if cr.Event || st.rv == nil {
		emitRemote(st, target, FactOp{Op: ast.Derive, Fact: ast.Fact{Rel: ResidualRel, Peer: target, Args: args}})
		return
	}
	st.rv.addMaint(target, ResidualRel+"@"+target, args.Key(), args)
}

// retractResidual is the kindDRed step of a maintained rule at a body atom
// that resolved to the remote peer target: it retracts the residual from the
// stage's RemoteView and queues it, with the walk's frame, for the
// end-of-stage check (stands) — unless the rule is being removed.
func (e *Engine) retractResidual(x *execCtx, cr *CompiledRule, i int, bound []bool, target string) {
	st := x.st
	args := e.residualArgs(cr, i, x.env, bound)
	relID := ResidualRel + "@" + target
	if key, ok := st.rv.retractMaint(target, relID, []byte(args.Key())); ok && !st.incr.removing {
		st.incr.remoteMarks = append(st.incr.remoteMarks, remoteMark{
			factRef: factRef{factID{target, relID, key}, args}, cr: cr, pos: i, env: slices.Clone(x.env)})
	}
}
