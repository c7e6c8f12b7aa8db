package engine

import (
	"fmt"
	"slices"
	"strings"

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

	if Reserved(headRel) {
		st.errf("engine: rule %s: %s is reserved for delegations", cr.Rule.ID, headRel)
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

// TemplateRel is the reserved relation delegations travel in. A rule
// delegating its suffix from body position i to peer target ships there the
// template TemplateRel@target(origin, ruleID, rule): head and suffix in
// ast.Rule.AppendBinary form, with the prefix's values of the variables
// naming a peer or relation substituted in and its other variables left as
// parameters, which the template reads from its first atom, a binding
// relation "#bind/<origin>/<hash>"@target of its own. Each prefix valuation
// ships its parameter values there as a binding fact. Both are maintained
// in the RemoteView like any remote fact, and a template stands while a
// binding of it does. No parsed program can name a reserved relation.
const TemplateRel = "#template"

// Reserved reports whether rel is a relation delegations travel in.
func Reserved(rel string) bool { return strings.HasPrefix(rel, "#") }

// IsBinding reports whether rel names a binding relation of origin's.
func IsBinding(rel, origin string) bool {
	rest, ok := strings.CutPrefix(rel, "#bind/")
	return ok && len(rest) == len(origin)+17 && strings.HasPrefix(rest, origin) && rest[len(origin)] == '/'
}

// Template decodes a template fact shipped to target (see TemplateRel). The
// only reserved relations its rule may read are origin's binding relations
// at target.
func Template(args value.Tuple, target string) (origin, ruleID string, r ast.Rule, err error) {
	if len(args) != 3 || args[0].Kind() != value.KindString || args[1].Kind() != value.KindString ||
		args[2].Kind() != value.KindBlob {
		return "", "", r, fmt.Errorf("engine: %s%s is not a template", TemplateRel, args)
	}
	if r, err = ast.DecodeRule([]byte(args[2].StringVal())); err != nil {
		return "", "", r, err
	}
	for _, a := range r.Body {
		rel := a.Rel.Val.StringVal()
		if !a.Rel.IsVar() && Reserved(rel) && !(IsBinding(rel, args[0].StringVal()) && a.Peer.Equal(ast.CStr(target))) {
			return "", "", r, fmt.Errorf("engine: template %s reads the reserved relation %s", r.String(), rel)
		}
	}
	return args[0].StringVal(), args[1].StringVal(), r, nil
}

// split is a rule's delegation point at body position pos: as the argument
// terms of two atoms, the prefix-bound slots the head and suffix use as
// names and those they use otherwise, the parameters; and the templates
// built there, by the names' values. Each compiled walk holds its own.
type split struct {
	pos           int
	names, params cAtom
	tmpls         map[string]*template
}

// template is one built template fact, with the id of its binding relation
// ("" without parameters).
type template struct {
	factRef
	bindID string
}

// newSplit analyses the delegation point at body position pos of rule cr,
// whose binding state is bound.
func newSplit(cr *CompiledRule, pos int, bound []bool) *split {
	sp := &split{pos: pos, tmpls: map[string]*template{}}
	used, name := make([]bool, cr.NumSlots), make([]bool, cr.NumSlots)
	for _, a := range append([]cAtom{cr.Head}, cr.Body[pos:]...) {
		markAtomSlots(&a, used)
		markAtomSlots(&cAtom{rel: a.rel, peer: a.peer}, name)
	}
	for s := range used {
		if bound[s] && name[s] {
			sp.names.args = append(sp.names.args, termRef{isVar: true, slot: s})
		} else if bound[s] && used[s] {
			sp.params.args = append(sp.params.args, termRef{isVar: true, slot: s})
		}
	}
	return sp
}

// templateFor returns the template the current valuation delegates to
// target at split sp, building it once.
func (e *Engine) templateFor(x *execCtx, cr *CompiledRule, sp *split, target string) *template {
	base := len(x.key)
	x.key = appendHeadKey(x, x.key, &sp.names)
	tp := sp.tmpls[string(x.key[base:])]
	if tp == nil {
		sub := ast.Substitution{}
		for _, t := range sp.names.args {
			sub[cr.SlotNames[t.slot]] = x.env[t.slot]
		}
		r := sub.ApplyRule(ast.Rule{Op: cr.Rule.Op, Head: cr.Rule.Head, Body: cr.Rule.Body[sp.pos:]})
		tp = &template{factRef: factRef{factID: factID{dst: target, relID: TemplateRel + "@" + target}}}
		if len(sp.params.args) > 0 {
			rel := fmt.Sprintf("#bind/%s/%016x", e.local, value.Hash64(string(r.AppendBinary([]byte(cr.Rule.ID+"\x00")))))
			tp.bindID = rel + "@" + target
			bind := ast.NewAtom(rel, target)
			for _, t := range sp.params.args {
				bind.Args = append(bind.Args, ast.V(cr.SlotNames[t.slot]))
			}
			r.Body = append([]ast.Atom{bind}, r.Body...)
		}
		tp.args = value.Tuple{value.Str(e.local), value.Str(cr.Rule.ID), value.Blob(r.AppendBinary(nil))}
		tp.key = tp.args.Key()
		sp.tmpls[string(x.key[base:])] = tp
	}
	x.key = x.key[:base]
	return tp
}

// delegate is the step at a body atom that resolved to the remote peer
// target: it delegates the suffix from split sp there, as its template and
// the valuation's binding, into the stage's RemoteView (a maintained rule)
// or Result.Remote (an event rule, or bare RunStage). In a maintained rule's
// DRed walk (retract) it retracts the binding, or a template without
// parameters, and queues it with the walk's frame for the end-of-stage check
// (stands) unless the rule is being removed; a template whose binding it
// retracts goes at the end of the stage if none is left.
func (e *Engine) delegate(x *execCtx, cr *CompiledRule, sp *split, target string, retract bool) {
	st := x.st
	tp := e.templateFor(x, cr, sp, target)
	ref := tp.factRef
	if tp.bindID != "" {
		ref.relID, ref.args = tp.bindID, sp.params.tuple(x.env)
		ref.key = ref.args.Key()
	}
	switch {
	case retract:
		if tp.bindID != "" {
			st.incr.templates = append(st.incr.templates, tp)
		}
		if key, ok := st.rv.retractMaint(target, ref.relID, []byte(ref.key)); ok && !st.incr.removing {
			ref.key = key
			st.incr.remoteMarks = append(st.incr.remoteMarks, remoteMark{factRef: ref, cr: cr, pos: sp.pos, env: slices.Clone(x.env)})
		}
	case cr.Event || st.rv == nil:
		emitRemote(st, target, FactOp{Op: ast.Derive, Fact: factOf(tp.factRef)})
		emitRemote(st, target, FactOp{Op: ast.Derive, Fact: factOf(ref)})
	default:
		st.rv.addMaint(target, ref.relID, ref.key, ref.args)
		st.rv.addMaint(target, tp.relID, tp.key, tp.args)
	}
}
