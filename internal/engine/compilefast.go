package engine

import (
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// Rule execution, compiler half (the runtime types live in exec.go).
//
// compileExec turns one (rule, stage kind, delta position) triple, under the
// plan order the stage chose, into a closure chain. It is total: every rule
// that passed CheckSafety compiles, for all four stage kinds. The analysis
// simulates the walk's binding state: with the order fixed, which slots are
// bound when each atom runs is known statically, so every argument term
// compiles to exactly one action — a probe-key part (constants and bound
// slots, guaranteed by the index bucket), a slot binding (free first
// occurrence), or an equality check (a repeat within the atom).
//
// An atom whose relation and peer terms are constants is classified once, at
// compile time (analyzeAtom): builtin filter, negated membership test, delta
// scan, keyed probe, the delegation boundary of a remote peer, or a runtime
// error the walk reports per valuation. An atom with a variable relation or
// peer term compiles to a dynamic step that resolves the names under the
// current bindings and runs the same classification on first sight of each
// (peer, relation) pair — the bind/check actions depend only on the static
// binding state, so they are identical across resolutions.
//
// Relations unresolved at compile time are not an obstacle: an undeclared
// local relation is empty for the whole stage (intensional heads must be
// pre-declared, and auto-declared extensional heads only buffer updates for
// the next stage), so those atoms compile to constant dead or pass steps —
// and the chain is compiled again once the store declares a relation.

// stepSpec shapes (stepSpec.sKind).
const (
	specProbe    uint8 = iota // positive atom: keyed probe of a relation
	specDelta                 // positive atom at the delta position
	specBuiltin               // builtin comparison filter
	specNeg                   // negated atom: keyed membership test
	specDead                  // no valuation passes: nil/mis-arity relation, or a non-eval walk leaving the peer
	specPass                  // negated atom that always passes (nil/mis-arity relation)
	specDelegate              // remote peer: delegate the written suffix from here (kindEval, a maintained rule's kindDRed)
	specError                 // report msg for this valuation and drop it (kindEval only)
	specDynamic               // variable relation/peer term: classify at run time
)

// stepSpec is the analysis of one plan step.
type stepSpec struct {
	pos   int
	sKind uint8

	rel               *store.Relation
	relName, peerName string // peerName doubles as the delegation target
	relID             string
	arity             int // relation arity for probes, len(args) for delta steps
	mask              store.ColMask
	// member marks a probe with every column bound: a membership test on
	// the primary tuple map, no index needed.
	member bool
	parts  []keyPart
	// probeActs run against tuples an index bucket (or ghost bucket)
	// yields: binds and repeat checks only — masked columns are key-equal
	// by construction. scanActs additionally re-check constants and bound
	// slots, for tuples from unkeyed sources (the delta).
	probeActs []argAct
	scanActs  []argAct
	binds     []argAct // the actBind subset, for fused-batch rebinding

	// bound snapshots the binding state before a dynamic step, for its
	// deferred classification.
	bound []bool
	split *split // specDelegate
	msg   string // specError

	// builtin fields
	biOp     uint8
	biNegate bool
	biL, biR termRef
}

// buildActs fills mask/parts/acts from the atom's argument terms under the
// compile-time binding state.
func (sp *stepSpec) buildActs(a *cAtom, bound []bool) {
	seen := map[int]bool{}
	for k, arg := range a.args {
		switch {
		case !arg.isVar:
			sp.mask |= 1 << uint(k)
			sp.parts = append(sp.parts, keyPart{val: arg.val})
			sp.scanActs = append(sp.scanActs, argAct{op: actCheckConst, col: k, val: arg.val})
		case bound[arg.slot]:
			sp.mask |= 1 << uint(k)
			sp.parts = append(sp.parts, keyPart{isVar: true, slot: arg.slot})
			sp.scanActs = append(sp.scanActs, argAct{op: actCheckSlot, slot: arg.slot, col: k})
		case seen[arg.slot]:
			act := argAct{op: actCheckSlot, slot: arg.slot, col: k}
			sp.probeActs = append(sp.probeActs, act)
			sp.scanActs = append(sp.scanActs, act)
		default:
			seen[arg.slot] = true
			act := argAct{op: actBind, slot: arg.slot, col: k}
			sp.probeActs = append(sp.probeActs, act)
			sp.scanActs = append(sp.scanActs, act)
			sp.binds = append(sp.binds, act)
		}
	}
}

// analyzeStep classifies body position pos under the binding state bound:
// at once when both name terms are constants, deferred to run time otherwise.
func (e *Engine) analyzeStep(cr *CompiledRule, pos int, kind stageKind, deltaPos int, bound []bool) stepSpec {
	a := &cr.Body[pos]
	if a.peer.isVar || a.rel.isVar {
		return stepSpec{pos: pos, sKind: specDynamic, bound: slices.Clone(bound)}
	}
	return e.analyzeAtom(cr, pos, a.peer.val, a.rel.val, kind, deltaPos, bound)
}

// analyzeAtom classifies body position pos with its name terms resolved to
// peer and rel. The checks run in the order the paper's left-to-right
// reading implies: where the atom lives decides first (a remote peer ends
// the local walk whatever the relation term is), then what it names.
func (e *Engine) analyzeAtom(cr *CompiledRule, pos int, peer, rel value.Value, kind stageKind, deltaPos int, bound []bool) stepSpec {
	a := &cr.Body[pos]
	sp := stepSpec{pos: pos, sKind: specDead}
	fail := func(format string, args ...any) stepSpec {
		if kind == kindEval { // DRed and rederive walks just drop the valuation
			sp.sKind = specError
			sp.msg = "engine: rule " + cr.Rule.ID + ": " + fmt.Sprintf(format, args...)
		}
		return sp
	}
	if peer.Kind() != value.KindString {
		return fail("peer term of body atom %d is not a string", pos+1)
	}
	sp.peerName = peer.StringVal()
	if sp.peerName != e.local && sp.peerName != BuiltinPeer {
		// A delegated suffix is not a local derivation: only evaluation and
		// a maintained rule's over-delete act on the delegation.
		if kind == kindEval || kind == kindDRed && !cr.Event {
			sp.sKind, sp.split = specDelegate, newSplit(cr, pos, bound)
		}
		return sp
	}
	if rel.Kind() != value.KindString {
		return fail("relation term of body atom %d is not a string", pos+1)
	}
	sp.relName = rel.StringVal()
	if a.rel.isVar && Reserved(sp.relName) {
		return sp // a template reads its bindings by name, and nothing else reads reserved relations
	}
	if sp.peerName == BuiltinPeer {
		op, ok := builtinOps[sp.relName]
		if !ok {
			return fail("engine: unknown builtin predicate %q", sp.relName)
		}
		if want := builtinArity[sp.relName]; len(a.args) != want {
			return fail("engine: builtin %s expects %d arguments, got %d", sp.relName, want, len(a.args))
		}
		for _, t := range a.args {
			if t.isVar && !bound[t.slot] {
				// Only reachable through a variable peer term: safety checks
				// constant builtin atoms, and builtins bind nothing.
				return fail("engine: builtin %s reached with $%s unbound", sp.relName, cr.SlotNames[t.slot])
			}
		}
		sp.sKind = specBuiltin
		sp.biOp, sp.biNegate = op, a.neg
		sp.biL, sp.biR = a.args[0], a.args[1]
		return sp
	}
	sp.relID = sp.relName + "@" + sp.peerName
	r := e.db.Get(sp.relName, sp.peerName)
	usable := r != nil && r.Schema().Arity() == len(a.args)
	switch {
	case a.neg && (!usable || kind == kindDRed):
		// An over-delete may over-approximate, and only a removed rule's
		// walk meets a negated atom (negation in a rule that derives into a
		// view makes the program non-incremental): passing it covers every
		// derivation the pre-deletion database allowed.
		sp.sKind = specPass
	case a.neg:
		// Safety guarantees every argument is bound: membership test.
		sp.sKind = specNeg
		sp.rel = r
		for _, arg := range a.args {
			sp.parts = append(sp.parts, keyPart{isVar: arg.isVar, slot: arg.slot, val: arg.val})
		}
	case pos == deltaPos:
		sp.sKind = specDelta
		sp.arity = len(a.args)
		sp.buildActs(a, bound)
	case usable:
		sp.sKind = specProbe
		sp.rel = r
		sp.arity = len(a.args)
		sp.buildActs(a, bound)
		sp.member = sp.arity > 0 && sp.mask == (store.ColMask(1)<<uint(sp.arity))-1
	}
	return sp
}

// compileExec compiles one (rule, stage kind, delta position) walk under
// the given plan order (nil = written order) into a closure-chain program.
// Called through compiledFor, which keeps the chain for later stages.
func (e *Engine) compileExec(cr *CompiledRule, kind stageKind, deltaPos int, ord []int) *execProg {
	// Forward pass: simulate the binding state the fixed order produces and
	// analyze every step against it. Nothing runs past a step that ends the
	// local walk, so the analysis stops there too.
	bound := make([]bool, cr.NumSlots)
	if kind.headBound() {
		markAtomSlots(&cr.Head, bound)
	}
	if kind == kindResidual {
		for i := deltaPos; i < len(cr.Body); i++ {
			markAtomSlots(&cr.Body[i], bound)
		}
	}
	specs := make([]stepSpec, 0, len(cr.Body))
walk:
	for s := range cr.Body {
		i := planPos(ord, s)
		if kind == kindResidual && i == deltaPos {
			break // the prefix is matched: positions past it keep written order
		}
		sp := e.analyzeStep(cr, i, kind, deltaPos, bound)
		specs = append(specs, sp)
		switch sp.sKind {
		case specDead, specDelegate, specError:
			break walk
		case specProbe, specDelta, specDynamic:
			if !cr.Body[i].neg {
				markArgSlots(&cr.Body[i], bound)
			}
		}
	}
	// Backward pass: link the chain terminal-first so each step closure
	// captures its continuation.
	p := &execProg{kind: kind, deltaPos: deltaPos}
	if !kind.headBound() {
		p.ctx.env = make([]value.Value, cr.NumSlots)
	}
	next := e.compileTerminal(cr, p)
	// Fuse the delta scan with an immediately following keyed probe into a
	// batch step: one lock acquisition and index resolve for the whole
	// frontier instead of one per frontier tuple.
	fuse := len(specs) >= 2 && specs[0].sKind == specDelta &&
		specs[1].sKind == specProbe && specs[1].mask != 0 && !specs[1].member
	lo := 0
	if fuse {
		lo = 2
	}
	for s := len(specs) - 1; s >= lo; s-- {
		next = e.compileStep(cr, &specs[s], p, next)
	}
	if fuse {
		next = compileFusedDelta(&specs[0], &specs[1], kind, p, next)
	}
	p.entry = next
	return p
}

// compileTerminal builds the full-match action: produce (with fast paths for
// statically local intensional heads and for remote view heads),
// over-delete, found, or record. A kindResidual walk ends before the body
// does, so its terminal is reaching the delegation point.
func (e *Engine) compileTerminal(cr *CompiledRule, p *execProg) stepFn {
	x := &p.ctx
	switch p.kind {
	case kindMatch, kindResidual:
		return func() { x.found = true }
	case kindWhy:
		return func() { x.st.why = append(x.st.why, derivation(cr, x.env)) }
	case kindDRed:
		if cr.Remote {
			return func() { e.retractRemote(x, cr) }
		}
		return func() { e.produceDelete(cr, x.env, x.st) }
	}
	if cr.Remote {
		return func() { e.deriveRemote(x, cr) }
	}
	h := &cr.Head
	if cr.Rule.Op == ast.Derive && h.relID != "" &&
		h.rel.val.Kind() == value.KindString && h.peer.val.Kind() == value.KindString &&
		h.peer.val.StringVal() == e.local {
		if rel := e.db.GetID(h.relID); rel != nil && rel.Kind() == ast.Intensional &&
			rel.Schema().Arity() == len(h.args) {
			relID := h.relID
			return func() { e.deriveLocal(x.st, rel, relID, h.tuple(x.env)) }
		}
	}
	return func() { e.produce(cr, x.env, x.st) }
}

// compileStep builds one body step's closure around its continuation.
func (e *Engine) compileStep(cr *CompiledRule, sp *stepSpec, p *execProg, next stepFn) stepFn {
	x := &p.ctx
	kind := p.kind
	a := &cr.Body[sp.pos]
	switch sp.sKind {
	case specDead:
		return func() {}
	case specPass:
		return next
	case specError:
		msg := sp.msg
		return func() { x.st.errf("%s", msg) }
	case specDelegate:
		split, target, retract := sp.split, sp.peerName, kind == kindDRed
		if p.deltaPos >= sp.pos {
			return func() {} // the delta lies past the split: nothing new here
		}
		return func() { e.delegate(x, cr, split, target, retract) }
	case specDynamic:
		// One specialized step per (peer, relation) pair the terms resolve
		// to, built on first sight; a declaration in the store voids the
		// chain, so a memoized dead or pass step never outlives it.
		pos, bound, deltaPos := sp.pos, sp.bound, p.deltaPos
		steps := map[[2]value.Value]stepFn{}
		return func() {
			names := [2]value.Value{a.peer.value(x.env), a.rel.value(x.env)}
			step := steps[names]
			if step == nil {
				rs := e.analyzeAtom(cr, pos, names[0], names[1], kind, deltaPos, bound)
				step = e.compileStep(cr, &rs, p, next)
				steps[names] = step
			}
			step()
		}
	case specBuiltin:
		l, r := sp.biL, sp.biR
		op, negate := sp.biOp, sp.biNegate
		return func() {
			if builtinHolds(op, l.value(x.env).Compare(r.value(x.env))) != negate {
				next()
			}
		}
	case specNeg:
		rel, parts := sp.rel, sp.parts
		return func() {
			base := len(x.key)
			x.key = appendKeyParts(x, x.key, parts)
			contains := rel.ContainsKey(x.key[base:])
			x.key = x.key[:base]
			if !contains {
				next()
			}
		}
	case specDelta:
		relID, arity := sp.relID, sp.arity
		unify := compileActs(sp.scanActs)
		return func() {
			for _, t := range x.delta[relID] {
				if len(t) == arity && unify(x, t) {
					next()
				}
			}
		}
	}
	// specProbe.
	rel, relID, arity := sp.rel, sp.relID, sp.arity
	mask, parts := sp.mask, sp.parts
	unify := compileActs(sp.probeActs)
	var cb func(value.Tuple) bool
	if kind == kindMatch {
		cb = func(t value.Tuple) bool {
			if len(t) == arity && unify(x, t) {
				next()
			}
			return !x.found // stop the bucket walk once satisfied
		}
	} else {
		cb = func(t value.Tuple) bool {
			if len(t) == arity && unify(x, t) {
				next()
			}
			return true
		}
	}
	if sp.member {
		if kind == kindDRed {
			return func() {
				base := len(x.key)
				x.key = appendKeyParts(x, x.key, parts)
				key := x.key[base:]
				if rel.ContainsKey(key) {
					next()
				}
				// The pre-deletion database includes this stage's ghosts.
				x.st.incr.sweepGhosts(relID, mask, key, func(t value.Tuple) { cb(t) })
				x.key = x.key[:base]
			}
		}
		return func() {
			base := len(x.key)
			x.key = appendKeyParts(x, x.key, parts)
			contains := rel.ContainsKey(x.key[base:])
			x.key = x.key[:base]
			if contains {
				next()
			}
		}
	}
	if kind == kindDRed {
		gcb := func(t value.Tuple) { cb(t) }
		return func() {
			base := len(x.key)
			x.key = appendKeyParts(x, x.key, parts)
			key := x.key[base:]
			rel.Probe(mask, key, cb)
			x.st.incr.sweepGhosts(relID, mask, key, gcb)
			x.key = x.key[:base]
		}
	}
	return func() {
		base := len(x.key)
		x.key = appendKeyParts(x, x.key, parts)
		rel.Probe(mask, x.key[base:], cb)
		x.key = x.key[:base]
	}
}

// compileFusedDelta builds the batch (vector-at-a-time) delta step: pass 1
// unifies every frontier tuple against the delta atom and encodes the
// following probe's key into a shared arena; pass 2 resolves every key's
// bucket under one lock (store.ProbeBatch) and continues the chain per
// match, rebinding the delta atom's slots from the owning frontier tuple.
// For DRed walks the probe's ghost buckets are swept per frontier tuple
// afterwards — order against the relation matches is irrelevant, both
// produce and produceDelete deduplicate.
func compileFusedDelta(da, pb *stepSpec, kind stageKind, p *execProg, next stepFn) stepFn {
	x := &p.ctx
	deltaID, arityA, rebinds := da.relID, da.arity, da.binds
	relB, relIDB, maskB, partsB, arityB := pb.rel, pb.relID, pb.mask, pb.parts, pb.arity
	unifyA, runB := compileActs(da.scanActs), compileActs(pb.probeActs)
	dred := kind == kindDRed
	var (
		arena   []byte
		offs    []int
		src     []int
		keys    [][]byte
		scratch [][]value.Tuple
		ts      []value.Tuple
	)
	unifyB := func(t value.Tuple) {
		if len(t) == arityB && runB(x, t) {
			next()
		}
	}
	cb := func(j int, t value.Tuple) bool {
		ta := ts[src[j]]
		for _, b := range rebinds {
			x.env[b.slot] = ta[b.col]
		}
		unifyB(t)
		return true
	}
	return func() {
		ts = x.delta[deltaID]
		if len(ts) == 0 {
			return
		}
		arena, offs, src = arena[:0], offs[:0], src[:0]
		for i, t := range ts {
			if len(t) != arityA || !unifyA(x, t) {
				continue
			}
			start := len(arena)
			arena = appendKeyParts(x, arena, partsB)
			offs = append(offs, start, len(arena))
			src = append(src, i)
		}
		if len(src) > 0 {
			keys = keys[:0]
			for j := range src {
				keys = append(keys, arena[offs[2*j]:offs[2*j+1]])
			}
			scratch = relB.ProbeBatch(maskB, keys, scratch, cb)
			if dred {
				ic := x.st.incr
				for j := range src {
					ta := ts[src[j]]
					for _, b := range rebinds {
						x.env[b.slot] = ta[b.col]
					}
					ic.sweepGhosts(relIDB, maskB, keys[j], unifyB)
				}
			}
		}
		ts = nil
	}
}
