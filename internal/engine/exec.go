package engine

import (
	"repro/internal/value"
)

// Rule execution, runtime half (the compiler lives in compilefast.go).
//
// Once a stage has fixed a body order for a (rule, stage kind, delta
// position) triple, everything about visiting an atom is static: the
// relation handle, the bound-column mask, which argument binds and which
// checks. compileExec turns the plan into a chain of step closures — one
// per body atom, linked back to front — over pre-resolved *store.Relation
// handles, precomputed ColMask probe masks, and fixed binding slots, with
// probe keys appended into one reused buffer. The four walk kinds compile
// separately: their terminals, delta sources, and ghost sweeps differ (see
// stageKind). A chain serves every later stage that plans the same order
// (compiledFor). This is the only way rules run; the test-only reference
// evaluator (reference_test.go) is the oracle it is checked against.
//
// Every closure captures the program's own *execCtx, allocated once at
// compile time, so a walk allocates nothing per tuple. That makes a
// compiled program single-flight: the engine never re-enters the same
// (rule, kind, delta position) walk while it is running — step chains are
// linear, produce/produceDelete do not evaluate rules — and an engine runs
// one stage or query at a time, on one goroutine, so the shared ctx is safe.

// stageKind distinguishes the four body walks a rule compiles for. The
// kinds share a rule and often a plan order but compile to behaviorally
// different programs, so the kind is part of the compiled-cache key
// (compiledKey in plan.go).
type stageKind uint8

const (
	// kindEval: full and semi-naive evaluation; the delta position ranges
	// over the previous iteration's new facts, a full body match produces
	// the head, and an atom at a remote peer delegates the rest of the body.
	// A delegation whose prefix holds no delta position is no new one.
	kindEval stageKind = iota
	// kindDRed: the DRed over-delete walk; the delta position ranges over
	// the deletion frontier, every other positive position over the
	// pre-deletion database (relation ∪ ghosts), a match marks the head as
	// over-deleted, and a maintained rule's delegation retracts its
	// residual.
	kindDRed
	// kindMatch: the rederivation existence check; head slots are pre-bound
	// by unifyHead, the walk stops at the first full match.
	kindMatch
	// kindWhy: the provenance query (why.go); head slots are pre-bound as
	// for kindMatch, but every full match is recorded as a Derivation.
	kindWhy
	// kindResidual: the residual existence check (stands); the walk covers
	// the prefix before the delegation point (the deltaPos of its cache
	// key), the slots of the head and the suffix are pre-bound from the
	// retracting walk's frame, and reaching the point is a match.
	kindResidual
)

// headBound reports whether the walk runs under a head-unified frame.
func (k stageKind) headBound() bool { return k >= kindMatch }

// stepFn is one compiled body step. Steps take no arguments: each closure
// captured its program's execCtx at compile time.
type stepFn func()

// execCtx is the mutable state one compiled walk threads through its steps.
type execCtx struct {
	st *stageState
	// env is the rule's variable frame: owned by eval/DRed programs
	// (allocated at compile time), the caller's head-unified frame for
	// head-bound ones. No bound []bool runs beside it: with the order
	// fixed, which slots are bound at each step is decided at compile time.
	env []value.Value
	// key is the shared probe-key scratch buffer. Each probe step appends
	// its key parts and truncates back after its loop, so nested probes
	// stack their keys in one allocation.
	key []byte
	// delta is the per-invocation delta source: the previous iteration's
	// new facts (kindEval) or the deletion frontier (kindDRed).
	delta deltaSet
	// found flags a complete match; kindMatch terminals set it and every
	// loop in a match walk stops on it.
	found bool
}

// execProg is one compiled (rule, stage kind, delta position) walk.
type execProg struct {
	kind     stageKind
	deltaPos int
	entry    stepFn
	ctx      execCtx
	ord      []int       // the plan order it was compiled under
	set      *ruleChains // its rule's set: a stage holding one chain holds all
}

// run runs a kindEval or kindDRed walk with delta as its delta source: the
// previous iteration's new facts, or the deletion frontier.
func (p *execProg) run(st *stageState, delta deltaSet) {
	x := &p.ctx
	x.st, x.delta = st, delta
	x.key = x.key[:0]
	p.entry()
	x.st, x.delta = nil, nil
}

// runMatch runs a head-bound walk under the caller's unified frame; a
// kindMatch walk reports whether the body has a satisfying local valuation.
func (p *execProg) runMatch(st *stageState, env []value.Value) bool {
	x := &p.ctx
	x.st, x.env = st, env
	x.found = false
	x.key = x.key[:0]
	p.entry()
	found := x.found
	x.st, x.env = nil, nil
	return found
}

// argAct is one compiled unification action against a visited tuple:
// bind a free slot from a column, or check a column against an
// already-bound slot or a constant.
type argAct struct {
	op   uint8
	slot int
	col  int
	val  value.Value
}

const (
	actBind uint8 = iota
	actCheckSlot
	actCheckConst
)

// compileActs specializes a step's unification actions. Bind-only
// sequences of up to two actions — the shape of almost every scan and
// delta step over fresh variables — run as straight-line slot writes;
// everything else falls back to the generic applyActs loop.
func compileActs(acts []argAct) func(*execCtx, value.Tuple) bool {
	for _, a := range acts {
		if a.op != actBind {
			return func(x *execCtx, t value.Tuple) bool { return applyActs(x, acts, t) }
		}
	}
	switch len(acts) {
	case 0:
		return func(*execCtx, value.Tuple) bool { return true }
	case 1:
		s0, c0 := acts[0].slot, acts[0].col
		return func(x *execCtx, t value.Tuple) bool {
			x.env[s0] = t[c0]
			return true
		}
	case 2:
		s0, c0 := acts[0].slot, acts[0].col
		s1, c1 := acts[1].slot, acts[1].col
		return func(x *execCtx, t value.Tuple) bool {
			x.env[s0] = t[c0]
			x.env[s1] = t[c1]
			return true
		}
	}
	return func(x *execCtx, t value.Tuple) bool { return applyActs(x, acts, t) }
}

// applyActs unifies tuple t against the step's compiled actions. It
// returns false on the first failing check; bindings need no undo — the
// next tuple (or the next invocation) overwrites them, and reads of a slot
// only ever happen after the step that binds it.
func applyActs(x *execCtx, acts []argAct, t value.Tuple) bool {
	for _, a := range acts {
		switch a.op {
		case actBind:
			x.env[a.slot] = t[a.col]
		case actCheckSlot:
			if !x.env[a.slot].Equal(t[a.col]) {
				return false
			}
		default: // actCheckConst
			if !a.val.Equal(t[a.col]) {
				return false
			}
		}
	}
	return true
}

// keyPart is one component of a probe key: a constant or a bound slot,
// appended in ascending column order — the store's index-key convention.
type keyPart struct {
	isVar bool
	slot  int
	val   value.Value
}

// appendKeyParts appends the encoded parts to dst under the current frame.
func appendKeyParts(x *execCtx, dst []byte, parts []keyPart) []byte {
	for _, p := range parts {
		if p.isVar {
			dst = x.env[p.slot].AppendKey(dst)
		} else {
			dst = p.val.AppendKey(dst)
		}
	}
	return dst
}
