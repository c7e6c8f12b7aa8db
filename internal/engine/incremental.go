package engine

import (
	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// Incremental stage evaluation: materialized views maintained across stages.
//
// Bare RunStage recomputes every intensional relation from scratch, so the
// cost of a stage grows with the size of the database rather than the size
// of the change. This file carries the semi-naive deltas *across* stages
// instead: derived relations stay materialized between stages, each stage's
// base-fact batch enters the fixpoint as the initial delta, and deletions
// are handled DRed-style — over-delete everything that may depend on a
// deleted fact, then rederive what still has an alternative derivation, so
// retracting one support never kills a tuple that has another.
//
// Rules are split statically (classify):
//
//   - view rules — head is a declared local intensional relation, body fully
//     local and positive. These are the materialized views and take the
//     delta path.
//   - remote view rules — a Derive rule whose head names a constant remote
//     peer and relation, body local, positive and constant-named: the
//     paper's hub publish rule, and the §2 rule once delegated, e.g.
//     attendeePictures@jules(…) :- pictures@emilien(…) at emilien. Their
//     materialization is the caller's RemoteView, and they take the same
//     delta path as views: the semi-naive pass adds a fact to the
//     destination's view, the DRed over-delete retracts it, and an
//     end-of-stage rederive check (kindMatch, head-unified) restores the
//     retracted facts that are still derivable. A stage costs O(δ), not
//     O(view).
//   - event rules — everything else: deletion rules, rules with extensional
//     or variable heads, rules whose body can leave the peer (delegation),
//     and remote-head rules over negated or variable-named atoms. Event
//     rules are evaluated in full every stage, exactly as RunStage would,
//     which preserves the paper's delegation-maintenance and update-emission
//     semantics unchanged. Result.Delegations is complete per stage;
//     Result.Remote holds the event rules' emissions only.
//
// RemoteView.Diff ends the stage: it reconciles the event rules' emission
// set against the previous stage's and folds in the remote view rules'
// maintained changes, producing true insert/retract deltas
// (Result.RemoteOut) instead of re-shipping the full set every stage.

// StageInput describes the base-fact deltas of one peer stage. All tuples in
// Ins are already present in the store (the peer applied extensional updates
// and seeded intensional facts during ingestion); all tuples in Del are
// already removed. Cand holds intensional deletion candidates — tuples whose
// external support just vanished — which are still in the store: the
// evaluator deletes them unless a local derivation (or a seed in Ins) keeps
// them alive. InsKeys, when set, holds the Tuple.Key of each Ins tuple, in
// the same order: the key strings the store holds, which a remote view rule
// deriving an equal tuple then shares instead of copying. Supported, when
// set, reports whether a remote sender currently maintains the intensional
// tuple of relID whose Tuple.Key is key here — an external support that
// keeps an over-deleted tuple alive.
type StageInput struct {
	Ins       map[string][]value.Tuple // relID -> tuples inserted before the stage
	InsKeys   map[string][]string      // relID -> the key of each Ins tuple
	Del       map[string][]value.Tuple // relID -> extensional tuples removed before the stage
	Cand      map[string][]value.Tuple // relID -> intensional tuples that lost external support
	Supported func(relID, key string) bool
}

// supported reports whether a remote sender maintains the tuple (see
// StageInput.Supported).
func (in *StageInput) supported(relID, key string) bool {
	return in != nil && in.Supported != nil && in.Supported(relID, key)
}

// Empty reports whether the input carries no deltas at all.
func (in *StageInput) Empty() bool {
	return in == nil || (len(in.Ins) == 0 && len(in.Del) == 0 && len(in.Cand) == 0)
}

// incrState carries the per-stage bookkeeping of an incremental run.
type incrState struct {
	in *StageInput
	// seeded marks the tuples of StageInput.Ins: externally present this
	// stage, so rederivation keeps them regardless of rule support. Each key
	// maps to itself, the string the store holds when StageInput.InsKeys
	// gave it (storedKey).
	seeded map[string]map[string]string
	// ghosts holds every tuple deleted during this stage (base deletions and
	// over-deletions), giving the deletion pass the pre-deletion database:
	// non-delta join positions range over relation ∪ ghosts.
	ghosts map[string]map[string]value.Tuple
	// ghostIdx lazily indexes a relation's ghost set by bound-column mask so
	// the sweep at a non-delta join position probes O(1) instead of
	// scanning every deleted tuple per binding (which made a D-fact batch
	// delete quadratic in D). An index is rebuilt when the ghost set grew;
	// a snapshot going stale mid-round is sound because every newly
	// ghosted tuple gets its own delta round in the over-delete fixpoint.
	ghostIdx map[string]map[store.ColMask]*ghostIndex
	// marked holds over-deleted view tuples not (yet) rederived. What
	// remains at the end of the stage is the net deletion set.
	marked map[string]map[string]value.Tuple
	// insNew holds tuples newly inserted into views this stage, net of
	// same-stage deletions.
	insNew map[string]map[string]value.Tuple
	// frontier accumulates the next round of the over-delete fixpoint.
	frontier deltaSet
	// marks holds the tuples marked since the last rederivation pass:
	// deletion candidates (StageInput.Cand), which the first deletion phase
	// folds in so a candidate with a surviving local derivation is
	// restored, and the current deletion phase's over-deletions.
	marks []relTuple
	// remoteMarks holds the remote view facts the DRed pass retracted, for
	// the end-of-stage rederive check.
	remoteMarks []factRef
	// stageIns / stageDel accumulate all insertions / deletions seen so far
	// this stage, seeding the delta passes of later strata.
	stageIns deltaSet
	stageDel deltaSet
}

func (ic *incrState) ghost(relID, key string, t value.Tuple) {
	g := ic.ghosts[relID]
	if g == nil {
		g = map[string]value.Tuple{}
		ic.ghosts[relID] = g
	}
	g[key] = t
}

// mark records t (whose key is key) as over-deleted, pending its
// rederivation check.
func (ic *incrState) mark(relID, key string, t value.Tuple) {
	m := ic.marked[relID]
	if m == nil {
		m = map[string]value.Tuple{}
		ic.marked[relID] = m
	}
	m[key] = t
	ic.marks = append(ic.marks, relTuple{relID, key, t})
}

func (ic *incrState) isSeeded(relID, key string) bool {
	_, ok := ic.seeded[relID][key]
	return ok
}

// storedKey returns key as a string that shares the bytes of an equal key
// ingested this stage when there is one — the key the store holds — so a
// remote view rule that ships an ingested tuple as it is (a view over a base
// relation, delegated to the base's peer) keeps no second copy of it. Else
// it returns a fresh copy.
func (ic *incrState) storedKey(key []byte) string {
	if ic != nil {
		for _, s := range ic.seeded {
			if k, ok := s[string(key)]; ok {
				return k
			}
		}
	}
	return string(key)
}

// ghostIndex is one mask's hash index over a ghost-set snapshot.
type ghostIndex struct {
	size    int // ghost-set size at build time; rebuilt when it grows
	buckets map[string][]value.Tuple
}

// sweepGhosts calls fn for every ghost of relID whose masked columns encode
// to key, through a lazily built (and size-invalidated) per-mask index. The
// ghost buckets are keyed by the AppendKey encoding of the masked columns in
// ascending order — the same convention as the store's index and probe keys.
func (ic *incrState) sweepGhosts(relID string, mask store.ColMask, key []byte, fn func(value.Tuple)) {
	g := ic.ghosts[relID]
	if len(g) == 0 {
		return
	}
	if mask == 0 {
		for _, t := range g {
			fn(t)
		}
		return
	}
	idx := ic.ghostIndexFor(relID, mask, g)
	for _, t := range idx.buckets[string(key)] {
		fn(t)
	}
}

// ghostIndexFor returns relID's ghost index for mask, (re)building it when
// missing or stale (the ghost set changed size since the last build). A
// snapshot going stale mid-round is sound; see ghostIdx.
func (ic *incrState) ghostIndexFor(relID string, mask store.ColMask, g map[string]value.Tuple) *ghostIndex {
	byMask := ic.ghostIdx[relID]
	if byMask == nil {
		byMask = map[store.ColMask]*ghostIndex{}
		if ic.ghostIdx == nil {
			ic.ghostIdx = map[string]map[store.ColMask]*ghostIndex{}
		}
		ic.ghostIdx[relID] = byMask
	}
	idx := byMask[mask]
	if idx == nil || idx.size != len(g) {
		idx = &ghostIndex{size: len(g), buckets: make(map[string][]value.Tuple, len(g))}
		var keyBuf []byte
		for _, t := range g {
			keyBuf = keyBuf[:0]
			for c := 0; c < len(t); c++ {
				if mask.Has(c) {
					keyBuf = t[c].AppendKey(keyBuf)
				}
			}
			idx.buckets[string(keyBuf)] = append(idx.buckets[string(keyBuf)], t)
		}
		byMask[mask] = idx
	}
	return idx
}

// classify fills the Event / Remote / MaybeView flags of every rule and
// decides whether the program as a whole is incrementally maintainable.
// Called after stratification (CompileProgram / CompileRules).
func (e *Engine) classify(prog *Program) {
	idb := e.localIntensional()
	ok := e.opts.Incremental
	for _, cr := range prog.Rules {
		localBody, constNames := true, true
		hasNeg := false
		for i := range cr.Body {
			a := &cr.Body[i]
			if a.peer.isVar {
				localBody = false
				if a.neg {
					hasNeg = true
				}
				continue
			}
			pn := ""
			if a.peer.val.Kind() == value.KindString {
				pn = a.peer.val.StringVal()
			}
			if pn == BuiltinPeer {
				continue // built-ins are pure filters, negated or not
			}
			if pn != e.local {
				localBody = false
			}
			if a.neg {
				hasNeg = true
			}
			if a.rel.isVar || a.rel.val.Kind() != value.KindString {
				constNames = false
			}
		}
		headPeerNamed := !cr.Head.peer.isVar && cr.Head.peer.val.Kind() == value.KindString
		headRelNamed := !cr.Head.rel.isVar && cr.Head.rel.val.Kind() == value.KindString
		headPeerLocal := headPeerNamed && cr.Head.peer.val.StringVal() == e.local
		headPeerMaybeLocal := cr.Head.peer.isVar || headPeerLocal
		headRelIntensional := headRelNamed && idb[cr.Head.rel.val.StringVal()]
		cr.MaybeView = cr.Rule.Op == ast.Derive && headPeerMaybeLocal &&
			(cr.Head.rel.isVar || headRelIntensional)
		isView := cr.Rule.Op == ast.Derive && localBody && headPeerLocal && headRelIntensional
		// A remote head over a local positive body is a view whose
		// materialization is the RemoteView: nothing local reads it, so its
		// maintenance never feeds back into the fixpoint.
		cr.Remote = cr.Rule.Op == ast.Derive && localBody && !hasNeg && constNames &&
			headPeerNamed && !headPeerLocal && headRelNamed
		cr.Event = !isView && !cr.Remote
		if cr.MaybeView && hasNeg {
			// Deleting through negation would need insert deltas to feed
			// view deletions and vice versa; fall back to recomputation.
			ok = false
		}
	}
	prog.Incremental = ok
}

// RunStageFull recomputes every view from scratch — the path for the first
// stage, program changes, and programs (or engines) that are not
// incrementally maintainable. It clears the intensional relations, re-seeds
// the externally supported and transient tuples the caller passes in, runs
// the ordinary fixpoint, and diffs the rebuilt views against what the clear
// dropped, so Result.Views carries exact deltas as on the incremental path.
// Both sources of the caller's remote view are rebuilt too: the maintained
// facts are retracted and derived again, and the event emissions diffed, so
// Result.RemoteOut is exact as well.
func (e *Engine) RunStageFull(prog *Program, seeds map[string][]value.Tuple, rv *RemoteView) *Result {
	dropped := e.db.ClearIntensional()
	for relID, ts := range seeds {
		rel := relByID(e.db, relID)
		if rel == nil {
			continue
		}
		for _, t := range ts {
			if len(t) == rel.Schema().Arity() {
				rel.Insert(t)
			}
		}
	}
	rv.clearMaint()
	st := e.newStageState()
	st.rv = rv
	res := st.out
	if prog != nil {
		e.runStage(prog, st)
	}
	for relID, old := range dropped {
		if ins, del := relByID(e.db, relID).DiffSince(old); len(ins)+len(del) > 0 {
			if res.Views == nil {
				res.Views = map[string]*ViewDelta{}
			}
			res.Views[relID] = &ViewDelta{Ins: ins, Del: del}
		}
	}
	res.RemoteOut = rv.Diff(res.Remote)
	return res
}

// RunStageIncremental maintains the materialized views from the stage's
// base-fact deltas. Per stratum it (1) runs the over-delete/rederive pass
// for the accumulated deletions, (2) runs semi-naive delta iterations of the
// view and remote view rules over the accumulated insertions, and (3)
// evaluates the event rules in full, cascading any local derivations they
// add back through the view rules. The remote view facts the DRed passes
// retracted get their rederive check at the end, against the stage's final
// database. The caller must have run a full stage for this program before
// (the views must be materialized and consistent), and passes the same
// maintained remote view it passed there.
func (e *Engine) RunStageIncremental(prog *Program, in *StageInput, rv *RemoteView) *Result {
	st := e.newStageState()
	st.rv = rv
	ic := &incrState{
		in:       in,
		seeded:   map[string]map[string]string{},
		ghosts:   map[string]map[string]value.Tuple{},
		marked:   map[string]map[string]value.Tuple{},
		insNew:   map[string]map[string]value.Tuple{},
		stageIns: deltaSet{},
		stageDel: deltaSet{},
	}
	st.incr = ic
	if in != nil {
		for relID, ts := range in.Ins {
			ic.stageIns[relID] = append(ic.stageIns[relID], ts...)
			keys := in.InsKeys[relID]
			s := make(map[string]string, len(ts))
			for i, t := range ts {
				if len(keys) == len(ts) {
					s[keys[i]] = keys[i]
				} else {
					key := t.Key()
					s[key] = key
				}
			}
			ic.seeded[relID] = s
		}
		for relID, ts := range in.Del {
			for _, t := range ts {
				ic.ghost(relID, t.Key(), t)
			}
			ic.stageDel[relID] = append(ic.stageDel[relID], ts...)
		}
		// Deletion candidates: remove now, mark for rederivation. A
		// candidate's external support is gone, so a same-stage maintained
		// seed must not shield it — the peer already cancels candidates
		// that were re-supported later in the stage. A candidate that was
		// also inserted this stage (coalesced maintained +/-) must leave
		// the insertion delta too, or the insert phase would derive from a
		// tuple that no longer exists.
		for relID, ts := range in.Cand {
			rel := relByID(e.db, relID)
			if rel == nil {
				continue
			}
			var unseeded map[string]bool
			for _, t := range ts {
				key := t.Key()
				if ic.isSeeded(relID, key) {
					delete(ic.seeded[relID], key)
					if unseeded == nil {
						unseeded = map[string]bool{}
					}
					unseeded[key] = true
				}
				if rel.Delete(t) {
					ic.ghost(relID, key, t)
					ic.mark(relID, key, t)
					ic.stageDel[relID] = append(ic.stageDel[relID], t)
				}
			}
			if unseeded != nil {
				ic.stageIns[relID] = dropKeys(ic.stageIns[relID], unseeded)
			}
		}
	}

	for _, stratum := range prog.Strata {
		if len(stratum) == 0 {
			continue
		}
		e.deletePhase(prog, stratum, st)
		e.insertPhase(stratum, st, copyDelta(ic.stageIns))
		// Event rules run on the maintained state. Their local derivations
		// (variable-head rules) cascade back through the view rules until
		// nothing new appears; emission dedup keeps outputs exact.
		for {
			st.delta = deltaSet{}
			for _, cr := range stratum {
				if cr.Event {
					e.evalRule(cr, st, -1, nil)
				}
			}
			st.out.Iterations++
			if len(st.delta) == 0 {
				break
			}
			newly := st.delta
			for relID, ts := range newly {
				ic.stageIns[relID] = append(ic.stageIns[relID], ts...)
			}
			e.insertPhase(stratum, st, newly)
			if st.out.Iterations >= e.opts.MaxIterations {
				st.errf("engine: fixpoint exceeded %d iterations; aborting stratum", e.opts.MaxIterations)
				break
			}
		}
	}

	// Candidates not consumed by any rule stratum (rule-less programs, or
	// strata with no rules) still get their rederivation check — external
	// support added back by a later coalesced message must restore them.
	if len(ic.marks) > 0 {
		marks := ic.marks
		ic.marks = nil
		e.rederive(prog, st, marks)
	}
	// Nothing local reads a remote fact, so the remote view facts the DRed
	// passes retracted need one check, against the final database.
	for _, m := range ic.remoteMarks {
		if rel, peer := store.SplitID(m.relID); rv.retracted(m.factID) && e.rederivable(prog, st, rel, peer, m.args) {
			rv.addMaint(m.dst, m.relID, m.key, m.args)
		}
	}

	// Net view deltas.
	views := map[string]*ViewDelta{}
	for relID, m := range ic.insNew {
		if len(m) == 0 {
			continue
		}
		vd := viewDeltaFor(views, relID)
		for _, t := range m {
			vd.Ins = append(vd.Ins, t)
		}
	}
	for relID, m := range ic.marked {
		if len(m) == 0 {
			continue
		}
		vd := viewDeltaFor(views, relID)
		for _, t := range m {
			vd.Del = append(vd.Del, t)
			st.out.Retracted++
		}
	}
	if len(views) > 0 {
		st.out.Views = views
	}
	st.out.RemoteOut = rv.Diff(st.out.Remote)
	return st.out
}

func viewDeltaFor(views map[string]*ViewDelta, relID string) *ViewDelta {
	vd := views[relID]
	if vd == nil {
		vd = &ViewDelta{}
		views[relID] = vd
	}
	return vd
}

// insertPhase runs the semi-naive delta iterations of the stratum's view
// and remote view rules, seeded with the given delta, accumulating every new
// local derivation into the stage-wide insertion set.
func (e *Engine) insertPhase(stratum []*CompiledRule, st *stageState, seed deltaSet) {
	if len(seed) == 0 {
		return
	}
	st.delta = seed
	for len(st.delta) > 0 {
		if st.out.Iterations >= e.opts.MaxIterations {
			st.errf("engine: fixpoint exceeded %d iterations; aborting stratum", e.opts.MaxIterations)
			return
		}
		prev := st.delta
		st.delta = deltaSet{}
		for _, cr := range stratum {
			if !cr.Event {
				forDeltaPositions(cr, prev, func(j int) { e.evalRule(cr, st, j, prev) })
			}
		}
		for relID, ts := range st.delta {
			st.incr.stageIns[relID] = append(st.incr.stageIns[relID], ts...)
		}
		st.out.Iterations++
	}
}

// deletePhase implements DRed for one stratum: over-delete everything whose
// derivation may have used a deleted tuple (joining the delta position over
// the deletion frontier and the remaining positions over the pre-deletion
// database, i.e. relation ∪ ghosts; a fully matched body marks the produced
// head as over-deleted), then rederive the over-deleted tuples that still
// have standing support. A remote view rule's match retracts its head from
// the RemoteView instead; RunStageIncremental checks those at the end.
func (e *Engine) deletePhase(prog *Program, stratum []*CompiledRule, st *stageState) {
	ic := st.incr
	frontier := copyDelta(ic.stageDel)
	// Candidates marked before the strata ran (already in ic.marks) must be
	// rederivation-checked too: a tuple that lost its external support but
	// still has a local derivation stays. (Checked in the first stratum; a
	// check against not-yet-maintained later strata self-corrects — a
	// wrongly kept tuple is re-marked when its support is over-deleted, a
	// wrongly deleted one is re-derived by the insert pass.)
	for len(frontier) > 0 {
		if st.out.Iterations >= e.opts.MaxIterations {
			st.errf("engine: deletion pass exceeded %d iterations; aborting stratum", e.opts.MaxIterations)
			return
		}
		ic.frontier = deltaSet{}
		for _, cr := range stratum {
			if !cr.MaybeView && !cr.Remote {
				continue
			}
			forDeltaPositions(cr, frontier, func(j int) {
				st.planner.compiledFor(cr, kindDRed, j).run(st, frontier)
			})
		}
		st.out.Iterations++
		for relID, ts := range ic.frontier {
			ic.stageDel[relID] = append(ic.stageDel[relID], ts...)
		}
		frontier = ic.frontier
	}
	marks := ic.marks
	ic.marks = nil
	e.rederive(prog, st, marks)
}

// relTuple pairs a relation id with a tuple and its key.
type relTuple struct {
	relID, key string
	tuple      value.Tuple
}

// rederive restores over-deleted tuples that still have support: an external
// (remote-maintained) supporter, a seed from this stage's input, or a rule
// derivation from the remaining database. Restorations can support one
// another, so the pass iterates to fixpoint.
func (e *Engine) rederive(prog *Program, st *stageState, marks []relTuple) {
	ic := st.incr
	for changed := true; changed; {
		changed = false
		for i := range marks {
			m := &marks[i]
			if m.relID == "" {
				continue // already restored
			}
			if ic.marked[m.relID][m.key] == nil {
				m.relID = ""
				continue
			}
			rel := relByID(e.db, m.relID)
			if rel == nil {
				continue
			}
			name, peerName := store.SplitID(m.relID)
			keep := ic.isSeeded(m.relID, m.key) ||
				ic.in.supported(m.relID, m.key) ||
				e.rederivable(prog, st, name, peerName, m.tuple)
			if keep {
				rel.Insert(m.tuple)
				delete(ic.marked[m.relID], m.key)
				// Un-ghost: the tuple is back in the relation (the
				// pre-deletion union view still sees it there), and a later
				// stratum whose over-delete targets it again must not be
				// stopped by the "already processed" check.
				delete(ic.ghosts[m.relID], m.key)
				// Let the insert phase re-check derivations downstream of
				// the restoration; existing heads dedupe to no-ops.
				ic.stageIns[m.relID] = append(ic.stageIns[m.relID], m.tuple)
				m.relID = ""
				changed = true
			}
		}
	}
}

// rederivable reports whether some rule of the program derives rel@peer(t)
// from the current database. The head is unified with the target tuple first
// so the body walk is driven by bound values (indexable lookups); the
// planner supplies a body order chosen for exactly that pre-bound state.
// Atoms that resolve to remote peers fail the branch: a delegated suffix is
// not a local derivation. A local fact is checked against the rules that may
// derive into a view; a remote one against the remote view rules only, since
// an event rule's emission of it belongs to the event source.
func (e *Engine) rederivable(prog *Program, st *stageState, relName, peerName string, t value.Tuple) bool {
	remote := peerName != e.local
	for _, cr := range prog.Rules {
		if remote && !cr.Remote || !remote && !cr.MaybeView {
			continue
		}
		env := make([]value.Value, cr.NumSlots)
		bound := make([]bool, cr.NumSlots)
		if !unifyHead(cr, relName, peerName, t, env, bound) {
			continue
		}
		if st.planner.compiledFor(cr, kindMatch, -1).runMatch(st, env) {
			return true
		}
	}
	return false
}

// unifyHead binds the rule's head against the target fact; false if the head
// cannot produce it.
func unifyHead(cr *CompiledRule, relName, peerName string, t value.Tuple, env []value.Value, bound []bool) bool {
	if len(cr.Head.args) != len(t) {
		return false
	}
	bindTerm := func(term termRef, v value.Value) bool {
		if term.isVar {
			if bound[term.slot] {
				return env[term.slot].Equal(v)
			}
			env[term.slot] = v
			bound[term.slot] = true
			return true
		}
		return term.val.Equal(v)
	}
	if !bindTerm(cr.Head.rel, value.Str(relName)) {
		return false
	}
	if !bindTerm(cr.Head.peer, value.Str(peerName)) {
		return false
	}
	for k, arg := range cr.Head.args {
		if !bindTerm(arg, t[k]) {
			return false
		}
	}
	return true
}

// produceDelete marks the head tuple under the current bindings as
// over-deleted if it is a currently materialized local view tuple. All other
// head shapes (remote, extensional, already deleted) are ignored here: event
// rules re-emit their outputs in full and RemoteView.Diff handles
// retraction; remote view rules retract through retractRemote.
func (e *Engine) produceDelete(cr *CompiledRule, env []value.Value, st *stageState) {
	ic := st.incr
	headPeer, ok := resolveName(cr.Head.peer, env)
	if !ok || headPeer != e.local {
		return
	}
	headRel, ok := resolveName(cr.Head.rel, env)
	if !ok {
		return
	}
	rel := e.db.Get(headRel, headPeer)
	if rel == nil || rel.Kind() != ast.Intensional {
		return
	}
	t := cr.Head.tuple(env)
	if len(t) != rel.Schema().Arity() {
		return
	}
	relID := headRel + "@" + headPeer
	key := t.Key()
	if ic.ghosts[relID][key] != nil {
		return // already processed this stage
	}
	if !rel.Delete(t) {
		return
	}
	ic.ghost(relID, key, t)
	ic.mark(relID, key, t)
	ic.frontier[relID] = append(ic.frontier[relID], t)
}

// dropKeys removes every tuple whose key is in keys from the slice, encoding
// each tuple's key once.
func dropKeys(ts []value.Tuple, keys map[string]bool) []value.Tuple {
	out := ts[:0]
	for _, t := range ts {
		if !keys[t.Key()] {
			out = append(out, t)
		}
	}
	return out
}

func copyDelta(d deltaSet) deltaSet {
	out := make(deltaSet, len(d))
	for k, v := range d {
		out[k] = append([]value.Tuple(nil), v...)
	}
	return out
}

func relByID(db *store.Store, relID string) *store.Relation {
	return db.GetID(relID)
}
