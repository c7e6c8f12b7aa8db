package engine

import (
	"maps"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// Stage evaluation: materialized views maintained across stages.
//
// Derived relations stay materialized between stages, and every stage
// maintains them from two kinds of change. One is the base-fact batch the
// peer ingested, which enters the fixpoint as the initial delta. The other
// is the program delta against the program the views were last consistent
// with: added rules are evaluated in full once, in their stratum, before its
// insert phase; each removed rule gets one over-delete walk. Deletions are
// handled DRed-style — over-delete everything that may depend on a deleted
// fact or a removed rule, then rederive what still has an alternative
// derivation, so retracting one support never kills a tuple that has
// another. The first build is the delta from the empty program, so one
// driver (runDelta) runs every stage: bare RunStage, RunStageIncremental,
// and RunStageFull, which clears the views and re-seeds them first.
//
// Rules are split statically (classify):
//
//   - view rules — head is a declared local intensional relation, body
//     positive and run here. These are the materialized views and take the
//     delta path.
//   - remote view rules — a Derive rule whose head names a constant remote
//     peer and relation, body run here, positive and constant-named: the
//     paper's hub publish rule, and the §2 rule once delegated, e.g.
//     attendeePictures@jules(…) :- pictures@emilien(…) at emilien. Their
//     materialization is the caller's RemoteView, and they take the same
//     delta path as views: the semi-naive pass adds a fact to the
//     destination's view, the DRed over-delete retracts it, and an
//     end-of-stage rederive check (kindMatch, head-unified) restores the
//     retracted facts that are still derivable. A stage costs O(δ), not
//     O(view).
//   - delegating rules — a body that may leave the peer after a positive,
//     constant-named local prefix. The walk that reaches a remote atom
//     derives the residual's template (TemplateRel) and the valuation's
//     binding at that peer instead of the head, and both are maintained in
//     the RemoteView exactly like remote view facts: added by the semi-naive
//     pass, retracted by the DRed over-delete, restored by an end-of-stage
//     check of the prefix (kindResidual); a template goes with its last
//     binding. A rule whose atom may also resolve to this peer must
//     be a view or remote view rule for the valuations that stay here.
//   - event rules — everything else: deletion rules and rules with
//     extensional or variable heads that may run to the end here, rules
//     whose local prefix negates, and remote-head rules over negated or
//     variable-named atoms. Event rules are evaluated in full every stage,
//     which preserves the paper's update-emission semantics unchanged, so
//     adding or removing one needs no walk of its own. Result.Remote holds
//     their emissions, the templates and bindings they delegate included.
//
// RemoteView.Diff ends the stage: it reconciles the event rules' emission
// set against the previous stage's and folds in the maintained rules'
// changes, producing true insert/retract deltas (Result.RemoteOut) instead
// of re-shipping the full set every stage.

// StageInput describes the base-fact deltas of one peer stage. All tuples in
// Ins are already present in the store (the peer applied extensional updates
// and seeded intensional facts during ingestion); all tuples in Del are
// already removed. Cand holds intensional deletion candidates — tuples whose
// external support just vanished — which are still in the store: the
// evaluator deletes them unless a local derivation (or a seed in Ins) keeps
// them alive. InsKeys, when set, holds the Tuple.Key of each Ins tuple, in
// the same order: the key strings the store holds, which a remote view rule
// deriving an equal tuple then shares instead of copying. DelKeys and
// CandKeys, when set, hold the keys of Del and Cand the same way, so the
// caller's keys are not encoded again (keyAt). Supported, when
// set, reports whether a remote sender currently maintains the intensional
// tuple of relID whose Tuple.Key is key here — an external support that
// keeps an over-deleted tuple alive.
type StageInput struct {
	Ins       map[string][]value.Tuple // relID -> tuples inserted before the stage
	InsKeys   map[string][]string      // relID -> the key of each Ins tuple
	Del       map[string][]value.Tuple // relID -> extensional tuples removed before the stage
	DelKeys   map[string][]string      // relID -> the key of each Del tuple
	Cand      map[string][]value.Tuple // relID -> intensional tuples that lost external support
	CandKeys  map[string][]string      // relID -> the key of each Cand tuple
	Supported func(relID, key string) bool
}

// keyAt returns the key of ts[i]: keys[i] when keys holds one per tuple of
// ts, else its encoding.
func keyAt(ts []value.Tuple, keys []string, i int) string {
	if len(keys) == len(ts) {
		return keys[i]
	}
	return ts[i].Key()
}

// supported reports whether a remote sender maintains the tuple (see
// StageInput.Supported).
func (in *StageInput) supported(relID, key string) bool {
	return in != nil && in.Supported != nil && in.Supported(relID, key)
}

// incrState carries the per-stage bookkeeping of an incremental run.
type incrState struct {
	in *StageInput
	// seeded marks the tuples of StageInput.Ins: externally present this
	// stage, so rederivation keeps them regardless of rule support. Each key
	// maps to itself, the string the store holds when StageInput.InsKeys
	// gave it (storedKey). A relation's set is built on first use (seedsOf),
	// so a first build over a large batch indexes none of it.
	seeded map[string]map[string]string
	// fresh records, per intensional relation derived into, whether it was
	// empty when the stage began (isFresh); such a view reports its whole
	// contents as its delta instead of keeping insNew.
	fresh map[string]bool
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
	// remoteMarks holds the remote view facts, templates and bindings the
	// DRed pass retracted, for the end-of-stage rederive check.
	remoteMarks []remoteMark
	// templates holds the templates a binding of was retracted: each goes at
	// the end of the stage if none of its bindings is left.
	templates []*template
	// removing is set while removed rules take their over-delete walk: the
	// delegations they retract have no rule left to restore them.
	removing bool
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

// seedsOf returns relID's seed set (see seeded), building it on first use.
func (ic *incrState) seedsOf(relID string) map[string]string {
	s, ok := ic.seeded[relID]
	if ok || ic.in == nil {
		return s
	}
	ts, keys := ic.in.Ins[relID], ic.in.InsKeys[relID]
	if len(ts) > 0 {
		s = make(map[string]string, len(ts))
		for i := range ts {
			key := keyAt(ts, keys, i)
			s[key] = key
		}
	}
	ic.seeded[relID] = s
	return s
}

func (ic *incrState) isSeeded(relID, key string) bool {
	_, ok := ic.seedsOf(relID)[key]
	return ok
}

// isFresh reports whether relID, which a derivation just inserted into, was
// empty when the stage began. Decided on the first derivation into it: then
// the relation holds that one tuple, and a tuple it held at stage start is
// either still there or — deleted this stage — a ghost.
func (ic *incrState) isFresh(rel *store.Relation, relID string) bool {
	fresh, ok := ic.fresh[relID]
	if !ok {
		fresh = rel.Len() == 1 && len(ic.ghosts[relID]) == 0
		ic.fresh[relID] = fresh
	}
	return fresh
}

// storedKey returns key as a string that shares the bytes of an equal key
// ingested this stage when there is one — the key the store holds — so a
// remote view rule that ships an ingested tuple as it is (a view over a base
// relation, delegated to the base's peer) keeps no second copy of it. Else
// it returns a fresh copy.
func (ic *incrState) storedKey(key []byte) string {
	if ic.in != nil {
		for relID := range ic.in.Ins {
			if k, ok := ic.seedsOf(relID)[string(key)]; ok {
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

// ruleKey is a rule's identity (CompiledRule.key) with its classification.
type ruleKey struct {
	id    string
	class ruleClass
}

// ruleClass is a rule's classification: its Event, Remote and MaybeView.
type ruleClass struct{ event, remote, maybeView bool }

// constPeer returns the atom's peer name when its peer term is a constant
// string.
func constPeer(a *cAtom) (string, bool) {
	if a.peer.isVar || a.peer.val.Kind() != value.KindString {
		return "", false
	}
	return a.peer.val.StringVal(), true
}

// classify fills the Event / Remote / MaybeView flags of every rule and
// decides whether the program as a whole is incrementally maintainable.
// Called after stratification (CompileRules).
func (e *Engine) classify(prog *Program) {
	idb := e.localIntensional()
	ok := e.opts.Incremental
	prog.keys = make([]ruleKey, len(prog.Rules))
	for n, cr := range prog.Rules {
		prog.maxSlots = max(prog.maxSlots, cr.NumSlots)
		// deleg is the first atom that may leave the peer (len(Body): none
		// may), where a delegation splits the rule; atoms past one named at
		// another peer never run here.
		deleg := planRegion(cr, e.local)
		prefixOK, constNames, hasNeg := true, true, false
		for i := range cr.Body {
			a := &cr.Body[i]
			pn, named := constPeer(a)
			if named && pn == BuiltinPeer {
				continue // built-ins are pure filters, negated or not
			}
			if !a.peer.isVar && pn != e.local {
				break
			}
			relNamed := !a.rel.isVar && a.rel.val.Kind() == value.KindString
			hasNeg = hasNeg || a.neg
			constNames = constNames && relNamed
			if i < deleg {
				prefixOK = prefixOK && !a.neg && relNamed
			}
		}
		// static: every valuation delegates at deleg, none runs to the head.
		static := false
		if deleg < len(cr.Body) {
			_, static = constPeer(&cr.Body[deleg])
		}
		// A rule whose delegation point may resolve here is maintained when
		// the valuations that stay here are those of a view or remote view.
		stays := deleg == len(cr.Body) || prefixOK && !static
		headPeerNamed := !cr.Head.peer.isVar && cr.Head.peer.val.Kind() == value.KindString
		headRelNamed := !cr.Head.rel.isVar && cr.Head.rel.val.Kind() == value.KindString
		headPeerLocal := headPeerNamed && cr.Head.peer.val.StringVal() == e.local
		headPeerMaybeLocal := cr.Head.peer.isVar || headPeerLocal
		headRelIntensional := headRelNamed && idb[cr.Head.rel.val.StringVal()]
		derive := cr.Rule.Op == ast.Derive
		cr.MaybeView = derive && headPeerMaybeLocal && (cr.Head.rel.isVar || headRelIntensional)
		isView := derive && stays && headPeerLocal && headRelIntensional
		// A remote head over a positive body run here is a view whose
		// materialization is the RemoteView: nothing local reads it, so its
		// maintenance never feeds back into the fixpoint.
		cr.Remote = derive && stays && !hasNeg && constNames &&
			headPeerNamed && !headPeerLocal && headRelNamed
		cr.Event = !isView && !cr.Remote && !(static && prefixOK)
		prog.keys[n] = ruleKey{cr.key, cr.class()}
		if cr.MaybeView && hasNeg {
			// Deleting through negation would need insert deltas to feed
			// view deletions and vice versa; fall back to recomputation.
			ok = false
		}
	}
	prog.Incremental = ok
}

// programDelta returns the rules of prog whose keys prev lacks (added) and
// the rules of prev whose keys prog lacks (removed); nil stands for the empty
// program. Rules with equal keys derive the same facts, so a recompilation
// that only reorders rules, or reuses them, is no delta at all.
func programDelta(prev, prog *Program) (added map[*CompiledRule]bool, removed []*CompiledRule) {
	if prev == prog {
		return nil, nil
	}
	if prev == nil {
		prev = &Program{}
	}
	had, has := make(map[ruleKey]bool, len(prev.Rules)), make(map[ruleKey]bool, len(prog.Rules))
	for _, k := range prev.keys {
		had[k] = true
	}
	added = make(map[*CompiledRule]bool, len(prog.Rules))
	for i, cr := range prog.Rules {
		has[prog.keys[i]] = true
		added[cr] = !had[prog.keys[i]]
	}
	for i, cr := range prev.Rules {
		if k := prev.keys[i]; !has[k] {
			has[k] = true // walk a duplicated rule once
			removed = append(removed, cr)
		}
	}
	return added, removed
}

// RunStageFull rebuilds every view — the path for programs (or engines) that
// are not incrementally maintainable. It clears the intensional relations,
// keeps the tuples the caller still seeds (keep: externally supported and
// transient ones; nil keeps none), runs the first build (the delta from the
// empty program), and diffs the rebuilt views against what the clear
// dropped, so Result.Views carries exact deltas as on the incremental path.
// The caller's remote view is rebuilt too: the maintained facts are
// retracted and derived again, and the event emissions diffed, so
// Result.RemoteOut is exact as well.
func (e *Engine) RunStageFull(prog *Program, keep func(relID, key string) bool, rv *RemoteView) *Result {
	dropped := e.db.ClearIntensional()
	for relID, old := range dropped {
		for key, t := range old {
			if keep != nil && keep(relID, key) {
				e.db.GetID(relID).InsertKeyed(t, key)
			}
		}
	}
	rv.clearMaint()
	e.views = prog
	res := e.runDelta(nil, prog, nil, rv).out
	for relID, old := range dropped {
		if ins, del := e.db.GetID(relID).DiffSince(old); len(ins)+len(del) > 0 {
			if res.Views == nil {
				res.Views = map[string]*ViewDelta{}
			}
			res.Views[relID] = &ViewDelta{Ins: ins, Del: del}
		}
	}
	return res
}

// RunStageIncremental maintains the materialized views from the stage's
// base-fact deltas and from the program delta between prog and the program
// this engine's last RunStageIncremental or RunStageFull left them consistent
// with — none before the first, so the first stage is the delta from the
// empty program. The caller passes the same RemoteView every stage.
func (e *Engine) RunStageIncremental(prog *Program, in *StageInput, rv *RemoteView) *Result {
	prev := e.views
	e.views = prog
	st := e.runDelta(prev, prog, in, rv)
	st.out.Views = e.netViews(st)
	return st.out
}

// runDelta is the fixpoint driver. The views are consistent with prev (nil:
// the empty program, as is a nil prog) over the store as it was before the
// ingestion in describes. Deletions and deletion candidates are marked
// first, and each removed rule that may derive into a view or the RemoteView
// gets one over-delete walk (kindDRed with no delta position: every atom
// ranges over relation ∪ ghosts). Per stratum it then (1) runs the
// over-delete/rederive pass, which cascades those marks and checks them
// against prog, (2) evaluates the added rules in full and runs the semi-naive
// delta iterations, and (3) evaluates the event rules in full. Retracted
// remote view facts are rederive-checked at the end, and a RemoteView, when
// given, is diffed into Result.RemoteOut.
func (e *Engine) runDelta(prev, prog *Program, in *StageInput, rv *RemoteView) *stageState {
	if prog == nil {
		prog = &Program{}
	}
	st := e.newStageState()
	st.rv = rv
	ic := &incrState{
		in:       in,
		seeded:   map[string]map[string]string{},
		fresh:    map[string]bool{},
		ghosts:   map[string]map[string]value.Tuple{},
		marked:   map[string]map[string]value.Tuple{},
		insNew:   map[string]map[string]value.Tuple{},
		stageIns: deltaSet{},
		stageDel: deltaSet{},
	}
	st.incr = ic
	if in != nil {
		for relID, ts := range in.Ins {
			// Clipped: appending must not write into the caller's array.
			ic.stageIns[relID] = ts[:len(ts):len(ts)]
		}
		for relID, ts := range in.Del {
			for i, t := range ts {
				ic.ghost(relID, keyAt(ts, in.DelKeys[relID], i), t)
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
			rel := e.db.GetID(relID)
			if rel == nil {
				continue
			}
			var unseeded map[string]bool
			for i, t := range ts {
				key := keyAt(ts, in.CandKeys[relID], i)
				if ic.isSeeded(relID, key) {
					delete(ic.seeded[relID], key)
					if unseeded == nil {
						unseeded = map[string]bool{}
					}
					unseeded[key] = true
				}
				if rel.DeleteKeyed(t, key) {
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
	added, removed := programDelta(prev, prog)
	if len(removed) > 0 {
		ic.frontier = deltaSet{}
		ic.removing = true
		for _, cr := range removed {
			if cr.MaybeView || !cr.Event {
				st.planner.compiledFor(cr, kindDRed, -1).run(st, nil)
			}
		}
		ic.removing = false
		for relID, ts := range ic.frontier {
			ic.stageDel[relID] = append(ic.stageDel[relID], ts...)
		}
	}

	for _, stratum := range prog.Strata {
		if len(stratum) == 0 {
			continue
		}
		e.deletePhase(prog, stratum, st, added)
		e.insertPhase(stratum, st, maps.Clone(ic.stageIns), added)
		// Event rules run on the maintained state. Their local derivations
		// (variable-head rules) cascade back through the view rules until
		// nothing new appears; emission dedup keeps outputs exact.
		for {
			if st.out.Iterations >= e.opts.MaxIterations {
				st.errf("engine: fixpoint exceeded %d iterations; aborting stratum", e.opts.MaxIterations)
				break
			}
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
			e.insertPhase(stratum, st, newly, nil)
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
	// Nothing local reads a remote fact, so the remote view facts and
	// delegations the DRed passes retracted need one check, against the final
	// database; a template then stands while a binding of it does.
	for _, m := range ic.remoteMarks {
		if rv.retracted(m.factID) && e.stands(prog, st, m) {
			rv.addMaint(m.dst, m.relID, m.key, m.args)
		}
	}
	for _, tp := range ic.templates {
		if !rv.derives(tp.dst, tp.bindID) {
			rv.retractMaint(tp.dst, tp.relID, []byte(tp.key))
		}
	}
	if rv != nil {
		st.out.RemoteOut = rv.Diff(st.out.Remote)
	}
	return st
}

// netViews returns the stage's net view deltas (nil when no view changed)
// and counts its net retractions into Result.Retracted.
func (e *Engine) netViews(st *stageState) map[string]*ViewDelta {
	ic := st.incr
	views := map[string]*ViewDelta{}
	for relID, fresh := range ic.fresh {
		if !fresh {
			continue
		}
		if ins, _ := e.db.GetID(relID).DiffSince(nil); len(ins) > 0 {
			views[relID] = &ViewDelta{Ins: ins}
		}
	}
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
		if len(m) == 0 || ic.fresh[relID] {
			continue
		}
		vd := viewDeltaFor(views, relID)
		for _, t := range m {
			vd.Del = append(vd.Del, t)
			st.out.Retracted++
		}
	}
	if len(views) == 0 {
		return nil
	}
	return views
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
// local derivation into the stage-wide insertion set. Its first round
// evaluates the added rules in full instead: nothing they derive is
// materialized yet, and the full walk already sees the seed.
func (e *Engine) insertPhase(stratum []*CompiledRule, st *stageState, seed deltaSet, added map[*CompiledRule]bool) {
	if len(seed) == 0 && added == nil {
		return
	}
	st.delta = seed
	for first := true; first || len(st.delta) > 0; first = false {
		if st.out.Iterations >= e.opts.MaxIterations {
			st.errf("engine: fixpoint exceeded %d iterations; aborting stratum", e.opts.MaxIterations)
			return
		}
		prev := st.delta
		st.delta = deltaSet{}
		for _, cr := range stratum {
			switch {
			case cr.Event:
			case first && added[cr]:
				e.evalRule(cr, st, -1, nil)
			default:
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
// the RemoteView instead, and a delegating rule's its binding; runDelta
// checks those at the end. Added rules take no part: nothing they derive is
// materialized yet.
func (e *Engine) deletePhase(prog *Program, stratum []*CompiledRule, st *stageState, added map[*CompiledRule]bool) {
	ic := st.incr
	frontier := maps.Clone(ic.stageDel)
	// Candidates and removed rules' marks (already in ic.marks) are checked
	// in the first stratum; a check against not-yet-maintained later strata
	// self-corrects — a wrongly kept tuple is re-marked when its support is
	// over-deleted, a wrongly deleted one is re-derived by the insert pass.
	for len(frontier) > 0 {
		if st.out.Iterations >= e.opts.MaxIterations {
			st.errf("engine: deletion pass exceeded %d iterations; aborting stratum", e.opts.MaxIterations)
			return
		}
		ic.frontier = deltaSet{}
		for _, cr := range stratum {
			if !cr.MaybeView && cr.Event || added[cr] {
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
			rel := e.db.GetID(m.relID)
			if rel == nil {
				continue
			}
			name, peerName := store.SplitID(m.relID)
			keep := ic.isSeeded(m.relID, m.key) ||
				ic.in.supported(m.relID, m.key) ||
				e.rederivable(prog, st, name, peerName, m.tuple)
			if keep {
				rel.InsertKeyed(m.tuple, m.key)
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
// Rules whose head cannot produce the fact are skipped before the frame,
// shared by the rest and sized to the widest rule, is touched.
func (e *Engine) rederivable(prog *Program, st *stageState, relName, peerName string, t value.Tuple) bool {
	remote := peerName != e.local
	var env []value.Value
	var bound []bool
	for _, cr := range prog.Rules {
		h := &cr.Head
		if remote && !cr.Remote || !remote && !cr.MaybeView || len(h.args) != len(t) ||
			namesOther(h.rel, relName) || namesOther(h.peer, peerName) {
			continue
		}
		if env == nil {
			env, bound = make([]value.Value, prog.maxSlots), make([]bool, prog.maxSlots)
		} else {
			clear(bound)
		}
		if !unifyHead(cr, relName, peerName, t, env[:cr.NumSlots], bound) {
			continue
		}
		if st.planner.compiledFor(cr, kindMatch, -1).runMatch(st, env[:cr.NumSlots]) {
			return true
		}
	}
	return false
}

// namesOther reports whether a constant name term names something other
// than name.
func namesOther(t termRef, name string) bool {
	return !t.isVar && (t.val.Kind() != value.KindString || t.val.StringVal() != name)
}

// remoteMark is a remote view fact, binding or template the DRed pass
// retracted. A delegation records the rule that delegated it (a template
// names its rule, and its suffix fixes the split), where, and the frame of
// the retracting walk: every slot the template and binding depend on is
// bound there.
type remoteMark struct {
	factRef
	cr  *CompiledRule // nil: a remote view fact
	pos int
	env []value.Value
}

// stands reports whether the retracted fact m is derived still, over the
// final database: a remote view fact by some remote view rule
// (rederivable), a binding, or a template without parameters, by a
// valuation of its rule's prefix that agrees with it.
func (e *Engine) stands(prog *Program, st *stageState, m remoteMark) bool {
	if m.cr == nil {
		rel, peer := store.SplitID(m.relID)
		return e.rederivable(prog, st, rel, peer, m.args)
	}
	return st.planner.compiledFor(m.cr, kindResidual, m.pos).runMatch(st, m.env)
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
	relID := rel.ID()
	key := t.Key()
	if ic.ghosts[relID][key] != nil {
		return // already processed this stage
	}
	if !rel.DeleteKeyed(t, key) {
		return
	}
	ic.ghost(relID, key, t)
	ic.mark(relID, key, t)
	ic.frontier[relID] = append(ic.frontier[relID], t)
}

// dropKeys returns the tuples of ts whose key is not in keys, in a new
// slice, encoding each tuple's key once.
func dropKeys(ts []value.Tuple, keys map[string]bool) []value.Tuple {
	out := make([]value.Tuple, 0, len(ts))
	for _, t := range ts {
		if !keys[t.Key()] {
			out = append(out, t)
		}
	}
	return out
}
