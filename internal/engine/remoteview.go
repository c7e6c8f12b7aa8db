package engine

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// RemoteView is the maintained per-destination image of every fact a peer's
// program currently derives for remote peers (Derive-op heads only). It is
// owned by the peer's outbound session layer — per-(sender, receiver) stream
// state, the thing a resync repair re-ships — and passed into RunStageFull /
// RunStageIncremental, which fold each stage's changes into it and ship the
// difference as Result.RemoteOut.
//
// Two sources derive its facts:
//
//   - remote view rules (see classify) maintain theirs in place, in O(δ): the
//     stage's delta passes add a fact, the DRed over-delete retracts it, and
//     the end-of-stage rederive check restores it when another derivation
//     still stands;
//   - event rules re-emit their whole set every stage (Result.Remote), and
//     Diff reconciles it against the set the previous stage emitted.
//
// A destination holds a fact while either source derives it: the fact ships
// as a maintained insert when the first source starts deriving it and as a
// maintained delete when the last one stops. A one-shot delete (a
// deletion-rule emission) undoes the fact at the receiver, so it leaves the
// view for that stage too; the next stage that still derives the fact ships
// the maintained insert again (the paper's continuous-update semantics, one
// stage later).
//
// A fact is held as its canonical tuple key and a word of source state —
// the tuple itself is decoded again only to ship a delete or a repair — and
// every destination relation keeps one Merkle summary tree (store.MerkleTree)
// of its held facts, advanced by exactly the maintained inserts and deletes
// each stage ships, never rebuilt by walking the view. The tree roots are the
// O(1) digests an anti-entropy advert carries, and the trees answer the
// repair dialogue's range-digest and range-fact queries in O(log n).
//
// A RemoteView is not safe for concurrent use; the peer accesses it under
// its own lock (stages and resync handling are both serialized there).
type RemoteView struct {
	rels map[string]map[string]*remoteRel // dst -> relID at dst -> its facts
	// gen numbers the Diffs (never 0); a fact the current Diff's event
	// emissions include carries it.
	gen uint32
	// event and shot list the last Diff's event-rule emissions and one-shot
	// deletes: the next Diff revisits exactly those, never the whole view.
	event, shot []factRef
	// touched lists the facts whose sources changed since the last Diff,
	// which reconciles them.
	touched []factRef
	// intern, when set, canonicalizes the keys the view retains: a fact
	// maintained at many destinations (a post pushed to every follower)
	// keeps one key backing for all of them, shared with the receivers'
	// interned stores. Aliasing-only, like store.Relation's interner.
	intern *value.Interner
}

// remoteRel is one destination relation of the view.
type remoteRel struct {
	facts map[string]factState // tuple key -> its sources
	tree  *store.MerkleTree    // the held facts; nil while there are none
	rules int                  // the facts a remote view rule derives
}

// factState is what the view knows of one fact. It packs into a word, so a
// fact costs its key and a map slot.
type factState struct {
	gen  uint32 // the latest Diff, if its event emissions include the fact; else 0
	rule bool   // derived by a remote view rule
	held bool   // shipped as maintained and not withdrawn since: the tree counts it
}

// factID names one fact of the view: its destination, relation and tuple
// key.
type factID struct{ dst, relID, key string }

// factRef is a factID with the fact's tuple when the naming code had it at
// hand, nil otherwise (it is decoded from key).
type factRef struct {
	factID
	args value.Tuple
}

// NewRemoteView returns an empty maintained view.
func NewRemoteView() *RemoteView {
	return &RemoteView{rels: map[string]map[string]*remoteRel{}}
}

// SetInterner routes the view's retained keys through the given intern
// table (see the intern field). Call before the first stage.
func (v *RemoteView) SetInterner(in *value.Interner) { v.intern = in }

// Digests returns the per-relation digests of the facts maintained at dst,
// empty when nothing is maintained there. O(#relations): each digest is a
// tree root read.
func (v *RemoteView) Digests(dst string) map[string]store.Digest {
	var out map[string]store.Digest
	for relID, r := range v.rels[dst] {
		if r.tree != nil {
			if out == nil {
				out = map[string]store.Digest{}
			}
			out[relID] = r.tree.Root()
		}
	}
	return out
}

// Tree returns the live summary tree of relID's maintained facts at dst, or
// nil when nothing is maintained. The tree belongs to the view — callers
// read it under the same lock that serializes stages.
func (v *RemoteView) Tree(dst, relID string) *store.MerkleTree {
	if r := v.rels[dst][relID]; r != nil {
		return r.tree
	}
	return nil
}

// RangeFacts reads the maintained facts of relID at dst whose canonical key
// hash falls in the inclusive range [lo, hi], in canonical (hash, key)
// order, at most max at a time (max <= 0: all of them). It returns the end
// of the hash sub-range the facts exhaust — [lo, end] holds exactly these
// facts, and end == hi when the read was not cut (store.MerkleTree.RangeKeys)
// — so one read is the content of one self-contained ranged repair and
// [end+1, hi] is what the next one covers. The slice is the caller's.
func (v *RemoteView) RangeFacts(dst, relID string, lo, hi uint64, max int) (facts []ast.Fact, end uint64) {
	tr := v.Tree(dst, relID)
	if tr == nil {
		return nil, hi
	}
	keys, end := tr.RangeKeys(lo, hi, max)
	facts = make([]ast.Fact, 0, len(keys))
	for _, key := range keys {
		facts = append(facts, factOf(factRef{factID: factID{dst, relID, key}}))
	}
	return facts, end
}

// factOf builds the fact ref names, decoding its tuple when ref carries none.
// The key is one the view built itself, so it decodes.
func factOf(ref factRef) ast.Fact {
	args := ref.args
	if args == nil {
		args, _ = value.DecodeKey(ref.key)
	}
	rel, peer := store.SplitID(ref.relID)
	return ast.Fact{Rel: rel, Peer: peer, Args: args}
}

// rel returns relID's facts at dst, creating them on first use.
func (v *RemoteView) rel(dst, relID string) *remoteRel {
	r := v.rels[dst][relID]
	if r == nil {
		m := v.rels[dst]
		if m == nil {
			m = map[string]*remoteRel{}
			v.rels[dst] = m
		}
		r = &remoteRel{facts: map[string]factState{}}
		m[relID] = r
	}
	return r
}

// maintained reports whether a remote view rule derives the fact of relID
// at dst whose tuple key is key. key is not retained.
func (v *RemoteView) maintained(dst, relID string, key []byte) bool {
	r := v.rels[dst][relID]
	return r != nil && r.facts[string(key)].rule
}

// addMaint records that a remote view rule derives the fact of relID at dst
// whose tuple is args and tuple key is key.
func (v *RemoteView) addMaint(dst, relID, key string, args value.Tuple) {
	r := v.rel(dst, relID)
	f, ok := r.facts[key]
	if f.rule {
		return
	}
	if !ok && v.intern != nil {
		_, key = v.intern.TupleKeyed(args, key)
	}
	f.rule = true
	r.facts[key] = f
	r.rules++
	v.touched = append(v.touched, factRef{factID{dst, relID, key}, args})
}

// derives reports whether a remote view rule derives some fact of relID at
// dst.
func (v *RemoteView) derives(dst, relID string) bool {
	r := v.rels[dst][relID]
	return r != nil && r.rules > 0
}

// retractMaint clears the rule flag of the fact of relID at dst whose tuple
// key is key (the DRed over-delete), returning the key as a string; false if
// no remote view rule derived the fact.
func (v *RemoteView) retractMaint(dst, relID string, key []byte) (string, bool) {
	r := v.rels[dst][relID]
	if r == nil {
		return "", false
	}
	f := r.facts[string(key)]
	if !f.rule {
		return "", false
	}
	k := string(key)
	f.rule = false
	r.facts[k] = f
	r.rules--
	v.touched = append(v.touched, factRef{factID: factID{dst, relID, k}})
	return k, true
}

// retracted reports whether the fact ref names has lost its rule flag this
// stage without getting it back.
func (v *RemoteView) retracted(ref factID) bool {
	r := v.rels[ref.dst][ref.relID]
	if r == nil {
		return false
	}
	f, ok := r.facts[ref.key]
	return ok && !f.rule
}

// clearMaint retracts every maintained fact, ahead of a full stage that
// derives them all again. O(view): full stages only.
func (v *RemoteView) clearMaint() {
	for dst, rels := range v.rels {
		for relID, r := range rels {
			r.rules = 0
			for key, f := range r.facts {
				if f.rule {
					f.rule = false
					r.facts[key] = f
					v.touched = append(v.touched, factRef{factID: factID{dst, relID, key}})
				}
			}
		}
	}
}

// Diff ends a stage: it reconciles the stage's event-rule emissions (the
// full Derive-op set and the one-shot deletes, as in Result.Remote) against
// the previous stage's, folds in the facts remote view rules added or
// retracted since the last Diff, and returns what to ship. A fact ships as a
// maintained insert when it becomes held at its destination and as a
// maintained delete when neither source derives it any more; one-shot
// deletes pass through unchanged. The summary trees advance by exactly the
// maintained ops. The cost is O(|emissions of this and the previous stage| +
// |maintained changes|), never O(view).
func (v *RemoteView) Diff(remote map[string][]FactOp) map[string][]RemoteOp {
	if v.gen++; v.gen == 0 {
		v.gen = 1
	}
	prev := v.event
	v.touched = append(v.touched, v.shot...)
	v.event, v.shot = nil, nil
	out := map[string][]RemoteOp{}
	ids := map[string][]factID{} // dst -> the fact of each op in out[dst]
	var shot map[factID]bool     // this Diff's one-shot deletes
	for dst, ops := range remote {
		var rel, peer, relID string // the last op's, reused while it repeats
		for _, op := range ops {
			if op.Fact.Rel != rel || op.Fact.Peer != peer {
				rel, peer, relID = op.Fact.Rel, op.Fact.Peer, op.Fact.Rel+"@"+op.Fact.Peer
			}
			ref := factRef{factID{dst, relID, op.Fact.Args.Key()}, op.Fact.Args}
			if op.Op == ast.Delete {
				out[dst] = append(out[dst], RemoteOp{Op: ast.Delete, Fact: op.Fact})
				ids[dst] = append(ids[dst], ref.factID)
				if shot == nil {
					shot = map[factID]bool{}
				}
				shot[ref.factID] = true
				v.shot = append(v.shot, ref)
				v.touched = append(v.touched, ref)
				continue
			}
			r := v.rel(dst, ref.relID)
			f, ok := r.facts[ref.key]
			if !ok && v.intern != nil {
				_, ref.key = v.intern.TupleKeyed(op.Fact.Args, ref.key)
			}
			if f.gen == 0 {
				v.touched = append(v.touched, ref) // entering the emission set
			}
			f.gen = v.gen
			r.facts[ref.key] = f
			v.event = append(v.event, ref)
		}
	}
	for _, ref := range prev {
		r := v.rels[ref.dst][ref.relID]
		if r == nil {
			continue
		}
		if f, ok := r.facts[ref.key]; ok && f.gen != v.gen { // left the emission set
			f.gen = 0
			r.facts[ref.key] = f
			v.touched = append(v.touched, ref)
		}
	}
	// Reconcile every fact whose sources may have changed. Visiting a fact
	// twice is harmless: the second visit finds it settled.
	for _, ref := range v.touched {
		r := v.rels[ref.dst][ref.relID]
		if r == nil {
			continue
		}
		f, ok := r.facts[ref.key]
		if !ok {
			continue
		}
		if live := (f.rule || f.gen == v.gen) && !shot[ref.factID]; live != f.held {
			f.held = live
			op := ast.Derive
			if live {
				if r.tree == nil {
					r.tree = store.NewMerkleTree()
				}
				r.tree.Add(ref.key)
			} else {
				op = ast.Delete
				r.tree.Remove(ref.key)
				if r.tree.Len() == 0 {
					r.tree = nil
				}
			}
			out[ref.dst] = append(out[ref.dst], RemoteOp{Op: op, Maint: true, Fact: factOf(ref)})
			ids[ref.dst] = append(ids[ref.dst], ref.factID)
			if f.rule || f.held {
				r.facts[ref.key] = f
			}
		}
		if f.rule || f.held {
			continue
		}
		delete(r.facts, ref.key)
		if len(r.facts) == 0 {
			delete(v.rels[ref.dst], ref.relID)
			if len(v.rels[ref.dst]) == 0 {
				delete(v.rels, ref.dst)
			}
		}
	}
	v.touched = nil // a full stage's worth must not stay reachable
	for dst, ops := range out {
		sortRemoteOps(ops, ids[dst])
	}
	return out
}

// sortRemoteOps orders deletes first, then inserts, each by relation and
// tuple key (ids[i] names ops[i]'s fact), and a one-shot delete before the
// maintained delete of the same fact, for deterministic wire contents.
func sortRemoteOps(ops []RemoteOp, ids []factID) {
	sort.Sort(&remoteOpSorter{ops: ops, ids: ids})
}

type remoteOpSorter struct {
	ops []RemoteOp
	ids []factID
}

func (s *remoteOpSorter) Len() int { return len(s.ops) }
func (s *remoteOpSorter) Less(i, j int) bool {
	a, b := &s.ops[i], &s.ops[j]
	if a.Op != b.Op {
		return a.Op == ast.Delete
	}
	if x, y := &s.ids[i], &s.ids[j]; x.relID != y.relID || x.key != y.key {
		return x.relID < y.relID || x.relID == y.relID && x.key < y.key
	}
	return !a.Maint && b.Maint
}
func (s *remoteOpSorter) Swap(i, j int) {
	s.ops[i], s.ops[j] = s.ops[j], s.ops[i]
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
}
