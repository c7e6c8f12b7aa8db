package engine

import (
	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// RemoteView is the maintained per-destination image of every fact a peer's
// program currently derives for remote peers (Derive-op heads only). It used
// to be a private field of the Engine; it is now owned by the peer's
// outbound session layer — it is per-(sender, receiver) stream state, the
// thing a resync repair re-ships — and passed into RunStageFull /
// RunStageIncremental, which diff each stage's emission set against it to
// produce Result.RemoteOut.
//
// Alongside the facts, the view keeps one Merkle summary tree
// (store.MerkleTree) per destination and relation, maintained incrementally
// from the stage's own maintained deltas — never rebuilt by walking the
// view. The tree roots are the O(1) digests an anti-entropy advert carries,
// and the trees answer the repair dialogue's range-digest and range-fact
// queries in O(log n).
//
// A RemoteView is not safe for concurrent use; the peer accesses it under
// its own lock (stages and resync handling are both serialized there).
type RemoteView struct {
	views map[string]map[string]ast.Fact          // dst -> fact key -> fact
	trees map[string]map[string]*store.MerkleTree // dst -> relID at dst -> summary tree
	// intern, when set, canonicalizes the tuples the view retains: a fact
	// maintained at many destinations (a post pushed to every follower)
	// keeps one tuple backing for all its ledger entries instead of one
	// copy per destination. Aliasing-only, like store.Relation's interner.
	intern *value.Interner
}

// NewRemoteView returns an empty maintained view.
func NewRemoteView() *RemoteView {
	return &RemoteView{
		views: map[string]map[string]ast.Fact{},
		trees: map[string]map[string]*store.MerkleTree{},
	}
}

// SetInterner routes the view's retained tuples through the given intern
// table (see the intern field). Call before the first Diff.
func (v *RemoteView) SetInterner(in *value.Interner) { v.intern = in }

// Digests returns the per-relation digests of the facts maintained at dst,
// empty when nothing is maintained there. O(#relations): each digest is a
// tree root read.
func (v *RemoteView) Digests(dst string) map[string]store.Digest {
	src := v.trees[dst]
	if len(src) == 0 {
		return nil
	}
	out := make(map[string]store.Digest, len(src))
	for relID, tr := range src {
		out[relID] = tr.Root()
	}
	return out
}

// Tree returns the live summary tree of relID's maintained facts at dst, or
// nil when nothing is maintained. The tree belongs to the view — callers
// read it under the same lock that serializes Diff.
func (v *RemoteView) Tree(dst, relID string) *store.MerkleTree {
	return v.trees[dst][relID]
}

// RangeFacts reads the maintained facts of relID at dst whose canonical key
// hash falls in the inclusive range [lo, hi], in canonical (hash, key)
// order, at most max at a time (max <= 0: all of them). It returns the end
// of the hash sub-range the facts exhaust — [lo, end] holds exactly these
// facts, and end == hi when the read was not cut (store.MerkleTree.RangeKeys)
// — so one read is the content of one self-contained ranged repair and
// [end+1, hi] is what the next one covers. The slice is the caller's.
func (v *RemoteView) RangeFacts(dst, relID string, lo, hi uint64, max int) (facts []ast.Fact, end uint64) {
	tr := v.trees[dst][relID]
	if tr == nil {
		return nil, hi
	}
	keys, end := tr.RangeKeys(lo, hi, max)
	facts = make([]ast.Fact, 0, len(keys))
	for _, key := range keys {
		if f, ok := v.views[dst][relID+"|"+key]; ok {
			facts = append(facts, f)
		}
	}
	return facts, end
}

// Diff diffs one stage's full Derive-op emission set against the maintained
// view: newly derived facts ship as maintained inserts, facts no longer
// derived as maintained deletes, and explicit deletion-rule emissions pass
// through unchanged. The view (and its summary trees) are updated in place;
// the trees advance by exactly the maintained deltas this stage emits, so
// their cost is O(δ log n), not O(view).
func (v *RemoteView) Diff(remote map[string][]FactOp) map[string][]RemoteOp {
	out := map[string][]RemoteOp{}
	cur := map[string]map[string]ast.Fact{}
	oneShotDel := map[string]map[string]bool{}
	for dst, ops := range remote {
		for _, op := range ops {
			if op.Op == ast.Delete {
				out[dst] = append(out[dst], RemoteOp{Op: ast.Delete, Fact: op.Fact})
				if oneShotDel[dst] == nil {
					oneShotDel[dst] = map[string]bool{}
				}
				oneShotDel[dst][op.Fact.Key()] = true
				continue
			}
			m := cur[dst]
			if m == nil {
				m = map[string]ast.Fact{}
				cur[dst] = m
			}
			if v.intern != nil {
				op.Fact.Args, _ = v.intern.Tuple(op.Fact.Args)
			}
			key := op.Fact.Key()
			m[key] = op.Fact
			if _, had := v.views[dst][key]; !had {
				out[dst] = append(out[dst], RemoteOp{Op: ast.Derive, Maint: true, Fact: op.Fact})
			}
		}
	}
	// A one-shot deletion-rule emission undoes the fact at the receiver, so
	// it must leave the maintained view too: if the fact is still derived,
	// the next stage re-ships it as a maintained insert (the paper's
	// continuous-update semantics, one stage later), instead of the view
	// silently claiming the receiver still has it.
	for dst, keys := range oneShotDel {
		for key := range keys {
			delete(cur[dst], key)
		}
	}
	for dst, facts := range v.views {
		for key, f := range facts {
			if _, still := cur[dst][key]; !still {
				out[dst] = append(out[dst], RemoteOp{Op: ast.Delete, Maint: true, Fact: f})
			}
		}
	}
	// Advance the summary trees by the maintained deltas just computed —
	// they are exactly the view's membership changes (an insert cancelled by
	// a same-stage one-shot delete never joins the view, so it is skipped).
	for dst, ops := range out {
		for _, op := range ops {
			if !op.Maint {
				continue
			}
			relID := op.Fact.Rel + "@" + op.Fact.Peer
			key := op.Fact.Args.Key()
			if op.Op == ast.Delete {
				if tr := v.trees[dst][relID]; tr != nil {
					tr.Remove(key)
					if tr.Len() == 0 {
						delete(v.trees[dst], relID)
					}
				}
				continue
			}
			if _, installed := cur[dst][op.Fact.Key()]; !installed {
				continue
			}
			tm := v.trees[dst]
			if tm == nil {
				tm = map[string]*store.MerkleTree{}
				v.trees[dst] = tm
			}
			tr := tm[relID]
			if tr == nil {
				tr = store.NewMerkleTree()
				tm[relID] = tr
			}
			tr.Add(key)
		}
		if len(v.trees[dst]) == 0 {
			delete(v.trees, dst)
		}
	}
	for dst := range v.views {
		if len(cur[dst]) == 0 {
			delete(v.views, dst)
		}
	}
	for dst, m := range cur {
		if len(m) == 0 {
			continue // don't re-install emptied destinations
		}
		v.views[dst] = m
	}
	for _, ops := range out {
		sortRemoteOps(ops)
	}
	return out
}
