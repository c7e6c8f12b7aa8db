package store

import (
	"cmp"
	"slices"
	"strings"
)

// Merkle summary trees over the canonical tuple-key order.
//
// A MerkleTree summarizes a keyed set so that two peers holding *almost*
// the same set can find where they differ in O(δ log n) bytes of dialogue
// instead of shipping a whole view. The canonical order is the order of
// KeyHash(key) — the same FNV-64a fold the flat Digest and the relation
// fingerprint use — so both ends of a comparison place every member at the
// same position in the 64-bit hash line without coordinating.
//
// Structure: a fanout-16 trie over the leading bits of each member's key
// hash. Leaf pages hold up to merkleLeafMax (~128) keys, sorted in canonical
// (hash, key) order — a slice costs a third of a map per member; a page that
// overflows splits into sixteen children on the next 4 hash bits, and a
// subtree that drains below merkleLeafMin collapses back into one page
// (hysteresis, so a set oscillating around the threshold does not thrash).
// Every node keeps the XOR fold and count of the members below it — an
// internal node's digest is exactly the fold of its children's digests —
// so:
//
//   - Root() is O(1) and always equals the flat Digest of the same set;
//   - Add/Remove update the fold and count along one root-to-leaf path,
//     O(log n) amortized (splits and collapses touch one page);
//   - RangeDigest(lo, hi) decomposes the range into O(log n) whole
//     subtrees plus at most two partially-covered leaf pages;
//   - RangeKeys(lo, hi, max) reads the members of a range in canonical
//     order, max at a time, in O(log n + members read).
//
// Because node digests are order-insensitive folds of *members* (not
// hashes of child digests), two trees summarizing the same set compare
// equal on any hash range even if their page boundaries differ — the
// bisection protocol never has to synchronize tree shapes, only ranges.
//
// A MerkleTree is not safe for concurrent use; owners guard it with the
// lock that already guards the summarized set.

const (
	// merkleFanout is the trie fanout: 4 hash bits per level.
	merkleFanout = 16
	merkleBits   = 4
	// merkleLeafMax is the page size: a leaf holding more keys splits.
	merkleLeafMax = 128
	// merkleLeafMin is the collapse threshold: an internal node whose
	// subtree drains to this many keys becomes a single page again. It is
	// well below merkleLeafMax/2 so alternating add/remove around a
	// boundary cannot split and collapse on every mutation.
	merkleLeafMin = 48
	// merkleMaxDepth caps the trie depth at the hash width: members whose
	// hashes collide on all 64 bits share a page forever.
	merkleMaxDepth = 64 / merkleBits
)

// MerkleTree is an incrementally maintained summary tree over a keyed set.
type MerkleTree struct {
	root merkleNode
}

// merkleNode is one trie node: a leaf page (children nil) or an internal
// node (children set, keys nil). hash/count summarize the whole subtree in
// both cases.
type merkleNode struct {
	hash     uint64
	count    int
	children *[merkleFanout]*merkleNode
	keys     []rangeKey // a leaf's members, in canonical (hash, key) order
}

// rangeKey is one member: its key and KeyHash(key).
type rangeKey struct {
	hash uint64
	key  string
}

func compareRangeKeys(a, b rangeKey) int {
	if c := cmp.Compare(a.hash, b.hash); c != 0 {
		return c
	}
	return strings.Compare(a.key, b.key)
}

// find returns where the member (h, key) is, or would go, in a leaf page.
func (n *merkleNode) find(h uint64, key string) (int, bool) {
	return slices.BinarySearchFunc(n.keys, rangeKey{h, key}, compareRangeKeys)
}

// NewMerkleTree returns an empty tree.
func NewMerkleTree() *MerkleTree { return &MerkleTree{} }

// Root returns the digest of the whole set: O(1), and identical to folding
// every member into a flat Digest.
func (t *MerkleTree) Root() Digest {
	return Digest{Hash: t.root.hash, Count: uint64(t.root.count)}
}

// Len returns the member count.
func (t *MerkleTree) Len() int { return t.root.count }

// childIndex returns which child of a depth-d node the hash h falls under.
func childIndex(h uint64, depth int) int {
	return int(h >> (64 - merkleBits*(depth+1)) & (merkleFanout - 1))
}

// Has reports whether key is a member.
func (t *MerkleTree) Has(key string) bool {
	h := KeyHash(key)
	n, depth := &t.root, 0
	for n.children != nil {
		if n = n.children[childIndex(h, depth)]; n == nil {
			return false
		}
		depth++
	}
	_, ok := n.find(h, key)
	return ok
}

// Add inserts key, reporting whether it was new.
func (t *MerkleTree) Add(key string) bool {
	h := KeyHash(key)
	n, depth := &t.root, 0
	var path [merkleMaxDepth + 1]*merkleNode
	steps := 0
	for n.children != nil {
		path[steps] = n
		steps++
		n = n.child(childIndex(h, depth))
		depth++
	}
	i, dup := n.find(h, key)
	if dup {
		return false
	}
	if len(n.keys) == cap(n.keys) {
		// Grow a full page by a quarter, not the doubling append would do:
		// pages are many and long-lived, so their spare room is memory held
		// per member.
		grown := make([]rangeKey, len(n.keys), len(n.keys)+len(n.keys)/4+1)
		copy(grown, n.keys)
		n.keys = grown
	}
	n.keys = slices.Insert(n.keys, i, rangeKey{h, key})
	n.hash ^= h
	n.count++
	for i := 0; i < steps; i++ {
		path[i].hash ^= h
		path[i].count++
	}
	if len(n.keys) > merkleLeafMax && depth < merkleMaxDepth {
		n.split(depth)
	}
	return true
}

// Remove deletes key, reporting whether it was present. Removing an absent
// key is a no-op (and panics under DebugAsserts): silently folding an
// unknown hash out would corrupt every ancestor digest.
func (t *MerkleTree) Remove(key string) bool {
	h := KeyHash(key)
	n, depth := &t.root, 0
	var path [merkleMaxDepth + 1]*merkleNode
	steps := 0
	for n.children != nil {
		path[steps] = n
		steps++
		n = n.child(childIndex(h, depth))
		depth++
	}
	i, ok := n.find(h, key)
	if !ok {
		if DebugAsserts {
			panic("store: MerkleTree.Remove of a key never added: " + key)
		}
		return false
	}
	n.keys = slices.Delete(n.keys, i, i+1)
	n.hash ^= h
	n.count--
	for i := 0; i < steps; i++ {
		path[i].hash ^= h
		path[i].count--
	}
	// Collapse the shallowest drained ancestor (it subsumes any deeper
	// ones) back into a single page.
	for i := 0; i < steps; i++ {
		if path[i].count <= merkleLeafMin {
			path[i].collapse()
			break
		}
	}
	return true
}

// child returns (creating if needed) the i-th child of an internal node.
func (n *merkleNode) child(i int) *merkleNode {
	c := n.children[i]
	if c == nil {
		c = &merkleNode{}
		n.children[i] = c
	}
	return c
}

// split turns an overflowing leaf page at the given depth into an internal
// node, redistributing its keys on the next merkleBits hash bits. The page is
// walked in order, so every child's page is sorted too; each is allocated at
// the size it starts with.
func (n *merkleNode) split(depth int) {
	keys := n.keys
	n.keys = nil
	n.children = new([merkleFanout]*merkleNode)
	var sizes [merkleFanout]int
	for _, rk := range keys {
		sizes[childIndex(rk.hash, depth)]++
	}
	for i, size := range sizes {
		if size > 0 {
			n.children[i] = &merkleNode{keys: make([]rangeKey, 0, size)}
		}
	}
	for _, rk := range keys {
		c := n.child(childIndex(rk.hash, depth))
		c.keys = append(c.keys, rk)
		c.hash ^= rk.hash
		c.count++
	}
}

// collapse turns a drained subtree back into a single leaf page.
func (n *merkleNode) collapse() {
	if n.children == nil {
		return
	}
	n.keys = n.gather(make([]rangeKey, 0, n.count))
	n.children = nil
}

// gather appends every member below n to into, in canonical order: children
// cover ascending hash prefixes.
func (n *merkleNode) gather(into []rangeKey) []rangeKey {
	if n.children == nil {
		return append(into, n.keys...)
	}
	for _, c := range n.children {
		if c != nil {
			into = c.gather(into)
		}
	}
	return into
}

// RangeDigest returns the digest of the members whose key hash falls in the
// inclusive range [lo, hi]. The full range [0, ^uint64(0)] equals Root().
func (t *MerkleTree) RangeDigest(lo, hi uint64) Digest {
	if lo > hi {
		return Digest{}
	}
	var d Digest
	t.root.rangeDigest(0, 0, lo, hi, &d)
	return d
}

// nodeSpan returns the inclusive hash interval a node at (depth, prefix)
// covers; prefix holds the node's leading depth*merkleBits bits, left
// aligned.
func nodeSpan(prefix uint64, depth int) (lo, hi uint64) {
	if depth == 0 {
		return 0, ^uint64(0)
	}
	width := uint(64 - merkleBits*depth)
	return prefix, prefix | (1<<width - 1)
}

func (n *merkleNode) rangeDigest(prefix uint64, depth int, lo, hi uint64, d *Digest) {
	nLo, nHi := nodeSpan(prefix, depth)
	if nHi < lo || nLo > hi || n.count == 0 {
		return
	}
	if lo <= nLo && nHi <= hi {
		d.Hash ^= n.hash
		d.Count += uint64(n.count)
		return
	}
	if n.children == nil {
		for _, rk := range n.keys {
			if lo <= rk.hash && rk.hash <= hi {
				d.Hash ^= rk.hash
				d.Count++
			}
		}
		return
	}
	for i, c := range n.children {
		if c != nil {
			c.rangeDigest(prefix|uint64(i)<<(64-merkleBits*(depth+1)), depth+1, lo, hi, d)
		}
	}
}

// RangeKeys returns, in canonical (hash, key) order, the keys whose hash
// falls in the inclusive range [lo, hi] — at most max of them when max > 0 —
// and the end of the hash sub-range the result exhausts: every member
// hashing into [lo, end] is returned, and end == hi when nothing was cut. A
// cut never separates members sharing one hash (a run of full 64-bit
// collisions may therefore exceed max), so [end+1, hi] is exactly what is
// left to read. The slice is the caller's.
func (t *MerkleTree) RangeKeys(lo, hi uint64, max int) (keys []string, end uint64) {
	w := rangeWalk{lo: lo, hi: hi, max: max, end: hi}
	if lo <= hi {
		t.root.rangeKeys(0, 0, &w)
	}
	return w.keys, w.end
}

// rangeWalk is the state of one in-order RangeKeys traversal.
type rangeWalk struct {
	lo, hi uint64
	max    int
	keys   []string
	last   uint64 // hash of the last key taken
	end    uint64
}

// rangeKeys appends the subtree's members in [w.lo, w.hi] in canonical
// order — children cover ascending hash prefixes and leaf pages are sorted —
// and reports whether the walk was cut at w.max.
func (n *merkleNode) rangeKeys(prefix uint64, depth int, w *rangeWalk) bool {
	nLo, nHi := nodeSpan(prefix, depth)
	if nHi < w.lo || nLo > w.hi || n.count == 0 {
		return false
	}
	if n.children != nil {
		for i, c := range n.children {
			if c != nil && c.rangeKeys(prefix|uint64(i)<<(64-merkleBits*(depth+1)), depth+1, w) {
				return true
			}
		}
		return false
	}
	for _, rk := range n.keys {
		if rk.hash < w.lo || rk.hash > w.hi {
			continue
		}
		if w.max > 0 && len(w.keys) >= w.max && rk.hash != w.last {
			w.end = w.last
			return true
		}
		w.keys = append(w.keys, rk.key)
		w.last = rk.hash
	}
	return false
}
