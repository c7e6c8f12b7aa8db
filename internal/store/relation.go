// Package store implements the tuple storage layer of a WebdamLog peer:
// named relations holding sets of tuples, lazily-built hash indexes over
// column subsets, and optional durability through a checkpointed
// write-ahead log (wal.go).
//
// A Store holds all relations known at one peer, both the peer's own
// relations and locally-materialized images of remote relations' schemas.
// Extensional relations persist across computation stages; intensional
// relations hold derived views, maintained by the engine between stages and
// cleared only when it rebuilds them.
package store

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/errdefs"
	"repro/internal/value"
)

// Schema describes one relation: its name, owning peer, kind and columns.
type Schema struct {
	Name string
	Peer string
	Kind ast.RelKind
	Cols []string
}

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Cols) }

// GenericCols returns placeholder column names c0..c(n-1) for a relation
// discovered at run time — a fact or a rule head naming an undeclared one.
func GenericCols(n int) []string {
	cols := make([]string, n)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	return cols
}

// ID returns the canonical "name@peer" identifier.
func (s Schema) ID() string { return s.Name + "@" + s.Peer }

// SplitID splits a canonical "name@peer" identifier back into its parts —
// the single definition of the convention Schema.ID encodes.
func SplitID(id string) (name, peer string) {
	for i := 0; i < len(id); i++ {
		if id[i] == '@' {
			return id[:i], id[i+1:]
		}
	}
	return id, ""
}

// GetID returns the relation with the canonical "name@peer" id, or nil.
func (s *Store) GetID(id string) *Relation {
	name, peer := SplitID(id)
	return s.Get(name, peer)
}

// String renders the schema as a declaration.
func (s Schema) String() string {
	return ast.RelationDecl{Name: s.Name, Peer: s.Peer, Kind: s.Kind, Cols: s.Cols}.String()
}

// ColMask is a bitmask over column positions (bit i set = column i bound).
// Relations support at most 64 columns, far beyond anything the paper uses.
type ColMask uint64

// MaskOf builds a mask with the given column positions set.
func MaskOf(cols ...int) ColMask {
	var m ColMask
	for _, c := range cols {
		m |= 1 << uint(c)
	}
	return m
}

// Has reports whether column i is set in the mask.
func (m ColMask) Has(i int) bool { return m&(1<<uint(i)) != 0 }

// maxIndexBucket is the bucket size past which an index is checked for
// degeneracy. An index one of whose buckets holds both more than this many
// tuples and more than a quarter of the whole relation (degenerateBucket)
// is barely selective — think a constant or two-valued column: lookups
// through it degenerate to scans, and every Delete pays a linear probe of
// the giant bucket. Such indexes are dropped and remembered as degraded so
// they are not rebuilt; Probe falls back to scanning for those masks. A
// merely *hot* bucket in an otherwise selective index (skew) is kept.
const maxIndexBucket = 1024

// degenerateBucket reports whether a bucket of size n in a relation of size
// total marks its index as not worth keeping.
func degenerateBucket(n, total int) bool {
	return n > maxIndexBucket && n*4 > total
}

// Relation is a set of tuples of fixed arity with lazily-maintained hash
// indexes keyed by subsets of columns. It is safe for concurrent use; the
// engine holds it on a single goroutine but UIs may read concurrently.
type Relation struct {
	schema Schema
	id     string // schema.ID(), computed once

	mu      sync.RWMutex
	tuples  map[string]value.Tuple // key = Tuple.Key()
	indexes map[ColMask]map[string][]value.Tuple
	fp      uint64 // XOR of member-tuple hashes: content fingerprint

	// degraded remembers masks whose index was dropped as degenerate
	// (degenerateBucket), mapped to the relation size at drop time, so it
	// is not rebuilt on the next Probe. A drop during a transiently
	// skewed prefix (a bulk load arriving grouped by the indexed column)
	// must not be forever: once the relation's size changes by 2x either
	// way, the verdict is re-evaluated.
	degraded map[ColMask]int

	// intern, when non-nil, canonicalizes inserted tuples and their keys
	// through a shared table (value.Interner): the relation then stores the
	// process-wide canonical Tuple and key instead of a private copy (whose
	// string payloads are substrings of its key, Tuple.InKey), so a
	// fact replicated at many peers costs one tuple plus a map entry per
	// replica. Purely an aliasing change — contents, digests and iteration
	// are indistinguishable from an uninterned relation.
	intern *value.Interner
}

// NewRelation creates an empty relation with the given schema.
func NewRelation(schema Schema) *Relation {
	if len(schema.Cols) > 64 {
		panic(fmt.Sprintf("store: relation %s has %d columns; max 64", schema.ID(), len(schema.Cols)))
	}
	return &Relation{
		schema:  schema,
		id:      schema.ID(),
		tuples:  make(map[string]value.Tuple),
		indexes: make(map[ColMask]map[string][]value.Tuple),
	}
}

// SetInterner routes this relation's future inserts through the given
// shared intern table (nil turns interning off). Already-stored tuples are
// left as they are; mixing interned and uninterned tuples in one relation is
// harmless, the interned ones just share storage.
func (r *Relation) SetInterner(in *value.Interner) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.intern = in
}

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// ID returns the relation's canonical "name@peer" identifier (Schema.ID).
func (r *Relation) ID() string { return r.id }

// Name returns the relation name (without the peer part).
func (r *Relation) Name() string { return r.schema.Name }

// Kind returns Extensional or Intensional.
func (r *Relation) Kind() ast.RelKind { return r.schema.Kind }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tuples)
}

// Fingerprint returns the content fingerprint: equal contents yield equal
// fingerprints regardless of mutation history, so a cleared-and-rederived
// view that ends up identical is recognizably unchanged. (Distinct contents
// colliding requires an XOR collision over 64-bit FNV hashes —
// vanishingly unlikely; users are change *detectors*, not integrity checks.)
func (r *Relation) Fingerprint() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.fp
}

// Insert adds t to the relation. It returns true if the tuple was new.
// The tuple must match the relation's arity.
func (r *Relation) Insert(t value.Tuple) bool {
	return r.InsertKeyed(t, t.Key())
}

// InsertKeyed is Insert for a caller that already holds key == t.Key(). The
// relation keeps key itself — the stored tuple's string payloads and its
// index bucket keys are substrings of it (indexKey) — so a caller that files
// the same key elsewhere (a peer's session ledger) stores its bytes once.
func (r *Relation) InsertKeyed(t value.Tuple, key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, _, added := r.insertLocked(t, key)
	return added
}

// insertLocked adds t under its key unless it is present, returning the
// tuple and key as stored and whether it was new.
func (r *Relation) insertLocked(t value.Tuple, key string) (value.Tuple, string, bool) {
	if len(t) != r.schema.Arity() {
		panic(fmt.Sprintf("store: arity mismatch inserting %d-tuple into %s(%d)",
			len(t), r.id, r.schema.Arity()))
	}
	if _, dup := r.tuples[key]; dup {
		return nil, "", false
	}
	if r.intern != nil {
		t, key = r.intern.TupleKeyed(t, key)
	} else {
		t = t.InKey(key)
	}
	r.tuples[key] = t
	for mask, idx := range r.indexes {
		ik := indexKey(t, key, mask)
		bucket := append(idx[ik], t)
		if degenerateBucket(len(bucket), len(r.tuples)) {
			r.dropIndexLocked(mask)
			continue
		}
		idx[ik] = bucket
	}
	r.fp ^= KeyHash(key)
	return t, key, true
}

// dropIndexLocked removes a barely selective index and remembers not to
// rebuild it until the relation changes size substantially.
func (r *Relation) dropIndexLocked(mask ColMask) {
	delete(r.indexes, mask)
	if r.degraded == nil {
		r.degraded = make(map[ColMask]int)
	}
	r.degraded[mask] = len(r.tuples)
}

// InsertMany adds all tuples under a single lock acquisition — the store
// half of an atomic batch. It returns the tuples that were actually new (in
// input order), which is exactly what the caller must log to a WAL. Every
// tuple must match the relation's arity.
func (r *Relation) InsertMany(ts []value.Tuple) []value.Tuple {
	ts = slices.Clone(ts)
	return ts[:r.ApplyMany(false, ts, nil)]
}

// DeleteMany removes all tuples under a single lock acquisition, returning
// the tuples that actually existed (in input order).
func (r *Relation) DeleteMany(ts []value.Tuple) []value.Tuple {
	ts = slices.Clone(ts)
	return ts[:r.ApplyMany(true, ts, nil)]
}

// ApplyMany inserts (or, when del is set, deletes) ts under one lock and
// moves the n tuples that changed the relation, an inserted one as stored, to
// the front of ts in input order, returning n. keys, when non-nil, holds each
// tuple's key, so it is not encoded again, and is compacted alongside ts.
func (r *Relation) ApplyMany(del bool, ts []value.Tuple, keys []string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for i, t := range ts {
		var key string
		if keys != nil {
			key = keys[i]
		} else {
			key = t.Key()
		}
		if del {
			if !r.deleteLocked(t, key) {
				continue
			}
		} else if stored, storedKey, added := r.insertLocked(t, key); added {
			t, key = stored, storedKey
		} else {
			continue
		}
		ts[n] = t
		if keys != nil {
			keys[n] = key
		}
		n++
	}
	return n
}

// Delete removes t from the relation. It returns true if the tuple existed.
func (r *Relation) Delete(t value.Tuple) bool {
	return r.DeleteKeyed(t, t.Key())
}

// DeleteKeyed is Delete for a caller that already holds key == t.Key().
func (r *Relation) DeleteKeyed(t value.Tuple, key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deleteLocked(t, key)
}

// deleteLocked removes t, whose key is key, reporting whether it was there.
// Every bucket holds the very slice r.tuples stores, so the stored tuple is
// found by identity, not by comparing values; only a zero-arity tuple, which
// has no element to point at, is compared.
func (r *Relation) deleteLocked(t value.Tuple, key string) bool {
	st, ok := r.tuples[key]
	if !ok {
		return false
	}
	delete(r.tuples, key)
	for mask, idx := range r.indexes {
		ik := indexKey(t, key, mask)
		bucket := idx[ik]
		for i := range bucket {
			if sameTuple(bucket[i], st) {
				bucket[i] = bucket[len(bucket)-1]
				bucket = bucket[:len(bucket)-1]
				break
			}
		}
		if len(bucket) == 0 {
			delete(idx, ik)
		} else {
			idx[ik] = bucket
		}
	}
	r.fp ^= KeyHash(key)
	return true
}

// sameTuple reports whether b is the stored tuple st itself.
func sameTuple(b, st value.Tuple) bool {
	if len(st) == 0 {
		return b.Equal(st)
	}
	return len(b) > 0 && &b[0] == &st[0]
}

// Contains reports whether t is in the relation.
func (r *Relation) Contains(t value.Tuple) bool {
	key := t.Key()
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.tuples[key]
	return ok
}

// Clear removes all tuples (used for intensional relations when a stage
// rebuilds the views) and hands back the dropped key → tuple map — swapped
// out, not copied — so the caller can diff the rebuilt relation against it
// (DiffSince). The map is the caller's from now on.
func (r *Relation) Clear() map[string]value.Tuple {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.tuples) == 0 {
		return nil
	}
	old := r.tuples
	r.tuples = make(map[string]value.Tuple)
	for mask := range r.indexes {
		r.indexes[mask] = make(map[string][]value.Tuple)
	}
	r.fp = 0
	return old
}

// DiffSince returns the tuples the relation gained and lost relative to
// old, a map Clear handed back: O(|old| + |relation|) lookups on the stored
// keys, in no particular order.
func (r *Relation) DiffSince(old map[string]value.Tuple) (ins, del []value.Tuple) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for key, t := range r.tuples {
		if _, had := old[key]; !had {
			ins = append(ins, t)
		}
	}
	for key, t := range old {
		if _, has := r.tuples[key]; !has {
			del = append(del, t)
		}
	}
	return ins, del
}

// Iterate calls fn for every tuple until fn returns false. The iteration
// order is unspecified. fn sees a snapshot of the relation taken when
// Iterate is called, so fn may insert into or delete from the relation
// (recursive rules do exactly that); such mutations are not reflected in
// the ongoing iteration.
func (r *Relation) Iterate(fn func(value.Tuple) bool) {
	r.mu.RLock()
	snap := make([]value.Tuple, 0, len(r.tuples))
	for _, t := range r.tuples {
		snap = append(snap, t)
	}
	r.mu.RUnlock()
	for _, t := range snap {
		if !fn(t) {
			return
		}
	}
}

// Tuples returns all tuples, sorted lexicographically (a stable snapshot).
func (r *Relation) Tuples() []value.Tuple {
	r.mu.RLock()
	out := make([]value.Tuple, 0, len(r.tuples))
	for _, t := range r.tuples {
		out = append(out, t)
	}
	r.mu.RUnlock()
	value.SortTuples(out)
	return out
}

// EnsureIndex builds (if absent) a hash index over the columns in mask.
func (r *Relation) EnsureIndex(mask ColMask) {
	if mask == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureIndexLocked(mask)
}

// ensureIndexLocked builds (or returns) the index over mask, or nil when the
// mask is degraded — too unselective to be worth maintaining.
func (r *Relation) ensureIndexLocked(mask ColMask) map[string][]value.Tuple {
	if idx, ok := r.indexes[mask]; ok {
		return idx
	}
	if at, deg := r.degraded[mask]; deg {
		if len(r.tuples) <= at*2 && len(r.tuples)*2 >= at {
			return nil // size unchanged since the degeneracy verdict
		}
		delete(r.degraded, mask) // 2x growth or shrinkage: re-evaluate below
	}
	idx := make(map[string][]value.Tuple, len(r.tuples))
	for key, t := range r.tuples {
		ik := indexKey(t, key, mask)
		bucket := append(idx[ik], t)
		if degenerateBucket(len(bucket), len(r.tuples)) {
			r.dropIndexLocked(mask) // records the degradation
			return nil
		}
		idx[ik] = bucket
	}
	r.indexes[mask] = idx
	return idx
}

// FanEstimate estimates how many tuples an equality lookup over the
// columns in mask will match — the per-probe cost estimate behind the
// engine's join planner. With a materialized index over exactly that mask
// the estimate is the true mean bucket size (tuples / distinct keys). A
// mask whose index was dropped as degenerate estimates as a full scan:
// probing it really does scan. Otherwise — no statistics yet — each bound
// column is assumed to keep one tuple in ten (System R's classic equality
// selectivity), floored at one match.
func (r *Relation) FanEstimate(mask ColMask) float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := float64(len(r.tuples))
	if mask == 0 || len(r.tuples) == 0 {
		return n
	}
	if idx, ok := r.indexes[mask]; ok && len(idx) > 0 {
		return n / float64(len(idx))
	}
	if _, deg := r.degraded[mask]; deg {
		return n
	}
	est := n
	for c := 0; c < len(r.schema.Cols); c++ {
		if mask.Has(c) {
			est *= 0.1
		}
	}
	if est < 1 {
		est = 1
	}
	return est
}

// IndexCount returns the number of materialized indexes (for introspection).
func (r *Relation) IndexCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.indexes)
}

// ContainsKey reports whether the relation holds a tuple with the given
// canonical key — value.Tuple.Key's AppendKey encoding over every column.
// The engine's compiled execution layer tests memberships with keys it has
// already encoded, skipping the tuple materialization Contains would need.
func (r *Relation) ContainsKey(key []byte) bool {
	r.mu.RLock()
	_, ok := r.tuples[string(key)]
	r.mu.RUnlock()
	return ok
}

// Probe calls fn for every tuple whose columns in mask encode (AppendKey,
// ascending column order — the index-bucket key convention, indexKey) to
// key; rule execution builds keys directly into a scratch buffer, and the
// lookup converts it without allocating. An index over mask
// is built on first use. A zero mask iterates the whole relation; a
// degraded mask falls back to a scan. fn sees a snapshot taken at call time
// and may mutate the relation (inserts during recursive rule evaluation).
// Iteration stops when fn returns false.
func (r *Relation) Probe(mask ColMask, key []byte, fn func(value.Tuple) bool) {
	if mask == 0 {
		r.Iterate(fn)
		return
	}
	r.mu.Lock()
	idx := r.ensureIndexLocked(mask)
	if idx != nil {
		bucket := idx[string(key)]
		// The bucket's backing array is mutated in place only by Delete's
		// swap-remove; appends during recursive insertion reallocate
		// rather than alias. The engine's insert paths never delete
		// mid-join, and its deletion pass (over-delete) may delete head
		// tuples while a Probe is in flight but records every deletion in
		// its ghost set and re-sweeps ghosts after the Probe, so a tuple
		// skipped by the in-place swap is still visited. Any new caller
		// that deletes during iteration must provide an equivalent
		// re-sweep.
		r.mu.Unlock()
		for _, t := range bucket {
			if !fn(t) {
				return
			}
		}
		return
	}
	r.mu.Unlock()
	r.scanKey(mask, key, fn)
}

// scanKey is Probe's degraded-mask path: snapshot every tuple whose masked
// columns encode to key (AppendKey is injective, so byte equality is value
// equality), then iterate outside the lock.
func (r *Relation) scanKey(mask ColMask, key []byte, fn func(value.Tuple) bool) {
	r.mu.RLock()
	var snap []value.Tuple
	var buf []byte
	for _, t := range r.tuples {
		buf = buf[:0]
		for c := 0; c < len(t); c++ {
			if mask.Has(c) {
				buf = t[c].AppendKey(buf)
			}
		}
		if bytes.Equal(buf, key) {
			snap = append(snap, t)
		}
	}
	r.mu.RUnlock()
	for _, t := range snap {
		if !fn(t) {
			return
		}
	}
}

// ProbeBatch is Probe amortized across a frontier: one lock acquisition and
// one index-ensure resolve the buckets for every key, then fn(i, t) runs for
// each tuple matching keys[i], in key order. scratch holds the resolved
// buckets between the locked resolve and the unlocked iteration; it is grown
// as needed and returned so callers reuse it across batches. mask must be
// non-zero; a degraded mask degenerates to one scan per key. Returning false
// from fn stops the whole batch.
func (r *Relation) ProbeBatch(mask ColMask, keys [][]byte, scratch [][]value.Tuple, fn func(i int, t value.Tuple) bool) [][]value.Tuple {
	if cap(scratch) < len(keys) {
		scratch = make([][]value.Tuple, len(keys))
	}
	scratch = scratch[:len(keys)]
	r.mu.Lock()
	idx := r.ensureIndexLocked(mask)
	if idx == nil {
		r.mu.Unlock()
		stopped := false
		for i, k := range keys {
			r.scanKey(mask, k, func(t value.Tuple) bool {
				if !fn(i, t) {
					stopped = true
					return false
				}
				return true
			})
			if stopped {
				break
			}
		}
		return scratch
	}
	for i, k := range keys {
		scratch[i] = idx[string(k)]
	}
	r.mu.Unlock()
	for i, bucket := range scratch {
		for _, t := range bucket {
			if !fn(i, t) {
				return scratch
			}
		}
	}
	return scratch
}

// indexKey returns t's index-bucket key over mask: the canonical keys of its
// masked columns in ascending column order. key is t.Key(), the
// concatenation of every column's canonical key, so when the masked columns
// are contiguous — a single-column index always is — the bucket key is a
// substring of key and costs no allocation. A bucket key so keeps the key
// of the tuple that last wrote it alive, even once that tuple is deleted,
// for as long as the bucket lives: at most one key per live bucket. Other
// masks are encoded into one exact-size allocation.
func indexKey(t value.Tuple, key string, mask ColMask) string {
	lo := bits.TrailingZeros64(uint64(mask))
	if run := uint64(mask) >> uint(lo); run&(run+1) == 0 {
		lo, hi := min(lo, len(t)), min(lo+bits.Len64(run), len(t))
		start := 0
		for _, v := range t[:lo] {
			start += v.KeyLen()
		}
		end := start
		for _, v := range t[lo:hi] {
			end += v.KeyLen()
		}
		return key[start:end]
	}
	n := 0
	for c, v := range t {
		if mask.Has(c) {
			n += v.KeyLen()
		}
	}
	var sb strings.Builder
	sb.Grow(n)
	for c, v := range t {
		if mask.Has(c) {
			v.WriteKey(&sb)
		}
	}
	return sb.String()
}

// Store is the catalog of relations at one peer.
type Store struct {
	mu     sync.RWMutex
	rels   map[string]*Relation // key = name@peer
	intern *value.Interner      // shared by every relation declared here
	// decls counts the relations ever declared. Relations are never
	// dropped, so an unchanged count means every Get answers as before.
	decls atomic.Uint64
}

// New creates an empty store.
func New() *Store {
	return &Store{rels: make(map[string]*Relation)}
}

// SetInterner makes every relation of this store — existing and future —
// canonicalize inserted tuples through the given shared intern table. Peers
// of one swarm point their stores at one Interner so replicated facts are
// stored once process-wide (see Relation.SetInterner); nil turns interning
// off for future inserts.
func (s *Store) SetInterner(in *value.Interner) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.intern = in
	for _, r := range s.rels {
		r.SetInterner(in)
	}
}

// Declare creates the relation if it does not exist, and returns it. If a
// relation with the same id exists, its schema must agree on kind and arity.
func (s *Store) Declare(schema Schema) (*Relation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := schema.ID()
	if r, ok := s.rels[id]; ok {
		have := r.Schema()
		if have.Kind != schema.Kind || have.Arity() != schema.Arity() {
			return nil, fmt.Errorf("store: %w: redeclaration of %s: have %s, want %s",
				errdefs.ErrSchemaConflict, id, have, schema)
		}
		return r, nil
	}
	r := NewRelation(schema)
	if s.intern != nil {
		r.SetInterner(s.intern)
	}
	s.rels[id] = r
	s.decls.Add(1)
	return r, nil
}

// Declarations returns how many relations have been declared so far; a
// relation's declaration is the only change to what Get and GetID answer.
func (s *Store) Declarations() uint64 { return s.decls.Load() }

// Get returns the relation called name at peer, or nil if undeclared.
func (s *Store) Get(name, peer string) *Relation {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rels[name+"@"+peer]
}

// MustGet is Get but panics on undeclared relations (programming errors).
func (s *Store) MustGet(name, peer string) *Relation {
	r := s.Get(name, peer)
	if r == nil {
		panic("store: undeclared relation " + name + "@" + peer)
	}
	return r
}

// Relations returns all relations sorted by id (a stable snapshot).
func (s *Store) Relations() []*Relation {
	s.mu.RLock()
	out := make([]*Relation, 0, len(s.rels))
	for _, r := range s.rels {
		out = append(out, r)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// RelationsOf returns all relations owned by the given peer, sorted by name.
func (s *Store) RelationsOf(peer string) []*Relation {
	var out []*Relation
	for _, r := range s.Relations() {
		if r.schema.Peer == peer {
			out = append(out, r)
		}
	}
	return out
}

// ClearIntensional clears every intensional relation (a view rebuild) and
// returns what each held, keyed by relation id — an entry for every
// intensional relation, nil when it was already empty (see Clear).
func (s *Store) ClearIntensional() map[string]map[string]value.Tuple {
	dropped := map[string]map[string]value.Tuple{}
	for _, r := range s.Relations() {
		if r.Kind() == ast.Intensional {
			dropped[r.id] = r.Clear()
		}
	}
	return dropped
}

// Facts returns every tuple in every relation owned by peer as facts,
// sorted for stable output.
func (s *Store) Facts(peer string) []ast.Fact {
	var out []ast.Fact
	for _, r := range s.RelationsOf(peer) {
		for _, t := range r.Tuples() {
			out = append(out, ast.Fact{Rel: r.Name(), Peer: peer, Args: t})
		}
	}
	return out
}
