package value

import "sync"

// Interner deduplicates values, tuples and their canonical keys across many
// holders. In a swarm of in-process peers the same fact is materialized at
// every follower of its author — without interning each replica carries its
// own Tuple slice, its own Value string backings and its own canonical key
// string, and memory per peer becomes the scaling wall (TestSwarmMemoryScaling
// and the swarm ledger workload's heap_mb). An
// interned relation instead stores the one canonical Tuple and key the whole
// process shares, so the marginal cost of a replica is a map entry.
//
// The table is append-only: entries live as long as the Interner, which is
// why the natural scope is one Interner per swarm (or per deployment) whose
// lifetime matches the fact universe it deduplicates. All methods are safe
// for concurrent use and all of them treat a nil *Interner as "no
// interning", falling back to the private-copy behavior callers had before.
type Interner struct {
	strs   [internShards]strShard
	tuples [internShards]tupleShard
}

// internShards spreads the intern maps over independently locked shards so
// concurrent peers' inserts do not serialize on one mutex. Must be a power
// of two.
const internShards = 64

type strShard struct {
	mu sync.Mutex
	m  map[string]string
}

type tupleShard struct {
	mu sync.Mutex
	m  map[string]internedTuple
}

// internedTuple pairs a canonical tuple with its canonical key. The key
// field shares its backing array with the shard's map key, so the key is
// stored once no matter how many relations hold it.
type internedTuple struct {
	key string
	t   Tuple
}

// NewInterner creates an empty intern table.
func NewInterner() *Interner {
	in := &Interner{}
	for i := range in.strs {
		in.strs[i].m = make(map[string]string)
	}
	for i := range in.tuples {
		in.tuples[i].m = make(map[string]internedTuple)
	}
	return in
}

// shardOf hashes s to a shard index (Hash64 folded to internShards).
func shardOf(s string) int { return int(Hash64(s) & (internShards - 1)) }

// String returns the canonical instance of s: every call with equal contents
// returns a string sharing one backing array. A nil interner returns s.
func (in *Interner) String(s string) string {
	if in == nil || s == "" {
		return s
	}
	sh := &in.strs[shardOf(s)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c, ok := sh.m[s]; ok {
		return c
	}
	sh.m[s] = s
	return s
}

// Value returns v with any string payload (string and blob kinds) replaced
// by its canonical instance. Scalar kinds are returned unchanged.
func (in *Interner) Value(v Value) Value {
	if in == nil {
		return v
	}
	switch v.k {
	case KindString, KindBlob:
		v.s = in.String(v.s)
	}
	return v
}

// Tuple returns the canonical instance of t and its canonical key. The
// returned tuple is shared by every holder that interned an equal tuple and
// must be treated as immutable (tuples already are, everywhere). A nil
// interner degrades to the non-shared equivalents: a private clone and a
// fresh key.
func (in *Interner) Tuple(t Tuple) (Tuple, string) {
	return in.TupleKeyed(t, t.Key())
}

// TupleKeyed is Tuple for a caller that already holds key == t.Key(), so the
// tuple is not encoded again.
func (in *Interner) TupleKeyed(t Tuple, key string) (Tuple, string) {
	if in == nil {
		return t.Clone(), key
	}
	sh := &in.tuples[shardOf(key)]
	sh.mu.Lock()
	if it, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		return it.t, it.key
	}
	sh.mu.Unlock()
	// First sighting: build the canonical tuple off the shard lock (string
	// interning takes the string shards' locks), then publish. A concurrent
	// first-sighting race is settled by whoever stores first.
	ct := make(Tuple, len(t))
	for i, v := range t {
		ct[i] = in.Value(v)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if it, ok := sh.m[key]; ok {
		return it.t, it.key
	}
	sh.m[key] = internedTuple{key: key, t: ct}
	return ct, key
}

// InternStats reports the table's population.
type InternStats struct {
	Strings int
	Tuples  int
}

// Stats counts the interned strings and tuples.
func (in *Interner) Stats() InternStats {
	var st InternStats
	if in == nil {
		return st
	}
	for i := range in.strs {
		in.strs[i].mu.Lock()
		st.Strings += len(in.strs[i].m)
		in.strs[i].mu.Unlock()
	}
	for i := range in.tuples {
		in.tuples[i].mu.Lock()
		st.Tuples += len(in.tuples[i].m)
		in.tuples[i].mu.Unlock()
	}
	return st
}
