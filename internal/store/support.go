package store

import (
	"slices"

	"repro/internal/value"
)

// External support bookkeeping for derived relations.
//
// A tuple of an intensional relation can be held alive by sources other than
// the local rule program: remote peers whose (delegated) rules derive it and
// ship it here as a maintained fact. The incremental evaluator must know, when
// a tuple loses one support, whether another is still standing — retracting
// one derivation must not kill a tuple that has an alternative. The store
// records that per-sender bookkeeping here, keyed by tuple, orthogonally to
// relation membership: Clear (a view rebuild) does not forget who supports
// what, so a rebuild can re-seed exactly the externally supported tuples.

// AddExternalSupport records that src currently derives the tuple whose
// Tuple.Key is key at a remote peer and maintains it here. It does not
// insert the tuple into the relation — membership and support are separate
// ledgers — but keeps key itself, so a caller that inserts with the same key
// (InsertKeyed) stores its bytes once. It returns true if this is a new
// (tuple, src) support pair.
func (r *Relation) AddExternalSupport(key, src string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	srcs := r.extSup[key]
	if slices.Contains(srcs, src) {
		return false
	}
	if r.extSup == nil {
		r.extSup = make(map[string][]string)
	}
	r.extSup[key] = append(srcs, src)
	return true
}

// DropExternalSupport removes src's support for the tuple whose key is key.
// It returns true if the support existed and the tuple is now externally
// unsupported — the signal that the tuple became a deletion candidate (it may
// still have local rule derivations; the evaluator decides).
func (r *Relation) DropExternalSupport(key, src string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	srcs := r.extSup[key]
	i := slices.Index(srcs, src)
	if i < 0 {
		return false
	}
	if len(srcs) > 1 {
		r.extSup[key] = slices.Delete(srcs, i, i+1)
		return false
	}
	delete(r.extSup, key)
	return true
}

// HasExternalSupport reports whether any remote sender currently maintains
// the tuple whose key is key.
func (r *Relation) HasExternalSupport(key string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.extSup[key]) > 0
}

// ExternallySupported returns all tuples with at least one external
// supporter, sorted — the set a view rebuild must re-seed after clearing the
// relation. The ledger holds keys only, so each tuple is decoded here: a
// rebuild's cost, not every supported fact's memory.
func (r *Relation) ExternallySupported() []value.Tuple {
	r.mu.RLock()
	out := make([]value.Tuple, 0, len(r.extSup))
	for key := range r.extSup {
		if t, err := value.DecodeKey(key); err == nil { // keys are Tuple.Key encodings
			out = append(out, t)
		}
	}
	r.mu.RUnlock()
	value.SortTuples(out)
	return out
}
