package store

import "repro/internal/value"

// Order-insensitive set digests.
//
// A Digest summarizes a set of tuples as (XOR-folded FNV-64a hash, count).
// XOR folding makes it order-insensitive and incrementally maintainable:
// adding or removing one member is one hash and one XOR, so a set that is
// kept digested as it changes can answer "what is your digest?" in O(1) —
// the property the anti-entropy resync protocol relies on (a sender
// advertises digests of the view it maintains at each receiver; the
// receiver compares them against digests of its per-sender supported sets
// without walking either side's tuples).
//
// Two digests being equal does not prove the sets equal — that would need
// an XOR collision across 64-bit FNV hashes plus an equal count — but the
// users here are change *detectors* feeding a repair path that is itself
// idempotent, exactly like Relation.Fingerprint.

// Digest is an order-insensitive summary of a set of keyed elements.
// The zero value is the digest of the empty set.
type Digest struct {
	Hash  uint64
	Count uint64
}

// Add folds one member (by its canonical key) into the digest.
func (d *Digest) Add(key string) {
	d.Hash ^= KeyHash(key)
	d.Count++
}

// Remove folds one member out of the digest. The caller must only remove
// members previously added (set semantics are the caller's ledger): a
// digest has no membership of its own, so the one violation it *can* catch
// — removing from the empty set, which would otherwise underflow Count and
// silently corrupt every later comparison — is refused, and panics under
// DebugAsserts so tests surface the offending call site.
func (d *Digest) Remove(key string) {
	if d.Count == 0 {
		if DebugAsserts {
			panic("store: Digest.Remove on an empty digest: " + key)
		}
		return
	}
	d.Hash ^= KeyHash(key)
	d.Count--
}

// DebugAsserts upgrades internal invariant violations (Digest underflow,
// MerkleTree removal of an absent key) from silent no-ops to panics. Tests
// enable it; production code paths leave it off and treat the violations
// as refused operations.
var DebugAsserts = false

// Zero reports whether the digest summarizes the empty set.
func (d Digest) Zero() bool { return d.Count == 0 && d.Hash == 0 }

// KeyHash is the FNV-64a hash of a canonical key — the single hash both
// ends of a digest comparison must use (it is the same function the
// relation fingerprint folds).
func KeyHash(key string) uint64 { return value.Hash64(key) }

// Digest returns the relation's content digest: the incrementally
// maintained member-hash fold plus the member count. O(1) — both parts are
// kept current by Insert/Delete/Clear — and equal for equal contents
// regardless of mutation history.
func (r *Relation) Digest() Digest {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Digest{Hash: r.fp, Count: uint64(len(r.tuples))}
}
