package acl

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/ast"
)

// Privilege is a discretionary right on a relation, per the paper's §2
// sketch: "users have the power to grant rights to data they own".
type Privilege uint8

// Privileges. GrantPriv lets the holder grant further rights.
const (
	ReadPriv Privilege = 1 << iota
	WritePriv
	GrantPriv
)

// String renders a privilege set like "read|write".
func (p Privilege) String() string {
	var parts []string
	if p&ReadPriv != 0 {
		parts = append(parts, "read")
	}
	if p&WritePriv != 0 {
		parts = append(parts, "write")
	}
	if p&GrantPriv != 0 {
		parts = append(parts, "grant")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// Grants records, per stored relation, which peers hold which privileges.
// The relation's owner implicitly holds all privileges.
type Grants struct {
	owner string

	mu sync.RWMutex
	m  map[string]map[string]Privilege // relation name -> grantee -> privileges
}

// NewGrants creates a grant table owned by owner (the local peer).
func NewGrants(owner string) *Grants {
	return &Grants{owner: owner, m: make(map[string]map[string]Privilege)}
}

// Owner returns the owning peer name.
func (g *Grants) Owner() string { return g.owner }

// Grant gives peer the privileges p on relation rel.
func (g *Grants) Grant(rel, peer string, p Privilege) {
	g.mu.Lock()
	defer g.mu.Unlock()
	byPeer := g.m[rel]
	if byPeer == nil {
		byPeer = make(map[string]Privilege)
		g.m[rel] = byPeer
	}
	byPeer[peer] |= p
}

// Revoke removes the privileges p from peer on relation rel.
func (g *Grants) Revoke(rel, peer string, p Privilege) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if byPeer := g.m[rel]; byPeer != nil {
		byPeer[peer] &^= p
		if byPeer[peer] == 0 {
			delete(byPeer, peer)
		}
	}
}

// Allowed reports whether peer holds privilege p on relation rel. The owner
// is always allowed; the special grantee "*" grants to everyone.
func (g *Grants) Allowed(rel, peer string, p Privilege) bool {
	if peer == g.owner {
		return true
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	byPeer := g.m[rel]
	if byPeer == nil {
		return false
	}
	return byPeer[peer]&p == p || byPeer["*"]&p == p
}

// Readers returns the grantees holding read privilege on rel, sorted. The
// special grantee "*" means everyone; the owner is implicit and not listed.
// This is the slice of the table the static ACL-leak analysis consumes
// (analysis.GrantSource).
func (g *Grants) Readers(rel string) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	for peer, p := range g.m[rel] {
		if p&ReadPriv != 0 {
			out = append(out, peer)
		}
	}
	sort.Strings(out)
	return out
}

// Grantees returns the peers holding any privilege on rel, sorted.
func (g *Grants) Grantees(rel string) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	for peer := range g.m[rel] {
		out = append(out, peer)
	}
	sort.Strings(out)
	return out
}

// ProvenanceSource answers "which base facts support this derived fact" —
// satisfied by *peer.Peer, which computes the answer from its store.
type ProvenanceSource interface {
	BaseSupports(f ast.Fact) []ast.Fact
}

// ViewGuard implements the paper's default policy for derived relations:
// "a default access control policy that is derived automatically from the
// provenance of the base relations" — a peer may read a derived fact iff it
// may read every base fact in the fact's provenance. Relations listed in
// declassified override the default ("a user may override this policy in
// order to grant access to views, effectively 'declassifying' some data"),
// falling back to the grant table for the view relation itself.
type ViewGuard struct {
	grants *Grants
	prov   ProvenanceSource

	mu           sync.RWMutex
	declassified map[string]bool
}

// NewViewGuard builds a guard over a grant table and a provenance source.
func NewViewGuard(grants *Grants, prov ProvenanceSource) *ViewGuard {
	return &ViewGuard{grants: grants, prov: prov, declassified: make(map[string]bool)}
}

// Declassify marks the view relation rel as declassified: reads are checked
// against grants on rel itself rather than against provenance.
func (v *ViewGuard) Declassify(rel string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.declassified[rel] = true
}

// Reclassify restores the provenance-derived default for rel.
func (v *ViewGuard) Reclassify(rel string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.declassified, rel)
}

// Declassified reports whether rel is declassified.
func (v *ViewGuard) Declassified(rel string) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.declassified[rel]
}

// CanRead decides whether reader may read fact f. Facts in extensional
// relations are checked directly against the grant table. Facts in derived
// relations follow the provenance-derived policy unless declassified.
func (v *ViewGuard) CanRead(reader string, f ast.Fact, derived bool) bool {
	if !derived {
		return v.grants.Allowed(f.Rel, reader, ReadPriv)
	}
	if v.Declassified(f.Rel) {
		return v.grants.Allowed(f.Rel, reader, ReadPriv)
	}
	supports := v.prov.BaseSupports(f)
	if len(supports) == 0 {
		// No recorded provenance: fall back to grants on the view itself.
		return v.grants.Allowed(f.Rel, reader, ReadPriv)
	}
	for _, s := range supports {
		if !v.grants.Allowed(s.Rel, reader, ReadPriv) {
			return false
		}
	}
	return true
}
