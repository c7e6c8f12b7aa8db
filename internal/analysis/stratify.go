package analysis

import (
	"fmt"
	"sort"

	"repro/internal/ast"
)

// Stratification of a peer's local program under the classic stratified
// semantics. Nodes of the dependency graph are the peer's local intensional
// relations (extensional relations are frozen during a stage, so they impose
// no ordering). Because WebdamLog allows variables in relation and peer
// position, the analysis is necessarily conservative:
//
//   - a head with a variable relation or peer may derive into any local
//     intensional relation ("wildcard head");
//   - a body atom with a variable relation or peer may read any local
//     intensional relation ("wildcard dependency").
//
// A program is rejected only if these conservative dependencies contain a
// cycle through negation. This is the single implementation; the engine's
// stratify calls it with the live store's intensional relations as idb.

// Stratification is the result of a successful Stratify.
type Stratification struct {
	// RelStrata assigns each intensional relation its stratum.
	RelStrata map[string]int
	// RuleStrata assigns each input rule (by index) its stratum: no earlier
	// than all its positive dependencies, strictly after its negated ones,
	// and at least its head's stratum.
	RuleStrata []int
	// MaxStratum is the highest stratum used by any relation or rule.
	MaxStratum int
}

// CycleViolation reports a negation cycle found by Stratify.
type CycleViolation struct {
	Rel  string // a relation on the cycle
	Peer string // the local peer
	Pos  ast.Pos
}

// Detail renders the engine's historical error text for the cycle.
func (v *CycleViolation) Detail() string {
	return fmt.Sprintf("relation %s@%s participates in a cycle through negation", v.Rel, v.Peer)
}

// headTargets returns the local intensional relations the rule's head might
// derive into: nil for "none" and the full set for a wildcard head.
func headTargets(r *ast.Rule, idb map[string]bool, local string, all []string) []string {
	h := &r.Head
	if !h.Peer.IsVar() && h.Peer.Val.StringVal() != local {
		return nil // remote head: a message, not a local derivation
	}
	// Peer is local or a variable (conservatively possibly local).
	if !h.Rel.IsVar() {
		name := h.Rel.Val.StringVal()
		if idb[name] {
			return []string{name}
		}
		return nil // extensional or undeclared head: an update, not a view
	}
	return all // wildcard head
}

// bodyDep is one body atom's possible reads of local intensional relations.
type bodyDep struct {
	rels []string
	neg  bool
	pos  ast.Pos
}

func bodyDeps(r *ast.Rule, idb map[string]bool, local string, all []string) []bodyDep {
	var out []bodyDep
	for i := range r.Body {
		a := &r.Body[i]
		if !a.Peer.IsVar() && a.Peer.Val.StringVal() != local {
			continue // definitely remote: evaluated by delegation at the remote peer
		}
		if !a.Rel.IsVar() {
			name := a.Rel.Val.StringVal()
			if idb[name] {
				out = append(out, bodyDep{rels: []string{name}, neg: a.Neg, pos: a.Pos})
			}
			continue
		}
		if len(all) > 0 {
			out = append(out, bodyDep{rels: all, neg: a.Neg, pos: a.Pos})
		}
	}
	return out
}

// Stratify assigns a stratum to every relation in idb and every rule, for
// the program running at peer local whose intensional relations are idb.
// Rules with no local intensional head (pure update / message / delegation
// rules) are placed after every stratum they depend on. A negation cycle
// returns a nil Stratification and a non-nil violation.
func Stratify(local string, idb map[string]bool, rules []*ast.Rule) (*Stratification, *CycleViolation) {
	all := make([]string, 0, len(idb))
	for name := range idb {
		all = append(all, name)
	}
	sort.Strings(all)

	strata := make(map[string]int, len(idb))
	for name := range idb {
		strata[name] = 0
	}
	// Iterate the usual inequalities to a fixpoint; a stratum exceeding the
	// node count certifies a negation cycle.
	limit := len(idb) + 1
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			heads := headTargets(r, idb, local, all)
			if len(heads) == 0 {
				continue
			}
			deps := bodyDeps(r, idb, local, all)
			for _, h := range heads {
				for _, d := range deps {
					for _, b := range d.rels {
						need := strata[b]
						if d.neg {
							need++
						}
						if strata[h] < need {
							strata[h] = need
							changed = true
							if strata[h] > limit {
								return nil, &CycleViolation{Rel: h, Peer: local, Pos: at(d.pos, r.Pos)}
							}
						}
					}
				}
			}
		}
	}

	out := &Stratification{RelStrata: strata, RuleStrata: make([]int, len(rules))}
	for _, s := range strata {
		if s > out.MaxStratum {
			out.MaxStratum = s
		}
	}
	// Place each rule: it must run no earlier than all its positive
	// dependencies and strictly after its negated dependencies; deductive
	// rules additionally run in their head's stratum.
	for i, r := range rules {
		s := 0
		for _, d := range bodyDeps(r, idb, local, all) {
			for _, b := range d.rels {
				need := strata[b]
				if d.neg {
					need++
				}
				if s < need {
					s = need
				}
			}
		}
		for _, h := range headTargets(r, idb, local, all) {
			if s < strata[h] {
				s = strata[h]
			}
		}
		if s > out.MaxStratum {
			out.MaxStratum = s
		}
		out.RuleStrata[i] = s
	}
	return out, nil
}
