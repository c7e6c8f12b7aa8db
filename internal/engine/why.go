package engine

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/value"
)

// Derivation is one way a fact holds now, computed on demand (the paper's
// §2 derives view policies "from the provenance of the base relations"):
// the rule, and the ground positive local body atoms of one satisfying
// valuation, in written body order — so the answer depends on neither the
// plan nor which rule first derived the fact.
type Derivation struct {
	RuleID   string
	Rule     string // rendered rule text
	Supports []ast.Fact
}

// Why returns every current derivation of f by a Derive rule of prog (own
// rules and installed delegations): each rule whose head unifies with f
// runs as a head-bound kindWhy walk over the store, recording every match.
// A base fact has none; a body that leaves the peer derives nothing locally.
func (e *Engine) Why(prog *Program, f ast.Fact) []Derivation {
	st := e.stage(nil)
	defer st.release()
	return e.why(prog, st, f)
}

// why answers Why under st, whose compiled chains persist across a query.
func (e *Engine) why(prog *Program, st *stageState, f ast.Fact) []Derivation {
	st.why = nil
	for _, cr := range prog.Rules {
		env := make([]value.Value, cr.NumSlots)
		if cr.Rule.Op == ast.Derive && unifyHead(cr, f.Rel, f.Peer, f.Args, env, make([]bool, cr.NumSlots)) {
			st.planner.compiledFor(cr, kindWhy, -1).runMatch(st, env)
		}
	}
	return st.why
}

// derivation records the full match in env (every slot bound; remote atoms
// never reach one) as a Derivation of cr's head.
func derivation(cr *CompiledRule, env []value.Value) Derivation {
	d := Derivation{RuleID: cr.Rule.ID, Rule: cr.Rule.String()}
	for i := range cr.Body {
		a := &cr.Body[i]
		peer, _ := resolveName(a.peer, env)
		if a.neg || peer == BuiltinPeer {
			continue
		}
		rel, _ := resolveName(a.rel, env)
		d.Supports = append(d.Supports, ast.Fact{Rel: rel, Peer: peer, Args: a.tuple(env)})
	}
	return d
}

// BaseSupports returns the facts with no derivation of their own that
// transitively support f through the union of its derivations, deduplicated
// and sorted by key. A fact with no derivation supports itself; cycles
// (recursive rules) are cut by marking.
func (e *Engine) BaseSupports(prog *Program, f ast.Fact) []ast.Fact {
	st := e.stage(nil)
	defer st.release()
	seen := map[string]bool{}
	var out []ast.Fact
	var walk func(f ast.Fact)
	walk = func(f ast.Fact) {
		if seen[f.Key()] {
			return
		}
		seen[f.Key()] = true
		ds := e.why(prog, st, f)
		if len(ds) == 0 {
			out = append(out, f)
		}
		for _, d := range ds {
			for _, s := range d.Supports {
				walk(s)
			}
		}
	}
	walk(f)
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}
