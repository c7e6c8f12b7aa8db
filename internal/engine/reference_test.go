package engine

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/value"
)

// The reference evaluator: the simplest possible reading of the paper's
// semantics, kept as the oracle production rule execution (compilefast.go,
// exec.go, plan.go, incremental.go) is checked against. Naive iteration to
// fixpoint, bodies walked in written order, every atom a full scan through
// Relation.Iterate, names resolved per visit, recompute only — no deltas, no
// indexes, no plans, no compiled steps. It shares one thing with
// production, head routing (produce), which defines *what* a stage outputs
// rather than how the body is matched. Delegation it reads as the paper
// does: each valuation that reaches a remote atom emits one residual rule
// with every prefix binding substituted in (refResidualRel), where
// production ships a template and a binding — instantiate maps the one onto
// the other.

// referenceStage evaluates prog from scratch: intensional relations are
// cleared, then every stratum is iterated until nothing new is derived.
func referenceStage(e *Engine, prog *Program) *Result {
	res, _ := referenceRun(e, prog)
	return res
}

// referenceRun is referenceStage that also reports, per head fact key, the
// derivations of each stratum's final naive iteration — the one that derives
// nothing new, so it re-enumerates every body valuation over the fixpoint —
// each rendered "ruleID from [supports]", supports in written body order.
func referenceRun(e *Engine, prog *Program) (*Result, map[string][]string) {
	e.db.ClearIntensional()
	st := e.stage(nil)
	defer st.release()
	why := map[string][]string{}
	for _, stratum := range prog.Strata {
		for derived := -1; derived != st.out.Derived; st.out.Iterations++ {
			derived = st.out.Derived
			iter := map[string][]string{}
			for _, cr := range stratum {
				referenceWalk(e, cr, 0, make([]value.Value, cr.NumSlots), make([]bool, cr.NumSlots), nil, iter, st)
			}
			if derived == st.out.Derived {
				for k, ds := range iter {
					why[k] = append(why[k], ds...)
				}
			}
		}
	}
	return st.out, why
}

// referenceWalk matches body atom i and everything after it under the
// bindings in env (bound marks the slots that hold one); sup holds the
// facts the matched positive atoms before i stand on, and a full match of a
// Derive rule is recorded in why.
func referenceWalk(e *Engine, cr *CompiledRule, i int, env []value.Value, bound []bool, sup []ast.Fact, why map[string][]string, st *stageState) {
	if i == len(cr.Body) {
		e.produce(cr, env, st)
		rel, okRel := resolveName(cr.Head.rel, env)
		peer, okPeer := resolveName(cr.Head.peer, env)
		if cr.Rule.Op == ast.Derive && okRel && okPeer {
			key := ast.Fact{Rel: rel, Peer: peer, Args: cr.Head.tuple(env)}.Key()
			why[key] = append(why[key], fmt.Sprintf("%s from %v", cr.Rule.ID, sup))
		}
		return
	}
	a := &cr.Body[i]
	peerName, ok := resolveName(a.peer, env)
	if !ok {
		st.errf("engine: rule %s: peer term of body atom %d is not a string", cr.Rule.ID, i+1)
		return
	}
	if peerName != e.local && peerName != BuiltinPeer {
		emitRemote(st, peerName, FactOp{Op: ast.Derive, Fact: ast.Fact{Rel: refResidualRel, Peer: peerName, Args: refResidual(e, cr, i, env, bound)}})
		return
	}
	relName, ok := resolveName(a.rel, env)
	if !ok {
		st.errf("engine: rule %s: relation term of body atom %d is not a string", cr.Rule.ID, i+1)
		return
	}
	if peerName == BuiltinPeer {
		holds, err := referenceBuiltin(relName, a, env, bound, cr)
		if err != nil {
			st.errf("engine: rule %s: %v", cr.Rule.ID, err)
		} else if holds != a.neg {
			referenceWalk(e, cr, i+1, env, bound, sup, why, st)
		}
		return
	}
	rel := e.db.Get(relName, peerName)
	if a.neg {
		if rel == nil || !rel.Contains(a.tuple(env)) {
			referenceWalk(e, cr, i+1, env, bound, sup, why, st)
		}
		return
	}
	if rel == nil {
		return
	}
	rel.Iterate(func(t value.Tuple) bool {
		if len(t) != len(a.args) {
			return false
		}
		var fresh []int
		match := true
		for k, arg := range a.args {
			switch {
			case !arg.isVar:
				match = arg.val.Equal(t[k])
			case bound[arg.slot]:
				match = env[arg.slot].Equal(t[k])
			default:
				env[arg.slot], bound[arg.slot] = t[k], true
				fresh = append(fresh, arg.slot)
			}
			if !match {
				break
			}
		}
		if match {
			referenceWalk(e, cr, i+1, env, bound, append(sup, ast.Fact{Rel: relName, Peer: peerName, Args: t}), why, st)
		}
		for _, s := range fresh {
			bound[s] = false
		}
		return true
	})
}

func referenceBuiltin(name string, a *cAtom, env []value.Value, bound []bool, cr *CompiledRule) (bool, error) {
	want, ok := builtinArity[name]
	if !ok {
		return false, fmt.Errorf("engine: unknown builtin predicate %q", name)
	}
	if len(a.args) != want {
		return false, fmt.Errorf("engine: builtin %s expects %d arguments, got %d", name, want, len(a.args))
	}
	for _, arg := range a.args {
		if arg.isVar && !bound[arg.slot] {
			return false, fmt.Errorf("engine: builtin %s reached with $%s unbound", name, cr.SlotNames[arg.slot])
		}
	}
	c := a.args[0].value(env).Compare(a.args[1].value(env))
	return map[string]bool{"lt": c < 0, "le": c <= 0, "gt": c > 0, "ge": c >= 0, "eq": c == 0, "neq": c != 0}[name], nil
}

// refResidualRel is the relation the reference emits residuals into: the
// fact (origin, ruleID, rule) of the residual rule.
const refResidualRel = "#residual"

// refResidual builds the residual fact's arguments for the suffix starting
// at body position i, with the prefix's bindings (the slots marked in bound)
// substituted in.
func refResidual(e *Engine, cr *CompiledRule, i int, env []value.Value, bound []bool) value.Tuple {
	sub := ast.Substitution{}
	for slot, name := range cr.SlotNames {
		if bound[slot] {
			sub[name] = env[slot]
		}
	}
	r := sub.ApplyRule(ast.Rule{Op: cr.Rule.Op, Head: cr.Rule.Head, Body: cr.Rule.Body[i:]})
	return value.Tuple{value.Str(e.local), value.Str(cr.Rule.ID), value.Blob(r.AppendBinary(nil))}
}

// instantiate returns the residuals the template fact args stands for at
// dst, as refResidual arguments: the template itself when it has no
// parameters, else one per tuple bindings(rel) lists for its binding
// relation rel. A template with parameters and no binding fails the test.
func instantiate(t testing.TB, args value.Tuple, dst string, bindings func(rel string) []value.Tuple) []value.Tuple {
	t.Helper()
	origin, ruleID, r, err := Template(args, dst)
	if err != nil {
		t.Fatal(err)
	}
	residual := func(r ast.Rule) value.Tuple {
		return value.Tuple{value.Str(origin), value.Str(ruleID), value.Blob(r.AppendBinary(nil))}
	}
	if len(r.Body) == 0 || r.Body[0].Rel.IsVar() || !Reserved(r.Body[0].Rel.Val.StringVal()) {
		return []value.Tuple{residual(r)}
	}
	bind := r.Body[0]
	bs := bindings(bind.Rel.Val.StringVal())
	if len(bs) == 0 {
		t.Fatalf("template %s stands with no binding at %s", r.String(), dst)
	}
	out := make([]value.Tuple, 0, len(bs))
	for _, b := range bs {
		sub := ast.Substitution{}
		for k, a := range bind.Args {
			sub[a.Var] = b[k]
		}
		out = append(out, residual(sub.ApplyRule(ast.Rule{Op: r.Op, Head: r.Head, Body: r.Body[1:]})))
	}
	return out
}

// asResiduals returns facts, per destination, with the templates among them
// instantiated by the bindings among them into reference residual facts
// (which it passes through as they are); a binding no template there reads
// fails the test.
func asResiduals(t testing.TB, facts map[string][]ast.Fact) map[string][]ast.Fact {
	t.Helper()
	out := map[string][]ast.Fact{}
	for dst, fs := range facts {
		bindings, read := map[string][]value.Tuple{}, map[string]bool{}
		for _, f := range fs {
			if Reserved(f.Rel) && f.Rel != TemplateRel && f.Rel != refResidualRel {
				bindings[f.Rel] = append(bindings[f.Rel], f.Args)
			}
		}
		for _, f := range fs {
			switch {
			case f.Rel == TemplateRel:
				for _, args := range instantiate(t, f.Args, dst, func(rel string) []value.Tuple {
					read[rel] = true
					return bindings[rel]
				}) {
					out[dst] = append(out[dst], ast.Fact{Rel: refResidualRel, Peer: dst, Args: args})
				}
			case f.Rel == refResidualRel || !Reserved(f.Rel):
				out[dst] = append(out[dst], f)
			}
		}
		for rel := range bindings {
			if !read[rel] {
				t.Fatalf("bindings of %s at %s have no template", rel, dst)
			}
		}
	}
	return out
}
