package engine

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/value"
)

// The reference evaluator: the simplest possible reading of the paper's
// semantics, kept as the oracle production rule execution (compilefast.go,
// exec.go, plan.go, incremental.go) is checked against. Naive iteration to
// fixpoint, bodies walked in written order, every atom a full scan through
// Relation.Iterate, names resolved per visit, recompute only — no deltas, no
// indexes, no plans, no compiled steps. It shares exactly two things with
// production: head routing (produce) and residual construction
// (addDelegation), which define *what* a stage outputs rather than how the
// body is matched.

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
	st := e.newStageState()
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
		e.addDelegation(cr, i, env, bound, peerName, st)
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
