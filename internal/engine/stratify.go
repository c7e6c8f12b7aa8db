package engine

import (
	"repro/internal/analysis"
	"repro/internal/ast"
)

// Stratification. The paper's language includes negation ("Although negation
// is supported by the language, it is not yet implemented in the WebdamLog
// system"); we implement it with the classic stratified semantics, applied
// to the peer's local program each stage.
//
// The dependency analysis itself lives in internal/analysis (Stratify),
// shared with the `wdl check` static analyzer; the engine supplies the live
// store's intensional relations as the graph's nodes and turns a negation
// cycle into ErrNotStratifiable.

// ErrNotStratifiable reports a program with a negation cycle. Pos locates a
// rule on the cycle when the program was parsed from source.
type ErrNotStratifiable struct {
	Detail string
	Pos    ast.Pos
}

// Error implements the error interface. When the cycle carries a source
// position, it is appended; the historical message is otherwise unchanged.
func (e *ErrNotStratifiable) Error() string {
	if e.Pos.IsValid() {
		return "program is not stratifiable: " + e.Detail + " (at " + e.Pos.String() + ")"
	}
	return "program is not stratifiable: " + e.Detail
}

// localIntensional returns the set of local intensional relation names that
// currently exist in the store.
func (e *Engine) localIntensional() map[string]bool {
	out := map[string]bool{}
	for _, r := range e.db.RelationsOf(e.local) {
		if r.Kind() == ast.Intensional {
			out[r.Name()] = true
		}
	}
	return out
}

// stratify assigns a stratum to every relation node and every rule, filling
// prog.Strata. Rules with no local intensional head (pure update / message /
// delegation rules) are placed after every stratum they depend on.
func (e *Engine) stratify(prog *Program) error {
	idb := e.localIntensional()
	rules := make([]*ast.Rule, len(prog.Rules))
	for i, cr := range prog.Rules {
		rules[i] = cr.Rule
	}
	st, v := analysis.Stratify(e.local, idb, rules)
	if v != nil {
		return &ErrNotStratifiable{Detail: v.Detail(), Pos: v.Pos}
	}
	for i, cr := range prog.Rules {
		cr.Stratum = st.RuleStrata[i]
	}
	prog.Strata = make([][]*CompiledRule, st.MaxStratum+1)
	for _, cr := range prog.Rules {
		prog.Strata[cr.Stratum] = append(prog.Strata[cr.Stratum], cr)
	}
	return nil
}
