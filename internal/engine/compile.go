package engine

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/ast"
)

// SafetyError reports a rule that violates WebdamLog's safety conditions.
// Pos locates the offending term when the rule was parsed from source.
type SafetyError struct {
	Rule ast.Rule
	Msg  string
	Pos  ast.Pos
}

// Error implements the error interface. When the rule carries a source
// position, it is appended; the historical message is otherwise unchanged.
func (e *SafetyError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("unsafe rule %q: %s (at %s)", e.Rule.String(), e.Msg, e.Pos)
	}
	return fmt.Sprintf("unsafe rule %q: %s", e.Rule.String(), e.Msg)
}

// CheckSafety validates the paper's safety conditions for a rule:
//
//   - every variable in relation or peer position must be a constant or
//     bound by an earlier (left-to-right) positive atom;
//   - every variable of a negated atom must be bound by an earlier positive
//     atom;
//   - every head variable must be bound by some positive body atom.
//
// The check itself lives in internal/analysis (RuleSafety), shared with the
// `wdl check` static analyzer; this wraps its verdict in a SafetyError.
func CheckSafety(r ast.Rule) error {
	if v := analysis.RuleSafety(r); v != nil {
		return &SafetyError{Rule: r, Msg: v.Msg, Pos: v.Pos}
	}
	return nil
}

// slotAllocator assigns frame slots to variable names.
type slotAllocator struct {
	slots map[string]int
	names []string
}

func (s *slotAllocator) slot(name string) int {
	if i, ok := s.slots[name]; ok {
		return i
	}
	i := len(s.names)
	s.slots[name] = i
	s.names = append(s.names, name)
	return i
}

func (s *slotAllocator) compileTerm(t ast.Term) termRef {
	if t.IsVar() {
		return termRef{isVar: true, slot: s.slot(t.Var)}
	}
	return termRef{val: t.Val}
}

func (s *slotAllocator) compileAtom(a ast.Atom) cAtom {
	out := cAtom{
		neg:  a.Neg,
		rel:  s.compileTerm(a.Rel),
		peer: s.compileTerm(a.Peer),
		args: make([]termRef, len(a.Args)),
	}
	for i, t := range a.Args {
		out.args[i] = s.compileTerm(t)
	}
	if !out.rel.isVar && !out.peer.isVar {
		out.relID = out.rel.val.StringVal() + "@" + out.peer.val.StringVal()
	}
	return out
}

// CompileRule checks safety and compiles a single rule. The rule is cloned;
// the engine never aliases caller-owned memory.
func (e *Engine) CompileRule(r ast.Rule) (*CompiledRule, error) {
	if err := CheckSafety(r); err != nil {
		return nil, err
	}
	r = r.Clone()
	alloc := &slotAllocator{slots: map[string]int{}}
	cr := &CompiledRule{Rule: &r}
	// Compile body first so slot order follows binding order; the safety
	// check guarantees the head only uses already-allocated slots.
	cr.Body = make([]cAtom, len(r.Body))
	for i, a := range r.Body {
		cr.Body[i] = alloc.compileAtom(a)
	}
	cr.Head = alloc.compileAtom(r.Head)
	cr.NumSlots = len(alloc.names)
	cr.SlotNames = alloc.names
	return cr, nil
}

// CompileProgram compiles and stratifies a rule set. Errors from individual
// rules are joined; a stratification failure is reported for the whole set.
func (e *Engine) CompileProgram(rules []ast.Rule) (*Program, error) {
	prog := &Program{}
	var errs []error
	for _, r := range rules {
		cr, err := e.CompileRule(r)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		prog.Rules = append(prog.Rules, cr)
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	if err := e.stratify(prog); err != nil {
		return nil, err
	}
	e.classify(prog)
	return prog, nil
}

// CompileRules is the tolerant variant used by the peer runtime: rules that
// fail safety checks are skipped (with their errors reported) and the rest
// of the program still compiles. A stratification failure, which concerns
// the rule set as a whole, returns a nil program.
func (e *Engine) CompileRules(rules []ast.Rule) (*Program, []error) {
	prog := &Program{}
	var errs []error
	for _, r := range rules {
		cr, err := e.CompileRule(r)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		prog.Rules = append(prog.Rules, cr)
	}
	if err := e.stratify(prog); err != nil {
		errs = append(errs, err)
		return nil, errs
	}
	e.classify(prog)
	return prog, errs
}
