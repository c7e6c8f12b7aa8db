package engine

import "repro/internal/analysis"

// BuiltinPeer is the reserved peer name for built-in predicates. Atoms whose
// peer is this constant are evaluated by the engine itself rather than by a
// relation lookup or a delegation:
//
//	top@jules($id) :- rate@jules($id, $s), ge@builtin($s, 4);
//
// Available predicates (all arity 2): lt, le, gt, ge, eq, neq. Values are
// compared with the total order of the value package; comparing values of
// different kinds follows the kind order rather than failing, which keeps
// the predicates total.
//
// This is an extension over the paper's language, motivated by its
// rule-customization scenario ("retrieving, e.g., only pictures that were
// taken by a certain sigmod attendee"); the Bud runtime underlying the
// original system offers similar predicates.
//
// The canonical definition lives in internal/analysis, so static tooling
// and the engine can never disagree about what a builtin is.
const BuiltinPeer = analysis.BuiltinPeer

// builtinArity maps predicate names to their required arity.
var builtinArity = analysis.Builtins()

// Builtin comparison op codes.
const (
	biLt uint8 = iota
	biLe
	biGt
	biGe
	biEq
	biNeq
)

// builtinOps maps predicate names to their op codes.
var builtinOps = map[string]uint8{"lt": biLt, "le": biLe, "gt": biGt, "ge": biGe, "eq": biEq, "neq": biNeq}

// builtinHolds reports whether the comparison op holds for c, the
// value.Compare result of the predicate's two arguments.
func builtinHolds(op uint8, c int) bool {
	switch op {
	case biLt:
		return c < 0
	case biLe:
		return c <= 0
	case biGt:
		return c > 0
	case biGe:
		return c >= 0
	case biEq:
		return c == 0
	default:
		return c != 0
	}
}
