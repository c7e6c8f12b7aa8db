package engine

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// fuzzSchemas is the fixed schema of FuzzEngineStage's program.
var fuzzSchemas = []store.Schema{
	{Name: "edge", Peer: "local", Kind: ast.Extensional, Cols: []string{"a", "b"}},
	{Name: "reach", Peer: "local", Kind: ast.Intensional, Cols: []string{"a", "b"}},
	{Name: "asc", Peer: "local", Kind: ast.Intensional, Cols: []string{"a", "b"}},
	{Name: "seen", Peer: "local", Kind: ast.Intensional, Cols: []string{"a", "b"}},
	{Name: "follows", Peer: "local", Kind: ast.Extensional, Cols: []string{"p"}},
	{Name: "kinds", Peer: "local", Kind: ast.Extensional, Cols: []string{"r", "p"}},
	{Name: "log", Peer: "local", Kind: ast.Extensional, Cols: []string{"a", "b"}},
}

// fuzzRules is FuzzEngineStage's fixed rule list — transitive closure, a
// builtin-filtered projection, one rule per delegating shape (variable peer,
// constant remote atom mid-body, variable relation and peer resolving to a
// local relation, a builtin or a remote peer; view, remote and extensional
// heads), and remote view rules into the same out@far an event rule and a
// one-shot deletion rule also reach. No rule negates, so every subset
// stratifies.
var fuzzRules = []string{
	`reach@local($x, $y) :- edge@local($x, $y);`,
	`reach@local($x, $z) :- reach@local($x, $y), edge@local($y, $z);`,
	`asc@local($x, $y) :- reach@local($x, $y), lt@builtin($x, $y);`,
	`seen@local($x, $y) :- follows@local($p), edge@$p($x, $y);`,
	`seen@local($x, $z) :- edge@local($x, $y), hop@far($y, $z), edge@local($z, $x);`,
	`out@far($x, $y) :- asc@local($x, $y), kinds@local($r, $p), $r@$p($y, $x);`,
	`log@local($x, $y) :- kinds@local($r, "local"), $r@local($x, $y);`,
	`out@far($x, $y) :- reach@local($x, $y), edge@local($y, $x);`,
	`out@far($x, $x) :- seen@local($x, $y), lt@builtin($y, $x);`,
	`-out@far($x, $y) :- edge@local($x, $y), follows@local("far");`,
}

// FuzzEngineStage decodes the fuzz input into batches of base-fact inserts
// and deletes and rule toggles, and drives them through a program drawn
// from fuzzRules on production incremental maintenance, production
// recompute and the reference evaluator, requiring all three to agree on
// every relation and buffered update after every batch, the RemoteOut
// sequence of both production paths to leave exactly the reference's remote
// facts and residuals (checkAgainstReference), and both production paths to
// report the same view deltas and ship the same ops. A toggle adds or
// removes one rule — the view, remote view, delegating and deletion rules
// alike — and renumbers the rest by position, so the rules after it come
// back under new IDs: the incremental engine maintains the change as a
// program delta, and a renumbered rule's residuals are withdrawn and
// delegated again under its new ID.
// This fuzzes the whole execution surface: semi-naive delta walks, DRed
// over-deletion, rederivation, the remote view's two sources, the
// run-time-resolved steps and added and removed rules, across arbitrary
// insert/delete interleavings.
func FuzzEngineStage(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x34, 0x80, 0x12})
	f.Add([]byte{0x01, 0x12, 0x01, 0x21, 0x81, 0x12, 0x01, 0x13, 0x01, 0x32})
	f.Add([]byte{0xff, 0x00, 0x55, 0xaa, 0x0f, 0xf0, 0x33, 0xcc})
	// follows: local, far, then retract local; edges in between.
	f.Add([]byte{0x40, 0x00, 0x01, 0x12, 0x40, 0x01, 0x01, 0x23, 0xc0, 0x00, 0x01, 0x22})
	// kinds: (edge,local), (lt,builtin), (edge,far), then retract the builtin.
	f.Add([]byte{0x20, 0x00, 0x01, 0x12, 0x20, 0x03, 0x01, 0x21, 0x20, 0x02, 0xa0, 0x03, 0x20, 0x01})
	// Edges and follows, then toggle the closure's recursive rule, the
	// remote view rule over reach, the delegating seen rule and the deletion
	// rule off and back on.
	f.Add([]byte{0x01, 0x12, 0x01, 0x23, 0x01, 0x21, 0x40, 0x00, 0x40, 0x01,
		0x60, 0x01, 0x60, 0x07, 0x01, 0x34, 0x60, 0x03, 0x60, 0x09, 0x81, 0x12,
		0x60, 0x01, 0x60, 0x07, 0x60, 0x03, 0x60, 0x09})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 120 {
			data = data[:120] // bound fixpoint sizes, keep iterations fast
		}
		// Decode: 2 bytes per op. Bits 6 and 5 both set toggle rule
		// fuzzRules[second byte % len]: the batch so far ends and the
		// program changes before the next one. Otherwise the high bit of
		// the first byte selects delete; bit 6 targets follows, bit 5
		// targets kinds, otherwise edge, whose two attributes the second
		// byte packs into a small domain so joins and collisions actually
		// happen. Batch boundary every 4 ops.
		peers := []string{"local", "far"}
		kinds := [][2]string{{"edge", "local"}, {"reach", "local"}, {"edge", "far"}, {"lt", BuiltinPeer}}
		all := mustRules(t, fuzzRules...)
		on := make([]bool, len(all))
		for i := range on {
			on[i] = true
		}
		var batches [][]FactOp
		var cur []FactOp
		edits := map[int][]ast.Rule{}
		for i := 0; i+1 < len(data); i += 2 {
			if data[i]&0x60 == 0x60 {
				if len(cur) > 0 {
					batches, cur = append(batches, cur), nil
				}
				on[int(data[i+1])%len(all)] = !on[int(data[i+1])%len(all)]
				var rules []ast.Rule
				for k, r := range all {
					if on[k] {
						r.ID = fmt.Sprintf("r%d", len(rules)+1)
						rules = append(rules, r)
					}
				}
				edits[len(batches)] = rules
				continue
			}
			op := FactOp{Op: ast.Derive}
			if data[i]&0x80 != 0 {
				op.Op = ast.Delete
			}
			switch v := data[i+1]; {
			case data[i]&0x40 != 0:
				op.Fact = ast.NewFact("follows", "local", value.Str(peers[v%2]))
			case data[i]&0x20 != 0:
				op.Fact = ast.NewFact("kinds", "local", value.Str(kinds[v%4][0]), value.Str(kinds[v%4][1]))
			default:
				op.Fact = ast.NewFact("edge", "local", value.Int(int64(v>>4&0x7)), value.Int(int64(v&0x7)))
			}
			if cur = append(cur, op); len(cur) == 4 {
				batches = append(batches, cur)
				cur = nil
			}
		}
		if _, ok := edits[len(batches)]; ok || len(cur) > 0 {
			batches = append(batches, cur) // an edit with no batch after it runs a stage of its own
		}
		if len(batches) == 0 {
			return
		}
		checkAgainstReference(t, "fuzz", fuzzSchemas, nil, all, batches, edits)
	})
}
