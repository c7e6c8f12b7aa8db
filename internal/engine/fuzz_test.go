package engine

import (
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

// FuzzEngineStage decodes the fuzz input into batches of base-fact inserts
// and deletes and drives them through a fixed program — transitive closure,
// a builtin-filtered projection, one rule per delegating shape (variable
// peer, constant remote atom mid-body, variable relation and peer resolving
// to a local relation, a builtin or a remote peer; view, remote and
// extensional heads), and remote view rules into the same out@far an event
// rule and a one-shot deletion rule also reach — on production incremental
// maintenance, production recompute and the reference evaluator, requiring
// all three to agree on every relation, delegation and buffered update after
// every batch, the RemoteOut sequence of both production paths to leave
// exactly the reference's remote facts (checkAgainstReference), and both
// production paths to report the same view deltas and ship the same ops.
// This fuzzes the whole execution surface: semi-naive delta walks, DRed
// over-deletion, rederivation, the remote view's two sources and the
// run-time-resolved steps, across arbitrary insert/delete interleavings.
func FuzzEngineStage(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x34, 0x80, 0x12})
	f.Add([]byte{0x01, 0x12, 0x01, 0x21, 0x81, 0x12, 0x01, 0x13, 0x01, 0x32})
	f.Add([]byte{0xff, 0x00, 0x55, 0xaa, 0x0f, 0xf0, 0x33, 0xcc})
	// follows: local, far, then retract local; edges in between.
	f.Add([]byte{0x40, 0x00, 0x01, 0x12, 0x40, 0x01, 0x01, 0x23, 0xc0, 0x00, 0x01, 0x22})
	// kinds: (edge,local), (lt,builtin), (edge,far), then retract the builtin.
	f.Add([]byte{0x20, 0x00, 0x01, 0x12, 0x20, 0x03, 0x01, 0x21, 0x20, 0x02, 0xa0, 0x03, 0x20, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 120 {
			data = data[:120] // bound fixpoint sizes, keep iterations fast
		}
		// Decode: 2 bytes per op. High bit of the first byte selects delete;
		// bit 6 targets follows, bit 5 targets kinds, otherwise edge, whose
		// two attributes the second byte packs into a small domain so joins
		// and collisions actually happen. Batch boundary every 4 ops.
		peers := []string{"local", "far"}
		kinds := [][2]string{{"edge", "local"}, {"reach", "local"}, {"edge", "far"}, {"lt", BuiltinPeer}}
		var batches [][]FactOp
		var cur []FactOp
		for i := 0; i+1 < len(data); i += 2 {
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
		if len(cur) > 0 {
			batches = append(batches, cur)
		}
		if len(batches) == 0 {
			return
		}
		checkAgainstReference(t, "fuzz", fuzzSchemas, nil, mustRules(t,
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
		), batches)
	})
}
