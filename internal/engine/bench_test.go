package engine

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/store"
	"repro/internal/value"
)

func benchEnv(b *testing.B, opts Options) (*Engine, *store.Store) {
	b.Helper()
	db := store.New()
	for _, s := range []store.Schema{
		{Name: "edge", Peer: "local", Kind: ast.Extensional, Cols: []string{"a", "b"}},
		{Name: "tc", Peer: "local", Kind: ast.Intensional, Cols: []string{"a", "b"}},
		{Name: "left", Peer: "local", Kind: ast.Extensional, Cols: []string{"k", "v"}},
		{Name: "right", Peer: "local", Kind: ast.Extensional, Cols: []string{"k", "w"}},
		{Name: "out", Peer: "local", Kind: ast.Intensional, Cols: []string{"v", "w"}},
	} {
		if _, err := db.Declare(s); err != nil {
			b.Fatal(err)
		}
	}
	return New("local", db, opts), db
}

func benchRules(b *testing.B, e *Engine, srcs ...string) *Program {
	b.Helper()
	rules := make([]ast.Rule, len(srcs))
	for i, src := range srcs {
		r, err := parseRuleForBench(src)
		if err != nil {
			b.Fatal(err)
		}
		r.ID = fmt.Sprintf("r%d", i)
		rules[i] = r
	}
	prog, err := e.CompileProgram(rules)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func BenchmarkCompileRule(b *testing.B) {
	e, _ := benchEnv(b, DefaultOptions())
	r, err := parseRuleForBench(`tc@local($x,$z) :- tc@local($x,$y), edge@local($y,$z);`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.CompileRule(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinStage(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			e, db := benchEnv(b, DefaultOptions())
			l, r := db.MustGet("left", "local"), db.MustGet("right", "local")
			for i := 0; i < n; i++ {
				l.Insert(value.Tuple{value.Int(int64(i)), value.Int(int64(i * 3))})
				r.Insert(value.Tuple{value.Int(int64(i)), value.Int(int64(i * 5))})
			}
			prog := benchRules(b, e, `out@local($v,$w) :- left@local($k,$v), right@local($k,$w);`)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.ClearIntensional()
				res := e.RunStage(prog)
				if res.Derived != n {
					b.Fatalf("derived %d, want %d", res.Derived, n)
				}
			}
		})
	}
}

func BenchmarkTCStage(b *testing.B) {
	e, db := benchEnv(b, DefaultOptions())
	edge := db.MustGet("edge", "local")
	for i := 0; i < 200; i++ {
		edge.Insert(value.Tuple{value.Int(int64(i)), value.Int(int64(i + 1))})
	}
	prog := benchRules(b, e,
		`tc@local($x,$y) :- edge@local($x,$y);`,
		`tc@local($x,$z) :- tc@local($x,$y), edge@local($y,$z);`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ClearIntensional()
		e.RunStage(prog)
	}
}

func BenchmarkDelegationSplitStage(b *testing.B) {
	e, db := benchEnv(b, DefaultOptions())
	edge := db.MustGet("edge", "local")
	for i := 0; i < 1_000; i++ {
		edge.Insert(value.Tuple{value.Str(fmt.Sprintf("peer%d", i%50)), value.Int(int64(i))})
	}
	prog := benchRules(b, e, `sink@local($x) :- edge@local($p,$i), data@$p($x);`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ClearIntensional()
		res := e.RunStage(prog)
		if len(delegations(b, res)["r0"]) != 50 {
			b.Fatalf("delegation targets = %d, want 50", len(delegations(b, res)["r0"]))
		}
	}
}

func parseRuleForBench(src string) (ast.Rule, error) {
	return parser.ParseRule(src)
}
