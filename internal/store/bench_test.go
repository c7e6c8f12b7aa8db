package store

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/value"
)

func benchRelation(n int) *Relation {
	r := NewRelation(Schema{Name: "r", Peer: "p", Kind: ast.Extensional, Cols: []string{"k", "v"}})
	for i := 0; i < n; i++ {
		r.Insert(value.Tuple{value.Int(int64(i % (n / 10))), value.Int(int64(i))})
	}
	return r
}

func BenchmarkRelationInsert(b *testing.B) {
	r := NewRelation(Schema{Name: "r", Peer: "p", Kind: ast.Extensional, Cols: []string{"k", "v"}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Insert(value.Tuple{value.Int(int64(i)), value.Int(int64(i))})
	}
}

func BenchmarkRelationContains(b *testing.B) {
	r := benchRelation(100_000)
	probe := value.Tuple{value.Int(50), value.Int(500)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Contains(probe)
	}
}

func BenchmarkRelationIndexedLookup(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			r := benchRelation(n)
			r.EnsureIndex(MaskOf(0))
			key := value.Int(7).AppendKey(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				count := 0
				r.Probe(MaskOf(0), key, func(value.Tuple) bool { count++; return true })
			}
		})
	}
}

func BenchmarkRelationScanLookup(b *testing.B) {
	r := benchRelation(10_000)
	want := value.Int(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		r.Iterate(func(t value.Tuple) bool {
			if t[0].Equal(want) {
				count++
			}
			return true
		})
	}
}

func BenchmarkWALAppend(b *testing.B) {
	w, err := OpenWAL(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	t := value.Tuple{value.Int(1), value.Str("payload")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.LogMany(false, "r", "p", []value.Tuple{t}); err != nil {
			b.Fatal(err)
		}
	}
}
