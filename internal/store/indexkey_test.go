package store

import (
	"math"
	"testing"

	"repro/internal/ast"
	"repro/internal/value"
)

// refIndexKey is the index-bucket key convention spelled out: the canonical
// keys of the masked columns, appended in ascending column order.
func refIndexKey(t value.Tuple, mask ColMask) string {
	var dst []byte
	for c, v := range t {
		if mask.Has(c) {
			dst = v.AppendKey(dst)
		}
	}
	return string(dst)
}

// TestIndexKeyMatchesEncoding checks indexKey against refIndexKey for every
// mask of every tuple of arity 0 to 6 over a table of mixed kinds: the
// substring taken for a contiguous mask and the encoding built for any other
// must both be the convention's bytes exactly.
func TestIndexKeyMatchesEncoding(t *testing.T) {
	kinds := []value.Value{
		value.Str(""), value.Blob([]byte{0, 9}), value.Int(-3),
		value.Float(math.NaN()), value.Bool(true),
	}
	for arity := 0; arity <= 6; arity++ {
		tp := make(value.Tuple, arity)
		var fill func(c int)
		fill = func(c int) {
			if c < arity {
				for _, v := range kinds {
					tp[c] = v
					fill(c + 1)
				}
				return
			}
			key := tp.Key()
			for mask := ColMask(0); mask < 1<<arity; mask++ {
				if got, want := indexKey(tp, key, mask), refIndexKey(tp, mask); got != want {
					t.Fatalf("%v mask %b: indexKey %x, want %x", tp, mask, got, want)
				}
			}
		}
		fill(0)
	}
}

// TestSingleColumnIndexesAllocateNothing inserts and deletes a tuple whose
// index buckets already exist with room to spare (no bucket growth): three
// single-column indexes must cost no allocation over an unindexed relation,
// their bucket keys being substrings of the stored key.
func TestSingleColumnIndexesAllocateNothing(t *testing.T) {
	allocs := func(indexed bool) float64 {
		r := NewRelation(Schema{Name: "r", Peer: "p", Kind: ast.Extensional, Cols: GenericCols(3)})
		if indexed {
			for c := 0; c < 3; c++ {
				r.EnsureIndex(MaskOf(c))
			}
		}
		x := value.Tuple{value.Int(1), value.Str("b"), value.Int(3)}
		r.Insert(value.Tuple{value.Int(1), value.Str("b"), value.Int(4)}) // shares x's columns 0 and 1
		r.Insert(value.Tuple{value.Int(5), value.Str("f"), value.Int(3)}) // shares x's column 2
		r.Insert(x)                                                       // grows x's buckets once
		r.Delete(x)
		return testing.AllocsPerRun(100, func() {
			r.Insert(x)
			r.Delete(x)
		})
	}
	plain, indexed := allocs(false), allocs(true)
	if indexed > plain {
		t.Errorf("insert+delete allocates %v with three single-column indexes, %v with none", indexed, plain)
	}
	t.Logf("insert+delete: %v allocations indexed, %v unindexed", indexed, plain)
}
