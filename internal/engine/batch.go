package engine

import "repro/internal/ast"

// Batch accumulates fact operations — inserts and deletes, possibly for
// several relations and several peers — to be applied atomically: one store
// transaction and one fixpoint stage at each destination instead of one
// kick per fact, and one wire message per destination peer instead of one
// per fact. Build it with the fluent Insert/Delete methods and hand it to
// Peer.Apply, which keeps the ops it stages without copying them (see Ops).
//
// A Batch is not safe for concurrent mutation; build it on one goroutine.
type Batch struct {
	ops []FactOp
}

// NewBatch creates an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Insert stages the insertion of f.
func (b *Batch) Insert(f ast.Fact) *Batch {
	b.ops = append(b.ops, FactOp{Op: ast.Derive, Fact: f})
	return b
}

// Delete stages the deletion of f.
func (b *Batch) Delete(f ast.Fact) *Batch {
	b.ops = append(b.ops, FactOp{Op: ast.Delete, Fact: f})
	return b
}

// Add stages an already-built op.
func (b *Batch) Add(op FactOp) *Batch {
	b.ops = append(b.ops, op)
	return b
}

// Len returns the number of staged operations.
func (b *Batch) Len() int { return len(b.ops) }

// Empty reports whether the batch stages nothing.
func (b *Batch) Empty() bool { return len(b.ops) == 0 }

// Ops returns the staged operations in insertion order. The slice is the
// batch's backing array, not a copy: never write through it. Peer.Apply
// hands it over, so after Apply the batch's first Len() ops belong to the
// peer until a stage ingests them; Insert, Delete and Add stay safe
// because they only append.
func (b *Batch) Ops() []FactOp { return b.ops }
