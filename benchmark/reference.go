package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/peer"
)

// batchOf builds one atomic batch inserting facts.
func batchOf(facts []ast.Fact) *engine.Batch {
	b := engine.NewBatch()
	for _, f := range facts {
		b.Insert(f)
	}
	return b
}

// oneOp builds the one-fact batch that inserts or deletes f.
func oneOp(f ast.Fact, del bool) *engine.Batch {
	if del {
		return engine.NewBatch().Delete(f)
	}
	return engine.NewBatch().Insert(f)
}

// peerProgram is one peer's name and program text.
type peerProgram struct {
	name, source string
}

// replica is a second copy of a deployment's programs on a fresh
// sequential network, loaded with a given set of base facts and stepped to
// quiescence by the benchmark itself, so every StageReport is in hand.
type replica struct {
	net *peer.Network
	// built are the reports of the stages that loaded the base facts; the
	// first stage of each peer is its from-scratch build.
	built []*peer.StageReport
}

// newReference builds the ROADMAP's sequential naive-recompute reference: a
// replica whose engines rebuild every view from scratch each stage
// (Incremental off). Whatever the measured deployment did — TCP, WAL,
// incremental maintenance, concurrent scheduling, interning — its relations
// must equal the reference's.
func newReference(ctx context.Context, programs []peerProgram, facts []ast.Fact) (*replica, error) {
	opts := engine.DefaultOptions()
	opts.Incremental = false
	return newReplica(ctx, programs, facts, opts)
}

func newReplica(ctx context.Context, programs []peerProgram, facts []ast.Fact, opts engine.Options) (*replica, error) {
	ref := &replica{net: peer.NewSequentialNetwork()}
	for _, pp := range programs {
		p, err := ref.net.NewPeer(peer.Config{Name: pp.name, Engine: &opts, ResyncInterval: -1})
		if err != nil {
			ref.close()
			return nil, err
		}
		if err := p.LoadSource(pp.source); err != nil {
			ref.close()
			return nil, fmt.Errorf("replica: peer %s: %w", pp.name, err)
		}
	}
	if err := ref.load(ctx, facts); err != nil {
		ref.close()
		return nil, err
	}
	return ref, nil
}

// load applies facts at the peers that own them and runs to quiescence.
func (ref *replica) load(ctx context.Context, facts []ast.Fact) error {
	byPeer := map[string][]ast.Fact{}
	for _, f := range facts {
		byPeer[f.Peer] = append(byPeer[f.Peer], f)
	}
	for name, fs := range byPeer {
		p := ref.net.Peer(name)
		if p == nil {
			return fmt.Errorf("replica: fact for unknown peer %s", name)
		}
		if err := p.Apply(ctx, batchOf(fs)); err != nil {
			return fmt.Errorf("replica: %w", err)
		}
	}
	for {
		reps := ref.net.StageAll()
		if len(reps) == 0 {
			break
		}
		ref.built = append(ref.built, reps...)
	}
	if _, _, err := ref.net.RunToQuiescence(ctx, 0); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	return nil
}

// compare checks the named relations of the live peer against the
// reference peer of the same name, by row count and content fingerprint.
func (ref *replica) compare(live *peer.Peer, name string, rels ...string) (checked, bad int) {
	want := ref.net.Peer(name)
	for _, rel := range rels {
		checked++
		got, exp := live.Store().Get(rel, name), want.Store().Get(rel, name)
		switch {
		case got == nil || exp == nil:
			bad++
			fmt.Fprintf(os.Stderr, "benchmark: reference mismatch: %s@%s is not declared on both sides\n", rel, name)
		case got.Len() != exp.Len() || got.Fingerprint() != exp.Fingerprint():
			bad++
			fmt.Fprintf(os.Stderr, "benchmark: reference mismatch: %s@%s has %d rows (fingerprint %x), reference %d (%x)\n",
				rel, name, got.Len(), got.Fingerprint(), exp.Len(), exp.Fingerprint())
		}
	}
	return checked, bad
}

func (ref *replica) close() {
	for _, p := range ref.net.Peers() {
		p.Close()
	}
}
