// Package core assembles the WebdamLog system of the paper: a set of
// autonomous peers, each running the rule engine over its own store,
// exchanging facts and delegations through a transport. It is the primary
// public surface of this reproduction; the root webdamlog package re-exports
// it together with the supporting types.
//
// A System hosts any number of in-process peers (the demo's "launch
// everything on one machine" mode — attendees' laptops plus the Webdam
// cloud peer are simulated as goroutine-isolated peers on one bus). For
// genuinely distributed deployments, create peers directly over the TCP
// transport; see cmd/wdl.
package core

import (
	"context"
	"fmt"

	"repro/internal/acl"
	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/errdefs"
	"repro/internal/parser"
	"repro/internal/peer"
)

// System is an in-process WebdamLog deployment.
type System struct {
	net *peer.Network
}

// NewSystem creates an empty system.
func NewSystem() *System {
	return &System{net: peer.NewNetwork()}
}

// Network exposes the underlying peer network (scheduling, bus statistics).
func (s *System) Network() *peer.Network { return s.net }

// PeerOption customizes peer creation.
type PeerOption func(*peer.Config)

// WithPolicy sets the peer's delegation-control policy.
func WithPolicy(p acl.Policy) PeerOption {
	return func(s *peer.Config) { s.Policy = p }
}

// WithEngineOptions overrides evaluation options (per-stage recomputation
// instead of incremental maintenance, the iteration bound).
func WithEngineOptions(o engine.Options) PeerOption {
	return func(s *peer.Config) { s.Engine = &o }
}

// WithWAL makes the peer durable: state is logged to dir and recovered from
// it at creation. If the log cannot be opened, AddPeer fails with an error
// wrapping errdefs.ErrWAL — a peer configured for durability never silently
// comes up volatile. An empty dir leaves the peer volatile.
func WithWAL(dir string) PeerOption {
	return func(s *peer.Config) { s.WAL = dir }
}

// AddPeer creates a peer named name in the system.
func (s *System) AddPeer(name string, opts ...PeerOption) (*peer.Peer, error) {
	cfg := peer.Config{Name: name}
	for _, o := range opts {
		o(&cfg)
	}
	return s.net.NewPeer(cfg)
}

// Peer returns the peer named name, or nil.
func (s *System) Peer(name string) *peer.Peer { return s.net.Peer(name) }

// Peers returns all peers in name order.
func (s *System) Peers() []*peer.Peer { return s.net.Peers() }

// LoadSource parses a multi-peer program and applies it. Statements are
// scoped by the most recent `peer <name>;` declaration: relation
// declarations, facts and rules following it belong to that peer. Peers are
// created on first mention. Facts whose relation lives at another peer are
// still routed correctly (they are sent as updates), and rules always run
// at the peer that declares them, exactly as in the paper's model.
//
// Example:
//
//	peer emilien;
//	relation extensional pictures@emilien(id, name, owner, data);
//	pictures@emilien(1, "sea.jpg", "emilien", 0xFF);
//
//	peer jules;
//	relation intensional attendeePictures@jules(id, name, owner, data);
//	attendeePictures@jules($i,$n,$o,$d) :- selectedAttendee@jules($a), pictures@$a($i,$n,$o,$d);
func (s *System) LoadSource(src string) error {
	prog, err := parser.Parse(src)
	if err != nil {
		return err
	}
	return s.LoadProgram(prog)
}

// LoadProgram applies a parsed multi-peer program; see LoadSource.
func (s *System) LoadProgram(prog *ast.Program) error {
	var current *peer.Peer
	ensure := func(name string) (*peer.Peer, error) {
		if p := s.net.Peer(name); p != nil {
			return p, nil
		}
		return s.AddPeer(name)
	}
	for _, stmt := range prog.Statements {
		switch st := stmt.(type) {
		case ast.PeerDecl:
			p, err := ensure(st.Name)
			if err != nil {
				return err
			}
			current = p
		case ast.RelationDecl:
			owner, err := ensure(st.Peer)
			if err != nil {
				return err
			}
			if err := owner.DeclareRelation(st.Name, st.Kind, st.Cols...); err != nil {
				return err
			}
		case ast.Fact:
			target := current
			if target == nil || st.Peer != target.Name() {
				var err error
				target, err = ensure(st.Peer)
				if err != nil {
					return err
				}
			}
			if err := target.Insert(st); err != nil {
				return err
			}
		case ast.Rule:
			target := current
			if target == nil {
				// No peer context: a rule with a constant head peer runs there.
				if st.Head.Peer.IsVar() {
					return fmt.Errorf("core: rule %q needs a `peer` declaration to know where it runs", st.String())
				}
				var err error
				target, err = ensure(st.Head.Peer.Val.StringVal())
				if err != nil {
					return err
				}
			}
			if _, err := target.AddRuleAST(st); err != nil {
				return err
			}
		default:
			return fmt.Errorf("core: unknown statement type %T", stmt)
		}
	}
	return nil
}

// Run drives every peer until the system quiesces (no peer has work, no
// message is in flight), bounded by maxRounds (<=0 uses the default). It
// returns the number of scheduler rounds and stages executed.
//
// The context is honored between peer stages: cancellation or a deadline
// makes Run return promptly with the context's error (typically
// context.Canceled or context.DeadlineExceeded); hitting the round budget
// returns an error matching errdefs.ErrNoQuiescence.
func (s *System) Run(ctx context.Context, maxRounds int) (rounds, stages int, err error) {
	return s.net.RunToQuiescence(ctx, maxRounds)
}

// MustRun is Run for examples and tests: it panics if the system fails to
// quiesce.
func (s *System) MustRun() {
	if _, _, err := s.Run(context.Background(), 0); err != nil {
		panic(err)
	}
}

// Apply routes a batch through the owning peers: operations are grouped by
// destination and each group is applied atomically at its peer (see
// peer.Apply). Unknown local peers fail with errdefs.ErrUnknownPeer.
func (s *System) Apply(ctx context.Context, b *engine.Batch) error {
	if b == nil || b.Empty() {
		return nil
	}
	// Hand the whole batch to the first named peer; peer.Apply routes
	// remote shares itself, one message per destination.
	var origin *peer.Peer
	for _, op := range b.Ops() {
		if p := s.net.Peer(op.Fact.Peer); p != nil {
			origin = p
			break
		}
	}
	if origin == nil {
		return fmt.Errorf("core: %w: no batch destination is registered", errdefs.ErrUnknownPeer)
	}
	return origin.Apply(ctx, b)
}
