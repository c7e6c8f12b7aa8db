// Package webdamlog is the public facade of this reproduction of
// "Rule-Based Application Development using Webdamlog" (SIGMOD 2013): a
// datalog-style language and distributed runtime in which autonomous peers
// exchange both facts and rules (delegations).
//
// # Quick start (v2 API)
//
// Load a multi-peer program, run it to quiescence under a context, and
// query the derived view:
//
//	sys := webdamlog.NewSystem()
//	err := sys.LoadSource(`
//	    peer emilien;
//	    relation extensional pictures@emilien(id, name, owner, data);
//	    pictures@emilien(1, "sea.jpg", "emilien", 0xCAFE);
//
//	    peer jules;
//	    relation extensional selectedAttendee@jules(attendee);
//	    relation intensional attendeePictures@jules(id, name, owner, data);
//	    selectedAttendee@jules("emilien");
//	    attendeePictures@jules($id,$name,$owner,$data) :-
//	        selectedAttendee@jules($attendee),
//	        pictures@$attendee($id,$name,$owner,$data);
//	`)
//	// …
//	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
//	defer cancel()
//	if _, _, err := sys.Run(ctx, 0); err != nil { … }
//	for _, t := range sys.Peer("jules").Query("attendeePictures") {
//	    fmt.Println(t)
//	}
//
// # Atomic batches
//
// N calls to Insert take the peer lock N times, wake the scheduler N times
// and, over TCP, ship N messages. A Batch applies as one unit — one store
// transaction and one fixpoint stage locally, one wire message per remote
// destination:
//
//	b := webdamlog.NewBatch()
//	for _, pic := range pics {
//	    b.Insert(webdamlog.NewFact("pictures", "emilien", pic...))
//	}
//	err := sys.Peer("emilien").Apply(ctx, b)
//
// # Streaming subscriptions
//
// Subscribe streams a relation's changes as they commit — the primitive a
// live UI or serving frontend builds on instead of polling Query:
//
//	deltas, err := sys.Peer("jules").Subscribe(ctx, "attendeePictures")
//	for d := range deltas {
//	    // d.Delete says whether d.Tuple appeared or vanished.
//	}
//
// # Typed errors
//
// Failures wrap the sentinels in errors.go (ErrUnknownRelation, ErrArity,
// ErrPolicyDenied, ErrNoQuiescence, ErrWAL, …); branch on them with
// errors.Is and recover details (e.g. QuiescenceError.Rounds) with
// errors.As.
//
// # Incremental view maintenance
//
// Derived (intensional) relations are materialized and maintained
// incrementally: each stage feeds its base-fact deltas through the
// semi-naive fixpoint machinery, and deletions run an over-delete/rederive
// pass, so retracting one support never kills a tuple with an alternative
// derivation and single-fact updates cost the size of the change rather
// than the size of the database. Remote derivations ship as maintained
// insert/retract deltas with per-sender support tracked at the receiver.
// Wrapper pulls are ordinary ingestion and stay on this path. What still
// recomputes the views from scratch is the first stage, a program change
// (a rule added, removed or replaced, a delegation installed or
// withdrawn), a program with negation through a view, and
// EngineOptions.Incremental turned off (the reference the view_maint
// benchmark workload is checked against). Recompute stages report the same
// exact view deltas, so subscriptions stream alike on both paths. Every peer
// answers provenance questions (Peer.Why, Peer.BaseSupports) on demand from
// the maintained store. See docs/architecture.md.
//
// The deeper layers are available directly: internal/engine (fixpoint
// evaluation and delegation splitting), internal/peer (the stage loop and
// transports), internal/acl (delegation control), internal/wepic (the demo
// application), internal/wrappers with internal/facebook and internal/email
// (the simulated external services).
package webdamlog

import (
	"repro/internal/acl"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/peer"
	"repro/internal/value"
)

// System is an in-process WebdamLog deployment; see internal/core.
type System = core.System

// Peer is one WebdamLog peer; see internal/peer.
type Peer = peer.Peer

// Network is a deterministic in-process peer network.
type Network = peer.Network

// PeerConfig configures a peer created directly on a Network.
type PeerConfig = peer.Config

// Rule, Fact and Program are the WebdamLog AST types.
type (
	Rule    = ast.Rule
	Fact    = ast.Fact
	Program = ast.Program
)

// Value and Tuple are the data model types.
type (
	Value = value.Value
	Tuple = value.Tuple
)

// Batch accumulates inserts and deletes that apply atomically; see
// Peer.Apply and System.Apply.
type Batch = engine.Batch

// Update is one staged fact operation inside a Batch.
type Update = engine.FactOp

// Delta is one streamed change from Peer.Subscribe.
type Delta = peer.Delta

// QuiescenceError is the concrete error behind ErrNoQuiescence; errors.As
// recovers the exhausted round budget.
type QuiescenceError = peer.QuiescenceError

// EngineOptions configures evaluation: incremental view maintenance vs
// per-stage recomputation, and the fixpoint iteration bound.
type EngineOptions = engine.Options

// PeerOption customizes peer creation in a System.
type PeerOption = core.PeerOption

// Re-exported peer options.
var (
	WithPolicy        = core.WithPolicy
	WithEngineOptions = core.WithEngineOptions
	WithWAL           = core.WithWAL
)

// NewSystem creates an empty in-process WebdamLog system.
func NewSystem() *System { return core.NewSystem() }

// NewNetwork creates a bare peer network (lower-level than System).
func NewNetwork() *Network { return peer.NewNetwork() }

// NewBatch creates an empty atomic batch.
func NewBatch() *Batch { return engine.NewBatch() }

// Parse parses a WebdamLog program.
func Parse(src string) (*Program, error) { return parser.Parse(src) }

// ParseRule parses a single rule.
func ParseRule(src string) (Rule, error) { return parser.ParseRule(src) }

// ParseFact parses a single ground fact.
func ParseFact(src string) (Fact, error) { return parser.ParseFact(src) }

// DefaultEngineOptions returns the production evaluation configuration.
func DefaultEngineOptions() EngineOptions { return engine.DefaultOptions() }

// NewTrustPolicy builds the demo's delegation policy: delegations from the
// listed peers are accepted, everything else waits for explicit approval.
func NewTrustPolicy(trusted ...string) *acl.TrustPolicy {
	return acl.NewTrustPolicy(trusted...)
}

// Value constructors.
var (
	Str   = value.Str
	Int   = value.Int
	Float = value.Float
	Bool  = value.Bool
	Blob  = value.Blob
)

// NewFact builds a ground fact rel@peer(args...).
func NewFact(rel, peerName string, args ...Value) Fact {
	return ast.NewFact(rel, peerName, args...)
}
