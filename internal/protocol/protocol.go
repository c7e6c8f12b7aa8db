// Package protocol defines the messages WebdamLog peers exchange at the end
// of each computation stage (paper §2: "the peer sends facts (updates) and
// rules (delegations) to other peers"), and their binary wire codec
// (codec.go), which also encodes the payloads a durable outbox persists.
package protocol

import (
	"fmt"

	"repro/internal/ast"
)

// FactDelta is one fact transmission: an insertion (default) or a deletion
// of a fact in a relation at the destination peer.
//
// Maint marks a *maintained* delta: the sender's rule program currently
// derives (insert) or no longer derives (delete) the fact, and will send the
// opposite delta when that changes. At the destination, maintained deltas
// into an intensional relation add or drop per-sender support for the tuple
// (store support bookkeeping) instead of acting like one-shot updates; a
// maintained delete of a tuple that still has another derivation leaves it
// standing. Non-maintained deltas keep their historical meaning: durable
// updates for extensional relations, transient one-stage seeds for
// intensional ones.
type FactDelta struct {
	Delete bool
	Maint  bool
	Fact   ast.Fact
}

// String renders the delta for logs.
func (d FactDelta) String() string {
	if d.Delete {
		return "-" + d.Fact.String()
	}
	return "+" + d.Fact.String()
}

// FactsMsg carries a batch of fact deltas for relations at the destination.
// Deltas for extensional relations are durable updates. Non-maintained
// deltas for intensional relations are transient facts that hold for the
// destination's next stage only; maintained deltas (FactDelta.Maint) add or
// drop standing per-sender support instead.
//
// FactsMsg is the wire unit of atomicity: everything it carries is ingested
// by the destination in a single stage, so senders batching N updates into
// one message get one remote fixpoint instead of up to N.
type FactsMsg struct {
	Ops []FactDelta
}

// Append adds one delta, for accumulating per-destination batches.
func (m *FactsMsg) Append(del bool, f ast.Fact) {
	m.Ops = append(m.Ops, FactDelta{Delete: del, Fact: f})
}

// Len returns the number of deltas carried.
func (m FactsMsg) Len() int { return len(m.Ops) }

// DelegationMsg installs, at the destination, the current residual-rule set
// for one source rule of the sender. It *replaces* any set previously
// delegated by (sender, RuleID) — an empty Rules slice withdraws the
// delegation entirely. This implements the paper's delegation maintenance:
// delegations are recomputed at every stage of the delegating peer.
type DelegationMsg struct {
	RuleID string
	Rules  []ast.Rule
}

// DataMsg wraps a payload with a per-(sender, destination) outbox sequence
// number, starting at 1. It is the unit of the peer layer's at-least-once
// delivery: the sender's outbox retains the message until the destination
// acknowledges it (AckMsg), retransmitting on failure or timeout, and the
// destination applies a sender's DataMsgs strictly in sequence order —
// replays are re-acknowledged without being re-applied, and gaps are dropped
// to be retransmitted — so every wrapped payload is applied exactly once no
// matter how often the transport duplicates, drops or reorders it.
//
// Epoch identifies the sender's message stream: random per outbox instance
// for volatile peers, persisted (and hence stable across restarts) for
// WAL-backed peers. A receiver seeing a new epoch start at Seq 1 adopts it
// with a fresh watermark, so a restarted volatile sender's re-sends are
// applied instead of being misread as replays of the old stream.
type DataMsg struct {
	Epoch uint64
	Seq   uint64
	Msg   Payload
}

// AckMsg acknowledges application of every DataMsg from the ack's receiver
// with sequence number <= Seq (cumulative) in the given stream Epoch.
// Senders ignore acks for epochs they are not running — a stale ack from
// before a restart must not drop entries of the new stream. Acks are
// best-effort: a lost ack merely causes a retransmission, which the
// destination re-acks.
type AckMsg struct {
	Epoch uint64
	Seq   uint64
}

// DigestMsg states the sender's digests of its maintained view at the
// receiver, and always rides the sequenced stream inside a DataMsg, so it is
// current as of its own stream position: the receiver compares it exactly
// when it gets there, whatever was enqueued around it, and a lost one is
// retransmitted like any other entry. Rels maps a receiver relation id to
// range digests of the facts the sender maintains there (its remote view).
//
// With Advert set it is the complete advert — the periodic one, the answer
// to an Advert request, or the end of a restarted stream's repair run: every
// relation the sender maintains at the receiver, each as one digest of the
// full hash range (a relation not listed is empty), plus, per source rule, a
// fingerprint hash of the residual rule set currently delegated to the
// receiver. Each relation's digest is round zero of the ranged-repair
// dialogue, and diverging delegation fingerprints are answered with a
// ResyncRequestMsg. Otherwise it answers one bisection round
// (RangeRequestMsg.Digest): the digests of the requested ranges of one
// relation, and no delegations.
type DigestMsg struct {
	Rels   map[string][]RangeDigest
	Deleg  map[string]uint64
	Advert bool
}

// ResyncRequestMsg asks the message's *receiver* (the stream's sender) for
// help the ranged-repair dialogue does not carry. The plain form says "re-send
// your delegations to me": the requester's installed rule sets disagree with
// the advertised fingerprints, so the sender forgets what it believes it
// delegated there and its next stage re-sends the current residual sets. With
// Reset true the requester cannot follow the stream at all — typically it
// restarted and lost its watermark while the sender's stream is mid-sequence —
// so the sender tears the stream down: fresh per-stream epoch, its maintained
// view as full-range RangeRepairMsgs from sequence 1, a sequenced advert
// after them (it clears what the run cannot state: relations the sender no
// longer maintains), surviving pending entries renumbered behind, delegations
// re-sent. With Advert true the requester adopted a fresh epoch of a known
// sender over whatever ledger it holds and asks for the digest advert now
// rather than at the sender's next period: the comparison repairs what
// differs — nothing at all if the ledger already matches. Requests are idempotent and best-effort; the
// requester rate-limits and re-asks.
type ResyncRequestMsg struct {
	Reset  bool
	Advert bool
}

// HashRange is an inclusive interval [Lo, Hi] on the canonical 64-bit
// key-hash line (store.KeyHash of the tuple key) — the unit the bisection
// dialogue negotiates over. The full range is [0, ^uint64(0)].
type HashRange struct {
	Lo, Hi uint64
}

// RangeDigest is the digest of one hash range of a relation's maintained
// fact set: the XOR fold of the member key hashes in the range plus their
// count, exactly a store.MerkleTree range read. Because the fold is over
// members — not over tree pages — both ends compare any range without
// agreeing on tree shapes.
type RangeDigest struct {
	Lo, Hi uint64
	Hash   uint64
	Count  uint64
}

// RangeRequestMsg is one round of the bisection dialogue, sent by a
// receiver whose ledger disagrees with the sender's digests of one relation:
// it asks the stream's sender to digest the Digest ranges (answered by a
// sequenced DigestMsg) and to re-ship the Repair ranges (answered by
// sequenced RangeRepairMsgs). Unsequenced and best-effort, like every
// request: a lost round is restarted by the next advert.
type RangeRequestMsg struct {
	RelID  string
	Digest []HashRange
	Repair []HashRange
}

// RangeRepairMsg is the one repair message: the authoritative statement "my
// maintained view of RelID, restricted to Ranges, is exactly Ops". It rides
// the sequenced stream, so it is ordered exactly-once against live deltas:
// deltas enqueued before it are already reflected in it, deltas after it
// apply on top. On application the receiver drops ledger support for every
// tuple inside the ranges that Ops does not cover — stale tuples from before
// a crash die here — and applies Ops as maintained inserts: idempotent, and
// safe to apply even if the ranges no longer mismatch. The sender bounds
// every message: a wide range (a whole view is the range [0, ^uint64(0)])
// ships as a run of messages over contiguous hash sub-ranges, each
// self-contained over its own sub-range, so a run cut short leaves every
// range already applied correct and the next advert finishes the rest.
type RangeRepairMsg struct {
	RelID  string
	Ranges []HashRange
	Ops    []FactDelta
}

// ControlKind enumerates control messages.
type ControlKind uint8

// Control message kinds.
const (
	// ControlPing asks the destination to acknowledge liveness (used by the
	// TCP transport's health checks and by tests).
	ControlPing ControlKind = iota
	// ControlPong answers a ping.
	ControlPong
	// ControlBye announces that the sender is shutting down.
	ControlBye
)

// ControlMsg is a transport-level control message.
type ControlMsg struct {
	Kind  ControlKind
	Token uint64
}

// Payload is the interface implemented by all message payloads.
type Payload interface {
	payload()
}

func (FactsMsg) payload()         {}
func (DelegationMsg) payload()    {}
func (ControlMsg) payload()       {}
func (DataMsg) payload()          {}
func (AckMsg) payload()           {}
func (DigestMsg) payload()        {}
func (ResyncRequestMsg) payload() {}
func (RangeRequestMsg) payload()  {}
func (RangeRepairMsg) payload()   {}

// Envelope wraps a payload with routing metadata. Seq is a per-sender
// sequence number; transports deliver envelopes from one sender in Seq
// order (FIFO links, as the paper's TCP channels provide).
type Envelope struct {
	From string
	To   string
	Seq  uint64
	Msg  Payload
}

// String renders the envelope for logs.
func (e Envelope) String() string {
	return fmt.Sprintf("%s->%s #%d %T", e.From, e.To, e.Seq, e.Msg)
}
