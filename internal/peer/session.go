package peer

import (
	"sync"
	"time"

	"repro/internal/protocol"
	"repro/internal/store"
)

// The stream session layer.
//
// Every ordered peer-to-peer message stream has two halves, and this file
// owns the state of both:
//
//   - sendSession — the sender half of one (this peer → dst) stream: the
//     per-stream epoch, sequence numbering, the unacknowledged entry queue,
//     the destination's cumulative ack floor, flusher/backoff state, and the
//     anti-entropy advert clock. The outbox (outbox.go) is the delivery
//     engine that drives sendSessions; it no longer holds stream state of
//     its own.
//   - inSession — the receiver half of one (src → this peer) stream: the
//     adopted epoch, the applied watermark (exactly-once application), the
//     staged acknowledgment released after durability, the per-sender
//     support ledger (which facts src currently maintains here, per
//     relation, with O(1) digests), and the resync rate limiters.
//
// Epoch adoption, watermark dedup and ack staging — previously inlined
// across peer.go and stage.go — live in inSession.accept/stageAck. The
// ledger and digests are what anti-entropy compares a sender's DigestMsgs
// against and what a RangeRepairMsg replaces, range by range.

// resyncRequestTTL bounds how often a receiver re-asks the same sender for
// repair: a request is best-effort (it can be lost, or its answer can), so
// the receiver re-arms after this long rather than waiting forever — but
// never spams a sender that is already answering.
const resyncRequestTTL = time.Second

// inSession is the receiver half of one (src → this peer) stream session.
// All fields are guarded by the peer's mutex (sessions are only touched
// during ingestion and recovery).
type inSession struct {
	from string

	// Stream state: the sender's adopted epoch and the applied watermark —
	// the highest sequence applied within that epoch. Replays at or below
	// the watermark are re-acked without being re-applied; a new epoch
	// starting at sequence 1 is adopted with a fresh watermark (the sender
	// restarted, or reset the stream for a resync).
	known bool
	epoch uint64
	seq   uint64

	// Staged acknowledgment: set during ingestion, released to the outbox
	// only after everything it certifies (applied facts, the durable
	// watermark) has been synced. Always equals (epoch, seq) when staged.
	ackStaged bool
	ackEpoch  uint64
	ackSeq    uint64

	// Resync rate limiters: when the matching request was last sent.
	// Cleared on progress (stream adoption, repair application).
	// advertWanted is set from the adoption of a fresh epoch until an advert
	// of that epoch has been compared against the ledger: while it is set
	// the sender is asked for one (an Advert repair request, re-sent under
	// the repairAsked limiter), and the comparison it triggers may bypass
	// that limiter once — the stamp rate-limits the *request*, not the
	// repair the requested advert concludes is needed.
	resetAsked   time.Time
	repairAsked  time.Time
	advertWanted bool

	// trees is the per-sender support ledger: the facts src currently
	// maintains at this peer, as one Merkle summary tree of tuple keys per
	// relation id. It mirrors what src's remote view believes this peer
	// holds — including maintained facts in extensional relations — and is
	// the set ranged repairs rewrite. A tree's root is the O(1) digest an
	// advert's full-range digest is compared against, and its range reads
	// answer the bisection dialogue in O(log n).
	trees map[string]*store.MerkleTree
}

func newInSession(from string) *inSession {
	return &inSession{from: from, trees: map[string]*store.MerkleTree{}}
}

// accept runs the stream-acceptance state machine for one sequenced
// message: epoch adoption, watermark dedup, gap detection, ack staging.
// It reports whether the payload should be applied, and whether this
// message adopted a new epoch of an already-known stream — from which on the
// session wants the sender's advert (the previous incarnation may have died
// owing us retractions).
func (s *inSession) accept(msg protocol.DataMsg) (apply, adopted bool) {
	if !s.known {
		// First contact (or first after this peer lost its own state):
		// record the stream. The watermark starts at zero, so only
		// sequence 1 can apply; a mid-stream first contact surfaces as a
		// persistent gap, which the caller repairs with a reset request.
		s.known = true
		s.epoch = msg.Epoch
		s.seq = 0
		s.advertWanted = false
	} else if s.epoch != msg.Epoch {
		if msg.Seq != 1 {
			// A stray from a stale (or not yet adopted) stream.
			return false, false
		}
		// The sender restarted (or reset) its stream: adopt it with a
		// fresh watermark, so its re-sends apply instead of being misread
		// as replays of the old stream.
		s.epoch = msg.Epoch
		s.seq = 0
		s.advertWanted = true
		s.repairAsked = time.Time{} // a dialogue with the old epoch does not delay asking the new one
		adopted = true
	}
	if msg.Seq <= s.seq {
		s.stageAck() // replay: re-ack the watermark without re-applying
		return false, adopted
	}
	if msg.Seq != s.seq+1 {
		return false, adopted // gap: wait for the in-order retransmission
	}
	s.seq = msg.Seq
	s.stageAck()
	s.resetAsked = time.Time{}
	return true, adopted
}

// wedged reports whether a rejected message reveals a stream this session
// can never catch up with on its own: the epoch matches, nothing of it was
// ever applied here, and the sender is already mid-sequence. That is the
// signature of a receiver that lost its state while the sender kept its
// stream — in-order retransmission alone cannot recover, because the
// sender has long dropped the acknowledged prefix.
func (s *inSession) wedged(msg protocol.DataMsg) bool {
	return s.known && s.epoch == msg.Epoch && s.seq == 0 && msg.Seq > 1
}

// stageAck stages the cumulative acknowledgment of the current watermark.
func (s *inSession) stageAck() {
	s.ackStaged = true
	s.ackEpoch = s.epoch
	s.ackSeq = s.seq
}

// ledgerAdd records that the sender maintains the tuple of relID whose
// Tuple.Key is key here. The ledger keeps key itself: pass the one the store
// keeps (Peer.keyOf), and the bytes are stored once.
func (s *inSession) ledgerAdd(relID, key string) {
	tr := s.trees[relID]
	if tr == nil {
		tr = store.NewMerkleTree()
		s.trees[relID] = tr
	}
	tr.Add(key)
}

// ledgerRemove records that the sender no longer maintains the tuple of
// relID whose key is key here, reporting whether it did until now.
func (s *inSession) ledgerRemove(relID, key string) bool {
	tr := s.trees[relID]
	if tr == nil || !tr.Has(key) {
		return false
	}
	tr.Remove(key)
	if tr.Len() == 0 {
		delete(s.trees, relID)
	}
	return true
}

// ledgerHas reports whether the sender maintains the tuple of relID whose
// key is key here.
func (s *inSession) ledgerHas(relID, key string) bool {
	tr := s.trees[relID]
	return tr != nil && tr.Has(key)
}

// ledgerKeys returns the keys of every tuple of relID the sender maintains
// here, in canonical order.
func (s *inSession) ledgerKeys(relID string) []string {
	tr := s.trees[relID]
	if tr == nil {
		return nil
	}
	keys, _ := tr.RangeKeys(fullRange.Lo, fullRange.Hi, 0)
	return keys
}

// ledgerDigest returns the digest of one relation's ledger — a tree root
// read, zero when the sender maintains nothing in the relation.
func (s *inSession) ledgerDigest(relID string) store.Digest {
	if tr := s.trees[relID]; tr != nil {
		return tr.Root()
	}
	return store.Digest{}
}

// rangeDigest digests one hash range of one relation's ledger — the
// receiver half of a bisection comparison.
func (s *inSession) rangeDigest(relID string, lo, hi uint64) store.Digest {
	if tr := s.trees[relID]; tr != nil {
		return tr.RangeDigest(lo, hi)
	}
	return store.Digest{}
}

// repairDue checks and, when due, re-arms the repair-request limiter.
func (s *inSession) repairDue(now time.Time) bool {
	if !s.repairAsked.IsZero() && now.Sub(s.repairAsked) < resyncRequestTTL {
		return false
	}
	s.repairAsked = now
	return true
}

// sendSession is the sender half of one (this peer → dst) stream session:
// the per-stream epoch, the sequence numbers, the unacknowledged entries,
// and the delivery state the outbox's flushers drive. Locking: enqMu
// serializes enqueuers across the assign-seq / persist / publish sequence
// (so the durable log always records an entry before a flusher can
// transmit it, and entries publish in sequence order); mu guards the rest.
type sendSession struct {
	dst string

	enqMu sync.Mutex

	mu sync.Mutex
	// epoch identifies this stream (protocol.DataMsg): it starts as the
	// outbox default (random per incarnation for volatile peers, persisted
	// for WAL-backed ones) and is rotated by Reset when the receiver asks
	// for a fresh stream. Acks carrying another epoch are stale and
	// ignored.
	epoch uint64
	// resets counts stream resets — a generation guard so an in-flight
	// transmission of the old stream cannot mark a renumbered entry sent.
	resets       uint64
	entries      []outEntry // unacked, in sequence order
	nextSeq      uint64     // last assigned sequence number
	acked        uint64     // highest cumulative ack received
	ackEpoch     uint64     // stream epoch of the pending inbound ack
	pendingAck   uint64     // highest inbox seq to acknowledge back to dst (0 = none)
	controls     []protocol.Payload
	flushing     bool          // a flusher (goroutine or inline) is mid-send
	stalled      bool          // the last flush attempt failed
	backoff      time.Duration // current backoff step (doubles per failure)
	nextTry      time.Time     // backoff gate for retries after a failure
	lastAdvert   time.Time     // when the anti-entropy advert clock last fired
	retransmitAt time.Time     // ack deadline: pushed on every data transmission

	// Flow-control state. spaceWait, when non-nil, is closed (and cleared)
	// whenever queue space frees up — blocked EnqueueDataCtx callers wait on
	// it and re-check admission. lastProgress is the shed clock: the last
	// instant the destination acked something, the queue's pending era
	// began, or the stream was reset; a queue with entries but no progress
	// for the configured window is persistently unackable. shedding guards
	// against dispatching a second shed while one is in flight.
	spaceWait    chan struct{}
	lastProgress time.Time
	shedding     bool

	wake chan struct{} // one-slot: new work or ack arrived
}

func (dq *sendSession) signal() {
	select {
	case dq.wake <- struct{}{}:
	default:
	}
}

// notifySpaceLocked releases every blocked admission waiter; dq.mu held.
func (dq *sendSession) notifySpaceLocked() {
	if dq.spaceWait != nil {
		close(dq.spaceWait)
		dq.spaceWait = nil
	}
}
