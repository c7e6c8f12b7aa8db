package peer

import (
	"slices"
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
//     the destination's cumulative ack floor, and the stream's four clocks
//     (backoff gate, ack deadline, advert period, shed window). The outbox
//     (outbox.go) is the delivery engine that drives sendSessions; it holds
//     no stream state of its own.
//   - inSession — the receiver half of one (src → this peer) stream: the
//     adopted epoch, the applied watermark (exactly-once application), the
//     staged acknowledgment released after durability, the per-sender
//     support ledger (which facts src currently maintains here, per
//     relation, with O(1) digests), and the resync request limiters.
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

	// Resync request limiters, one per kind of request. Cleared on progress
	// (stream adoption, repair application).
	// advertWanted is set from the adoption of a fresh epoch until an advert
	// of that epoch has been compared against the ledger: while it is set
	// the sender is asked for one (an Advert repair request, re-sent under
	// the repairAsked limiter), and the comparison it triggers may bypass
	// that limiter once — the stamp rate-limits the *request*, not the
	// repair the requested advert concludes is needed.
	resetAsked   limiter
	repairAsked  limiter
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
// It reports whether the payload should be applied. Adopting a new epoch of
// an already-known stream makes the session want the sender's advert (the
// previous incarnation may have died owing us retractions).
func (s *inSession) accept(msg protocol.DataMsg) bool {
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
			return false
		}
		// The sender restarted (or reset) its stream: adopt it with a
		// fresh watermark, so its re-sends apply instead of being misread
		// as replays of the old stream.
		s.epoch = msg.Epoch
		s.seq = 0
		s.advertWanted = true
		s.repairAsked = limiter{} // a dialogue with the old epoch does not delay asking the new one
	}
	if msg.Seq <= s.seq {
		s.stageAck() // replay: re-ack the watermark without re-applying
		return false
	}
	if msg.Seq != s.seq+1 {
		return false // gap: wait for the in-order retransmission
	}
	s.seq = msg.Seq
	s.stageAck()
	s.resetAsked = limiter{}
	return true
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

// rangeDigest digests one hash range of one relation's ledger — the
// receiver half of a bisection comparison.
func (s *inSession) rangeDigest(relID string, lo, hi uint64) store.Digest {
	if tr := s.trees[relID]; tr != nil {
		return tr.RangeDigest(lo, hi)
	}
	return store.Digest{}
}

// limiter rate-limits one kind of best-effort request to a sender to one per
// resyncRequestTTL. The zero limiter lets the next request go at once.
type limiter struct{ at time.Time }

// due reports whether a request may go at now, and if so arms the limiter.
func (l *limiter) due(now time.Time) bool {
	if !l.at.IsZero() && now.Sub(l.at) < resyncRequestTTL {
		return false
	}
	l.at = now
	return true
}

// timing is the delivery tuning shared by every send session of one outbox;
// tests shrink it for fast fault convergence.
type timing struct {
	ackTimeout  time.Duration // retransmit what is still unacked this long after the last transmission
	baseBackoff time.Duration // the backoff after a first failed flush
	maxBackoff  time.Duration // the cap of the doubling backoff
	resyncEvery time.Duration // the anti-entropy advert period (0 = no adverts)
	shedAfter   time.Duration // the shed window (0 = never shed)
}

// sendSession is the sender half of one (this peer → dst) stream session and
// the one place where its delivery is decided: the per-stream epoch, the
// sequence numbers, the unacknowledged entries, and four clocks.
//
//   - The backoff gate (nextTry): after a failed flush nothing is sent
//     before it; each consecutive failure doubles the step up to maxBackoff
//     (failed). A flush that goes through, or an ack, clears it.
//   - The ack deadline (retransmitAt): ackTimeout after the last
//     transmission, entries still unacked are sent again (due).
//   - The advert period (advertAt): every resyncEvery an anti-entropy advert
//     joins the stream, unless one is still pending (advertDue).
//   - The shed window (lastProgress): a queue with entries and no ack
//     progress for shedAfter, counted from the start of its pending era or
//     from its last reset, is shed (due).
//
// The methods take the current time and are called with mu held; the
// outbox (outbox.go) only drives them. Locking: enqMu serializes enqueuers
// across the assign-seq / persist / publish sequence (so the durable log
// always records an entry before a flusher can transmit it, and entries
// publish in sequence order); mu guards the rest.
type sendSession struct {
	dst string
	t   *timing

	enqMu sync.Mutex

	mu sync.Mutex
	// epoch identifies this stream (protocol.DataMsg): it starts as the
	// outbox default (random per incarnation for volatile peers, persisted
	// for WAL-backed ones) and is rotated by reset when the receiver asks
	// for a fresh stream. Acks carrying another epoch are stale and
	// ignored.
	epoch uint64
	// resets counts stream resets — a generation guard so an in-flight
	// transmission of the old stream cannot mark a renumbered entry sent.
	resets     uint64
	entries    []outEntry // unacked, in sequence order
	nextSeq    uint64     // last assigned sequence number
	acked      uint64     // highest cumulative ack received
	ackEpoch   uint64     // stream epoch of the pending inbound ack
	pendingAck uint64     // highest inbox seq to acknowledge back to dst (0 = none)
	controls   []protocol.Payload
	flushing   bool  // a flusher (goroutine or inline) is mid-send
	space      space // blocked admissions (outbox.enqueue) wait here

	backoff      time.Duration // current backoff step (0 after a flush that went through)
	nextTry      time.Time     // backoff gate; nonzero while the last flush attempt counts as failed
	retransmitAt time.Time     // ack deadline
	advertAt     time.Time     // when the next advert is due
	lastProgress time.Time     // start of the shed window

	wake chan struct{} // one-slot: new work or ack arrived
}

func newSendSession(dst string, t *timing, epoch uint64, now time.Time) *sendSession {
	return &sendSession{
		dst:      dst,
		t:        t,
		epoch:    epoch,
		advertAt: now.Add(t.resyncEvery), // first advert one period after first contact
		wake:     make(chan struct{}, 1),
	}
}

func (dq *sendSession) signal() {
	select {
	case dq.wake <- struct{}{}:
	default:
	}
}

// enqueue appends msg as the stream's next sequence number and returns it.
// An entry that finds the queue empty starts a pending era, from which the
// shed window counts; fresh work also opens the backoff gate for a fresh
// attempt.
func (dq *sendSession) enqueue(now time.Time, msg protocol.Payload) uint64 {
	if len(dq.entries) == 0 {
		dq.lastProgress = now
	}
	dq.nextSeq++
	dq.entries = append(dq.entries, outEntry{seq: dq.nextSeq, msg: msg})
	dq.nextTry = time.Time{}
	return dq.nextSeq
}

// unsent returns the index of the first entry not yet transmitted in this
// cycle, or -1.
func (dq *sendSession) unsent() int {
	for i := range dq.entries {
		if !dq.entries[i].sent {
			return i
		}
	}
	return -1
}

// sent records the transmission of seq, taken in stream generation gen, and
// restarts the ack deadline.
func (dq *sendSession) sent(now time.Time, gen, seq uint64) {
	if dq.resets == gen {
		for i := range dq.entries {
			if dq.entries[i].seq == seq {
				dq.entries[i].sent = true
				break
			}
		}
	}
	dq.retransmitAt = now.Add(dq.t.ackTimeout)
}

// resend marks every entry for transmission again, oldest first (the
// receiver dedups replays).
func (dq *sendSession) resend() {
	for i := range dq.entries {
		dq.entries[i].sent = false
	}
}

// failed closes the backoff gate after a failed flush: the step starts at
// baseBackoff and doubles per consecutive failure up to maxBackoff. A
// failure invalidates the cycle, so everything is sent again once the link
// recovers.
func (dq *sendSession) failed(now time.Time) {
	dq.backoff = min(max(2*dq.backoff, dq.t.baseBackoff), dq.t.maxBackoff)
	dq.nextTry = now.Add(dq.backoff)
	dq.resend()
}

// succeeded opens the backoff gate after a flush that went through.
func (dq *sendSession) succeeded() {
	dq.backoff = 0
	dq.nextTry = time.Time{}
}

// idle reports whether a flush at now has nothing to do: no entry awaits
// transmission in this cycle, no ack or control is staged, and no advert is
// due.
func (dq *sendSession) idle(now time.Time) bool {
	return dq.pendingAck == 0 && len(dq.controls) == 0 && dq.unsent() < 0 &&
		(dq.t.resyncEvery <= 0 || now.Before(dq.advertAt))
}

// gated reports whether the backoff gate holds sends back at now.
func (dq *sendSession) gated(now time.Time) bool { return now.Before(dq.nextTry) }

// stalled reports whether the last flush attempt failed and neither fresh
// work nor an ack has come since: the queue is retrying under backoff.
func (dq *sendSession) stalled() bool { return !dq.nextTry.IsZero() }

// ack applies a cumulative acknowledgment from dst and returns how many
// entries it delivered: those of the current epoch up to seq. An ack of
// another epoch is stale (sent for a stream a previous incarnation of this
// peer, or this stream before a reset, was running) and must not drop
// entries of the current stream. Progress is evidence the link works: it
// clears the backoff and restarts the shed window.
func (dq *sendSession) ack(now time.Time, epoch, seq uint64) int {
	if epoch != dq.epoch {
		return 0
	}
	dq.acked = max(dq.acked, seq)
	n := 0
	for n < len(dq.entries) && dq.entries[n].seq <= seq {
		n++
	}
	if n > 0 {
		dq.entries = slices.Delete(dq.entries, 0, n)
		dq.succeeded()
		dq.lastProgress = now
	}
	return n
}

// stageAck schedules a cumulative acknowledgment of dst's stream (epoch) up
// to seq. Acks coalesce: only the highest sequence of the newest epoch is
// kept.
func (dq *sendSession) stageAck(epoch, seq uint64) {
	if epoch != dq.ackEpoch {
		dq.ackEpoch, dq.pendingAck = epoch, seq
	} else {
		dq.pendingAck = max(dq.pendingAck, seq)
	}
}

// ackSent clears the staged acknowledgment once (epoch, seq) has been sent,
// unless another was staged meanwhile — a new epoch's ack can carry the same
// sequence number as the old epoch's.
func (dq *sendSession) ackSent(epoch, seq uint64) {
	if dq.ackEpoch == epoch && dq.pendingAck == seq {
		dq.pendingAck = 0
	}
}

// advertDue checks, and when the period has elapsed re-arms, the advert
// clock. A period in which an advert still awaits its ack passes without
// another: an unreachable destination holds one, not one per period.
func (dq *sendSession) advertDue(now time.Time) bool {
	if dq.t.resyncEvery <= 0 || now.Before(dq.advertAt) {
		return false
	}
	dq.advertAt = now.Add(dq.t.resyncEvery)
	return !slices.ContainsFunc(dq.entries, func(e outEntry) bool {
		m, ok := e.msg.(protocol.DigestMsg)
		return ok && m.Advert
	})
}

// reset restarts the stream under a fresh epoch. firsts become sequences
// 1..n; the pending backlog is dropped, or renumbered behind them except
// for digests, which describe a stream position the reset discards. Every
// clock restarts.
func (dq *sendSession) reset(now time.Time, epoch uint64, firsts []protocol.Payload, drop bool) {
	entries := make([]outEntry, 0, len(dq.entries)+len(firsts))
	for _, msg := range firsts {
		entries = append(entries, outEntry{seq: uint64(len(entries)) + 1, msg: msg})
	}
	if !drop {
		for _, e := range dq.entries {
			if _, ok := e.msg.(protocol.DigestMsg); !ok {
				entries = append(entries, outEntry{seq: uint64(len(entries)) + 1, msg: e.msg})
			}
		}
	}
	dq.epoch = epoch
	dq.resets++
	dq.entries = entries
	dq.nextSeq = uint64(len(entries))
	dq.acked = 0
	dq.succeeded()
	dq.retransmitAt = time.Time{}
	dq.advertAt = now.Add(dq.t.resyncEvery)
	dq.lastProgress = now
}

// dueSet is what a send session's clocks call for at one instant.
type dueSet struct {
	flush      bool      // unsent entries, an ack or controls wait, and the gate is open
	advert     bool      // the advert period has elapsed, and the gate is open
	retransmit bool      // every entry was sent, and the ack deadline has passed
	shed       bool      // the shed window has passed without progress
	next       time.Time // the earliest deadline still ahead (zero: none)
}

// due says what the session's clocks call for at now, and when they next
// will. The backoff gate holds back everything but the shed: a destination
// unreachable for the whole window is the very case shedding exists for.
func (dq *sendSession) due(now time.Time) (d dueSet) {
	at := func(deadline time.Time) bool {
		if now.Before(deadline) {
			if d.next.IsZero() || deadline.Before(d.next) {
				d.next = deadline
			}
			return false
		}
		return true
	}
	if dq.t.shedAfter > 0 && len(dq.entries) > 0 {
		d.shed = at(dq.lastProgress.Add(dq.t.shedAfter))
	}
	if at(dq.nextTry) {
		d.flush = dq.unsent() >= 0 || dq.pendingAck > 0 || len(dq.controls) > 0
		d.retransmit = !d.flush && len(dq.entries) > 0 && at(dq.retransmitAt)
		d.advert = dq.t.resyncEvery > 0 && at(dq.advertAt)
	}
	return d
}
