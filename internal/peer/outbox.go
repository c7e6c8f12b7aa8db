package peer

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/errdefs"
	"repro/internal/protocol"
	"repro/internal/store"
	"repro/internal/transport"
)

// The outbox is the peer's durable boundary between stage commits and the
// network: stages enqueue sequence-numbered envelopes (facts, delegations,
// withdrawals) and commit immediately; delivery happens out of band, off the
// peer lock, with retry and backoff, until the destination acknowledges the
// sequence number. Together with the receiver-side dedup in ingestion this
// gives at-least-once delivery with exactly-once application — the
// correctness obligation that delta shipping (PR 2) created.
//
// Stream state itself — the per-destination epoch, sequence numbers, entry
// queue, ack floor — lives in sendSession (session.go); the outbox is the
// delivery engine that creates and drives the sessions. Two flush modes:
//
//   - async (the default): one flusher goroutine per destination drains the
//     queue, retransmits unacked entries after ackTimeout, and backs off
//     exponentially while the destination is unreachable. Stage latency is
//     thereby decoupled from destination RTT and dial stalls
//     (TestStageCommitDoesNotWaitForLink).
//   - sync (Config.SyncEmit, used by NewSequentialNetwork): no goroutines;
//     the queue is flushed synchronously at the end of every RunStage and
//     by the network scheduler, which keeps in-process multi-peer tests
//     deterministic. Failed entries stay queued and are retried at the next
//     flush.
//
// Entries with a sequence number are retained until acked. Control traffic
// (acks of the peer's own inbox, pongs, resync and range requests) is
// best-effort: sent after the data flush, dropped on failure (the protocol
// regenerates it). Nothing else travels outside a DataMsg: the anti-entropy
// advert clock (resyncEvery) lives here, but the advert it triggers is a
// sequenced entry like any other.

// outboxDefaults tuning; tests shrink these for fast fault convergence.
const (
	defaultAckTimeout  = 200 * time.Millisecond
	defaultBaseBackoff = 10 * time.Millisecond
	defaultMaxBackoff  = 2 * time.Second
	defaultSendTimeout = 10 * time.Second
)

// outEntry is one sequenced payload awaiting acknowledgment.
type outEntry struct {
	seq  uint64
	msg  protocol.Payload
	sent bool // transmitted in the current cycle (cleared to retransmit)
}

// outbox owns every send session of one peer.
type outbox struct {
	ep   transport.Endpoint
	ctx  context.Context // peer lifetime: cancellation stops flushers and aborts dials
	sync bool            // Config.SyncEmit: no flusher goroutines

	// defaultEpoch is the epoch new streams start in: random per instance
	// for volatile peers, overridden with the persisted value for WAL-backed
	// peers. A stream reset (anti-entropy repair) rotates the affected
	// session away from it.
	defaultEpoch uint64

	ackTimeout  time.Duration
	baseBackoff time.Duration
	maxBackoff  time.Duration
	sendTimeout time.Duration

	// resyncEvery is the anti-entropy advert period (0 = disabled):
	// roughly every resyncEvery per destination, the flush cycle asks
	// onDigest to enqueue an advert of the maintained view, unless one is
	// still awaiting its ack. The peer's callback reports whether it
	// enqueued one (there may be nothing to advertise).
	resyncEvery time.Duration
	onDigest    func(dst string) bool

	// Flow control. limit bounds each destination's unacknowledged entry
	// queue for admission-controlled enqueues (EnqueueDataCtx — the Apply
	// path); 0 = unbounded. Stage emissions (EnqueueData) are exempt: a
	// committed fixpoint's maintained deltas are already reflected in the
	// remote view and must reach the stream unconditionally, so a queue can
	// temporarily overshoot the limit by a stage's worth of output — the
	// bound is on API-driven intake, which is where unbounded growth
	// originates. failFast selects rejection (ErrBackpressure) over
	// blocking when a queue is full.
	limit    int
	failFast bool

	// shedAfter, when positive, arms slow-peer shedding: a destination
	// whose queue has pending entries but has made no ack progress for
	// this long is shed — onShed is invoked (off all outbox locks) and is
	// expected to reset the stream around a fresh repair run via ShedReset,
	// dropping the wedged backlog and letting anti-entropy repair the
	// destination when it recovers.
	shedAfter time.Duration
	onShed    func(dst string)

	mu     sync.Mutex
	queues map[string]*sendSession
	order  []string
	closed bool
	wg     sync.WaitGroup

	// persistMu serializes enqueue persistence (shared) against a log
	// checkpoint (exclusive): the checkpoint's state must never race an
	// append that already reached the old log file, or the rename would
	// silently drop a durable entry.
	persistMu sync.RWMutex

	// onEnqueue/onAck/onReset, when set, persist outbox transitions
	// (WAL-backed peers) in the peer's log. onPreFlush runs before a
	// flush cycle transmits data entries: durable peers sync the log there,
	// off the stage path, preserving the invariant that a transmitted
	// sequence number is always recoverable.
	onEnqueue  func(dst string, seq uint64, msg protocol.Payload)
	onAck      func(dst string, seq uint64)
	onReset    func(dst string, epoch uint64, entries []outEntry)
	onPreFlush func() error

	// onActive, when set (network.go via setSchedHooks), fires every time the
	// outbox gains pending entries, so the concurrent scheduler can track
	// possibly-undrained outboxes without polling every peer. Atomic: fired
	// from stage and API goroutines, installed from the network.
	onActive atomic.Pointer[func()]

	enqueued    atomic.Uint64
	delivered   atomic.Uint64 // entries acknowledged by their destination
	retransmits atomic.Uint64
	sendErrors  atomic.Uint64
	resets      atomic.Uint64 // stream resets (anti-entropy repairs + sheds)
	sheds       atomic.Uint64 // slow-peer sheds (subset of resets)
	adverts     atomic.Uint64 // periodic anti-entropy digest adverts enqueued
	bpWaits     atomic.Uint64 // admissions that had to wait for queue space
	bpRejects   atomic.Uint64 // admissions rejected with ErrBackpressure
}

func newOutbox(ep transport.Endpoint, ctx context.Context, syncMode bool) *outbox {
	return &outbox{
		ep:           ep,
		ctx:          ctx,
		sync:         syncMode,
		defaultEpoch: newEpoch(),
		ackTimeout:   defaultAckTimeout,
		baseBackoff:  defaultBaseBackoff,
		maxBackoff:   defaultMaxBackoff,
		sendTimeout:  defaultSendTimeout,
		queues:       make(map[string]*sendSession),
	}
}

// notifyActive fires the scheduler's outbox-gained-work hook, if installed.
// Called after an enqueue is published (queue Pending already reflects it),
// off all outbox locks, so the hook's observe-then-recheck protocol in the
// scheduler never misses the entry.
func (o *outbox) notifyActive() {
	if fn := o.onActive.Load(); fn != nil {
		(*fn)()
	}
}

// newEpoch picks a nonzero random stream epoch.
func newEpoch() uint64 {
	for {
		if e := rand.Uint64(); e != 0 {
			return e
		}
	}
}

// queue returns (creating if needed) the destination's send session,
// starting its flusher goroutine in async mode.
func (o *outbox) queue(dst string) *sendSession {
	o.mu.Lock()
	defer o.mu.Unlock()
	if dq, ok := o.queues[dst]; ok {
		return dq
	}
	dq := &sendSession{
		dst:        dst,
		epoch:      o.defaultEpoch,
		lastAdvert: time.Now(), // first advert one period after first contact
		wake:       make(chan struct{}, 1),
	}
	o.queues[dst] = dq
	o.order = append(o.order, dst)
	if !o.sync && !o.closed {
		o.wg.Add(1)
		go o.flusher(dq)
	}
	return dq
}

// snapshot returns the sessions in creation order.
func (o *outbox) snapshot() []*sendSession {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*sendSession, 0, len(o.order))
	for _, dst := range o.order {
		out = append(out, o.queues[dst])
	}
	return out
}

// EnqueueData appends a sequenced payload for dst and returns its sequence
// number. The payload is retained until dst acknowledges it. Never fails:
// delivery trouble is the flusher's problem, not the committing stage's.
// For durable peers the entry is persisted before it becomes visible to a
// flusher, so a crash can never have transmitted an unlogged sequence.
// Admission limits do not apply here (see EnqueueDataCtx): stage emissions
// commit unconditionally.
func (o *outbox) EnqueueData(dst string, msg protocol.Payload) uint64 {
	dq := o.queue(dst)
	dq.enqMu.Lock()
	seq := o.enqueueHeld(dq, dst, msg)
	dq.enqMu.Unlock()
	o.enqueued.Add(1)
	dq.signal()
	o.notifyActive()
	return seq
}

// EnqueueDataCtx is EnqueueData with admission control: when the
// destination's queue holds limit or more unacknowledged entries, a
// fail-fast outbox rejects with ErrBackpressure immediately, a blocking one
// waits for queue space until ctx (or the peer) is done. The API intake
// path (Apply) comes through here so a slow or dead destination pushes back
// on clients instead of growing the queue without bound.
func (o *outbox) EnqueueDataCtx(ctx context.Context, dst string, msg protocol.Payload) (uint64, error) {
	dq := o.queue(dst)
	for {
		dq.enqMu.Lock()
		dq.mu.Lock()
		if o.limit <= 0 || len(dq.entries) < o.limit {
			dq.mu.Unlock()
			seq := o.enqueueHeld(dq, dst, msg)
			dq.enqMu.Unlock()
			o.enqueued.Add(1)
			dq.signal()
			o.notifyActive()
			return seq, nil
		}
		if o.failFast {
			dq.mu.Unlock()
			dq.enqMu.Unlock()
			o.bpRejects.Add(1)
			return 0, fmt.Errorf("outbox %s: %d entries pending: %w", dst, o.limit, errdefs.ErrBackpressure)
		}
		// Blocking admission: subscribe to the space channel (closed when
		// acks, a reset, or a shed free room), then wait off all locks.
		if dq.spaceWait == nil {
			dq.spaceWait = make(chan struct{})
		}
		wait := dq.spaceWait
		dq.mu.Unlock()
		dq.enqMu.Unlock()
		o.bpWaits.Add(1)
		dq.signal() // make sure a flusher is pushing the backlog
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("outbox %s: waiting for queue space: %w: %w", dst, errdefs.ErrBackpressure, ctx.Err())
		case <-o.ctx.Done():
			return 0, fmt.Errorf("outbox %s: %w", dst, errdefs.ErrClosed)
		case <-wait:
		}
	}
}

// enqueueHeld runs the assign-seq / persist / publish sequence for one
// entry with dq.enqMu held (the caller owns admission and signaling).
func (o *outbox) enqueueHeld(dq *sendSession, dst string, msg protocol.Payload) uint64 {
	o.persistMu.RLock()
	dq.mu.Lock()
	dq.nextSeq++
	seq := dq.nextSeq
	dq.mu.Unlock()
	if o.onEnqueue != nil {
		o.onEnqueue(dst, seq, msg)
	}
	dq.mu.Lock()
	if len(dq.entries) == 0 {
		// The pending era starts now: the shed clock must measure from here,
		// not from whenever the queue last drained.
		dq.lastProgress = time.Now()
	}
	dq.entries = append(dq.entries, outEntry{seq: seq, msg: msg})
	dq.stalled = false // fresh work deserves a fresh attempt
	dq.nextTry = time.Time{}
	dq.mu.Unlock()
	o.persistMu.RUnlock()
	return seq
}

// Reset tears down and restarts the stream to dst under a fresh epoch — the
// anti-entropy repair for a receiver that lost its stream state. The given
// payloads (the full-range repair run of the maintained view and the advert
// that ends it) become the new sequences 1..n; surviving pending entries are
// renumbered behind them (their maintained deltas are already reflected in
// the run and replay as no-ops; one-shot updates must still be delivered),
// except digests, which describe a stream position the reset discards and
// which the run's own advert supersedes.
// The destination adopts the fresh epoch at sequence 1 with a fresh
// watermark. For durable peers onReset re-logs the stream so recovery sees
// the renumbering, not the superseded entries.
func (o *outbox) Reset(dst string, firsts ...protocol.Payload) {
	o.reset(dst, firsts, false)
}

// ShedReset is the slow-peer variant of Reset: the pending backlog is
// *discarded* instead of renumbered behind the repair run. Retaining it is
// exactly what the queue bound exists to prevent, and the run already
// carries the full maintained view; one-shot updates still queued to the
// shed destination are abandoned (that loss is the documented cost of
// shedding — the destination was unackable for the whole shed window).
func (o *outbox) ShedReset(dst string, firsts ...protocol.Payload) {
	o.sheds.Add(1)
	o.reset(dst, firsts, true)
}

func (o *outbox) reset(dst string, firsts []protocol.Payload, drop bool) {
	dq := o.queue(dst)
	dq.enqMu.Lock()
	o.persistMu.RLock()
	dq.mu.Lock()
	dq.epoch = newEpoch()
	dq.resets++
	o.resets.Add(1)
	entries := make([]outEntry, 0, len(dq.entries)+len(firsts))
	for _, msg := range firsts {
		entries = append(entries, outEntry{seq: uint64(len(entries)) + 1, msg: msg})
	}
	if !drop {
		for _, e := range dq.entries {
			if _, ok := e.msg.(protocol.DigestMsg); ok {
				continue // describes a stream position the reset discards
			}
			entries = append(entries, outEntry{seq: uint64(len(entries)) + 1, msg: e.msg})
		}
	}
	dq.entries = entries
	dq.nextSeq = uint64(len(entries))
	dq.acked = 0
	dq.stalled = false
	dq.nextTry = time.Time{}
	dq.backoff = 0
	dq.lastProgress = time.Now()
	dq.notifySpaceLocked()
	epoch := dq.epoch
	logged := make([]outEntry, len(entries))
	copy(logged, entries)
	dq.mu.Unlock()
	if o.onReset != nil {
		o.onReset(dst, epoch, logged)
	}
	o.persistMu.RUnlock()
	dq.enqMu.Unlock()
	o.enqueued.Add(1)
	dq.signal()
	o.notifyActive()
}

// EnqueueAck schedules a cumulative acknowledgment of the peer's own inbox
// back to dst, for the given inbound stream epoch. Acks coalesce: only the
// highest sequence of the current epoch is kept (a new epoch supersedes).
func (o *outbox) EnqueueAck(dst string, epoch, seq uint64) {
	dq := o.queue(dst)
	dq.mu.Lock()
	if epoch != dq.ackEpoch {
		dq.ackEpoch = epoch
		dq.pendingAck = seq
	} else if seq > dq.pendingAck {
		dq.pendingAck = seq
	}
	dq.mu.Unlock()
	dq.signal()
}

// EnqueueControl schedules a best-effort unsequenced payload (pong, resync
// request). It is dropped if its send fails.
func (o *outbox) EnqueueControl(dst string, msg protocol.Payload) {
	dq := o.queue(dst)
	dq.mu.Lock()
	dq.controls = append(dq.controls, msg)
	dq.mu.Unlock()
	dq.signal()
}

// Ack processes a cumulative acknowledgment from dst: every entry with
// sequence <= seq is delivered and dropped. Acks for a different epoch are
// stale (sent for a stream a previous incarnation of this peer — or this
// stream before a reset — was running) and are ignored: they must not drop
// entries of the current stream.
func (o *outbox) Ack(dst string, epoch, seq uint64) {
	o.mu.Lock()
	dq := o.queues[dst]
	o.mu.Unlock()
	if dq == nil {
		return // ack for nothing we track
	}
	dq.mu.Lock()
	if epoch != dq.epoch {
		dq.mu.Unlock()
		return
	}
	if seq > dq.acked {
		dq.acked = seq
	}
	kept := dq.entries[:0]
	dropped := 0
	for _, e := range dq.entries {
		if e.seq <= seq {
			dropped++
			continue
		}
		kept = append(kept, e)
	}
	dq.entries = kept
	if dropped > 0 {
		// The link evidently works; clear any failure state, stamp the shed
		// clock, and release any admission waiters into the freed space.
		dq.stalled = false
		dq.nextTry = time.Time{}
		dq.lastProgress = time.Now()
		if o.limit <= 0 || len(dq.entries) < o.limit {
			dq.notifySpaceLocked()
		}
	}
	dq.mu.Unlock()
	if dropped > 0 {
		o.delivered.Add(uint64(dropped))
		if o.onAck != nil {
			o.onAck(dst, seq)
		}
		dq.signal()
	}
}

// send transmits one payload, bounding the attempt with the peer-lifetime
// context plus a per-attempt timeout so a black-holed link cannot wedge a
// flusher (or Close) forever.
func (o *outbox) send(dst string, msg protocol.Payload) error {
	ctx, cancel := context.WithTimeout(o.ctx, o.sendTimeout)
	defer cancel()
	return o.ep.Send(ctx, dst, msg)
}

// advertDue checks (and, when due, re-arms) the session's anti-entropy
// advert clock. A period in which an advert still awaits its ack passes
// without another: an unreachable destination holds one, not one per period.
func (o *outbox) advertDue(dq *sendSession) bool {
	if o.resyncEvery <= 0 || o.onDigest == nil {
		return false
	}
	dq.mu.Lock()
	defer dq.mu.Unlock()
	if time.Since(dq.lastAdvert) < o.resyncEvery {
		return false
	}
	dq.lastAdvert = time.Now()
	for _, e := range dq.entries {
		if m, ok := e.msg.(protocol.DigestMsg); ok && m.Advert {
			return false
		}
	}
	return true
}

// flushQueue pushes everything currently sendable for one destination: when
// its clock says so it first has the peer enqueue the anti-entropy digest
// advert, then sends unsent data entries in sequence order, then the pending
// ack, then control messages.
// Reports whether anything was transmitted, whether a send failed, and
// whether another flush of the same queue was already in progress (busy —
// this call did nothing). Respects the queue's backoff gate.
func (o *outbox) flushQueue(dq *sendSession) (sent, failed, busy bool) {
	dq.mu.Lock()
	if dq.flushing {
		dq.mu.Unlock()
		return false, false, true
	}
	if !dq.nextTry.IsZero() && time.Now().Before(dq.nextTry) {
		dq.mu.Unlock()
		return false, false, false
	}
	dq.flushing = true
	dq.mu.Unlock()
	defer func() {
		dq.mu.Lock()
		dq.flushing = false
		if failed {
			dq.stalled = true
			// Exponential backoff: double the gate on consecutive failures.
			if dq.backoff == 0 {
				dq.backoff = o.baseBackoff
			} else {
				dq.backoff *= 2
				if dq.backoff > o.maxBackoff {
					dq.backoff = o.maxBackoff
				}
			}
			dq.nextTry = time.Now().Add(dq.backoff)
			// A failure invalidates the cycle: retransmit everything once the
			// link recovers, oldest first (the receiver dedups replays).
			for i := range dq.entries {
				dq.entries[i].sent = false
			}
		} else {
			dq.backoff = 0
			dq.nextTry = time.Time{}
			if sent {
				dq.stalled = false
			}
		}
		dq.mu.Unlock()
	}()

	// The advert joins the stream whatever is still in flight: the receiver
	// compares it at its own position, so a busy stream needs no quiet
	// moment for it.
	if o.advertDue(dq) && o.onDigest(dq.dst) {
		o.adverts.Add(1)
	}

	synced := false
	for {
		dq.mu.Lock()
		var seq uint64
		var msg protocol.Payload
		epoch := dq.epoch
		gen := dq.resets
		for i := range dq.entries {
			if !dq.entries[i].sent {
				seq = dq.entries[i].seq
				msg = dq.entries[i].msg
				break
			}
		}
		if msg != nil && !synced && o.onPreFlush != nil {
			// Durable peers: the entry's log record must be on disk before
			// the first transmission of this cycle — otherwise a crash could
			// reuse an already-transmitted sequence number for a different
			// message, which the receiver would silently drop as a replay.
			dq.mu.Unlock()
			if err := o.onPreFlush(); err != nil {
				o.sendErrors.Add(1)
				return sent, true, false
			}
			synced = true
			continue
		}
		if msg == nil {
			ack := dq.pendingAck
			ackEpoch := dq.ackEpoch
			controls := dq.controls
			dq.controls = nil
			dq.mu.Unlock()
			if ack > 0 {
				if err := o.send(dq.dst, protocol.AckMsg{Epoch: ackEpoch, Seq: ack}); err != nil {
					o.sendErrors.Add(1)
					return sent, true, false
				}
				sent = true
				dq.mu.Lock()
				if dq.pendingAck == ack {
					dq.pendingAck = 0
				}
				dq.mu.Unlock()
			}
			for _, c := range controls {
				if err := o.send(dq.dst, c); err != nil {
					o.sendErrors.Add(1)
					return sent, true, false // remaining controls dropped: best-effort
				}
				sent = true
			}
			return sent, false, false
		}
		dq.mu.Unlock()

		if err := o.send(dq.dst, protocol.DataMsg{Epoch: epoch, Seq: seq, Msg: msg}); err != nil {
			o.sendErrors.Add(1)
			return sent, true, false
		}
		sent = true
		dq.mu.Lock()
		if dq.resets == gen {
			for i := range dq.entries {
				if dq.entries[i].seq == seq {
					dq.entries[i].sent = true
					break
				}
			}
		}
		// The ack clock runs from the last transmission: retransmit only
		// once the destination has had a full ackTimeout to answer it.
		dq.retransmitAt = time.Now().Add(o.ackTimeout)
		dq.mu.Unlock()
	}
}

// flusher is the per-destination delivery goroutine (async mode): it drains
// the queue whenever work arrives, retransmits unacked entries after
// ackTimeout, sleeps under the backoff gate while the destination is
// unreachable, and wakes for the anti-entropy advert clock when idle.
func (o *outbox) flusher(dq *sendSession) {
	defer o.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-o.ctx.Done():
			return
		default:
		}
		_, failed, busy := o.flushQueue(dq)
		o.maybeShed(dq)

		dq.mu.Lock()
		pendingData := len(dq.entries) > 0
		unsent := false
		for i := range dq.entries {
			if !dq.entries[i].sent {
				unsent = true
				break
			}
		}
		pendingOther := dq.pendingAck > 0 || len(dq.controls) > 0
		gate := dq.nextTry
		lastAdvert := dq.lastAdvert
		retransmitAt := dq.retransmitAt
		lastProgress := dq.lastProgress
		dq.mu.Unlock()

		var wait time.Duration
		gated := false
		switch {
		case busy:
			// Another flusher (the scheduler's inline FlushAll) is mid-send;
			// wait for a signal or a beat instead of spinning on its lock.
			wait = o.baseBackoff
		case failed || (!gate.IsZero() && time.Now().Before(gate)):
			// Unreachable: sleep out the backoff gate (an ack or new work
			// wakes us early — an ack means the link recovered).
			gated = true
			wait = time.Until(gate)
			if wait <= 0 {
				wait = o.baseBackoff
			}
		case unsent || pendingOther:
			// More to push right now (raced an enqueue): loop immediately.
			continue
		case pendingData:
			// Everything sent, awaiting acks: retransmit once the ack
			// deadline (stamped at the last transmission) passes.
			wait = time.Until(retransmitAt)
			if wait <= 0 {
				wait = time.Millisecond
			}
		default:
			// Idle: wait for work (or the advert clock below).
			wait = 0
		}
		// The advert clock can shorten an idle or ack wait, but never a
		// backoff gate: a gated queue cannot transmit the advert anyway, and
		// an overdue clock would just spin the flusher against the gate.
		if o.resyncEvery > 0 && o.onDigest != nil && !gated && !busy {
			untilAdvert := time.Until(lastAdvert.Add(o.resyncEvery))
			if untilAdvert <= 0 {
				untilAdvert = time.Millisecond
			}
			if wait <= 0 || untilAdvert < wait {
				wait = untilAdvert
			}
		}
		// The shed clock *does* shorten a backoff gate: a persistently
		// unreachable destination is the very case shedding exists for, and
		// its flusher would otherwise sleep out maxBackoff oblivious to the
		// deadline.
		if o.shedAfter > 0 && o.onShed != nil && pendingData && !lastProgress.IsZero() {
			untilShed := time.Until(lastProgress.Add(o.shedAfter))
			if untilShed <= 0 {
				untilShed = time.Millisecond
			}
			if wait <= 0 || untilShed < wait {
				wait = untilShed
			}
		}

		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-o.ctx.Done():
				if !timer.Stop() {
					<-timer.C
				}
				return
			case <-dq.wake:
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
				// Only a genuinely elapsed ack deadline invalidates the
				// cycle for retransmission — the timer also fires for
				// advert-clock wakeups, which must not re-send anything.
				if pendingData && !failed && !time.Now().Before(retransmitAt) {
					dq.mu.Lock()
					resend := false
					for i := range dq.entries {
						if dq.entries[i].sent {
							dq.entries[i].sent = false
							resend = true
						}
					}
					dq.mu.Unlock()
					if resend {
						o.retransmits.Add(1)
					}
				}
			}
			continue
		}
		select {
		case <-o.ctx.Done():
			return
		case <-dq.wake:
		}
	}
}

// maybeShed sheds a persistently-unackable destination: its queue has
// pending entries but has seen no ack progress for shedAfter. The callback
// runs off all outbox locks — it takes the peer lock to read the
// maintained view and then calls ShedReset, which takes the session locks,
// the same ordering the stage path uses (p.mu → session locks). Only the
// async flusher calls this; sync-emit peers (in-process test networks) do
// not shed.
func (o *outbox) maybeShed(dq *sendSession) {
	if o.shedAfter <= 0 || o.onShed == nil {
		return
	}
	dq.mu.Lock()
	pending := len(dq.entries)
	due := pending > 0 && !dq.shedding &&
		!dq.lastProgress.IsZero() && time.Since(dq.lastProgress) >= o.shedAfter
	if due {
		dq.shedding = true
	}
	dq.mu.Unlock()
	if !due {
		return
	}
	o.onShed(dq.dst)
	dq.mu.Lock()
	dq.shedding = false
	// ShedReset stamped the clock; stamp again in case the callback
	// declined to reset (peer closing) so the next check waits a full
	// window instead of spinning.
	dq.lastProgress = time.Now()
	dq.mu.Unlock()
}

// FlushAll synchronously attempts one flush of every queue (sync mode after
// a stage, and the network scheduler accelerating delivery). Reports whether
// anything was transmitted.
func (o *outbox) FlushAll() bool {
	sent := false
	for _, dq := range o.snapshot() {
		s, _, _ := o.flushQueue(dq)
		sent = sent || s
	}
	return sent
}

// Pending returns the number of unacknowledged sequenced entries and how
// many of them sit in queues whose last delivery attempt failed (stalled —
// retrying under backoff). The network scheduler's quiescence condition is
// "no peer has work and no outbox entry is pending", with stalled entries
// exempt so an unreachable destination cannot wedge RunToQuiescence.
func (o *outbox) Pending() (total, stalled int) {
	for _, dq := range o.snapshot() {
		dq.mu.Lock()
		total += len(dq.entries)
		if dq.stalled || (!dq.nextTry.IsZero() && time.Now().Before(dq.nextTry)) {
			stalled += len(dq.entries)
		}
		dq.mu.Unlock()
	}
	return total, stalled
}

// seed restores recovered delivery state (WAL-backed peers): pending entries
// re-enter the queue unsent, the sequence counters resume past the highest
// logged value, and a stream that was reset away from the default epoch
// resumes under its per-stream epoch.
func (o *outbox) seed(dst string, epoch, nextSeq, acked uint64, entries []outEntry) {
	dq := o.queue(dst)
	dq.mu.Lock()
	if epoch != 0 {
		dq.epoch = epoch
	}
	dq.nextSeq = nextSeq
	dq.acked = acked
	if len(dq.entries) == 0 && len(entries) > 0 {
		dq.lastProgress = time.Now()
	}
	dq.entries = append(dq.entries, entries...)
	dq.mu.Unlock()
	dq.signal()
}

// checkpoint hands write the live delivery state, encoding retained
// payloads, with concurrent enqueuers excluded until write returns, so an
// entry logged after the state was taken can never be dropped by the
// rewrite. Applied watermarks are the peer's, added by write.
func (o *outbox) checkpoint(write func(*store.OutboxState) error) error {
	o.persistMu.Lock()
	defer o.persistMu.Unlock()
	st := store.NewOutboxState()
	st.Epoch = o.defaultEpoch
	for _, dq := range o.snapshot() {
		dq.mu.Lock()
		entries := make([]outEntry, len(dq.entries))
		copy(entries, dq.entries)
		epoch, nextSeq, acked := dq.epoch, dq.nextSeq, dq.acked
		dq.mu.Unlock()
		st.Epochs[dq.dst] = epoch
		st.NextSeq[dq.dst] = nextSeq
		st.Acked[dq.dst] = acked
		for _, e := range entries {
			b, err := protocol.EncodePayload(e.msg)
			if err != nil {
				return err
			}
			st.Pending[dq.dst] = append(st.Pending[dq.dst], store.OutboxEntry{Seq: e.seq, Payload: b})
		}
	}
	return write(st)
}

// Shutdown stops the flushers and waits for them; call after cancelling the
// peer context and closing the endpoint (both unblock in-flight sends).
func (o *outbox) Shutdown() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	o.wg.Wait()
}
