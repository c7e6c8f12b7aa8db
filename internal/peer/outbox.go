package peer

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
// queue, ack floor — and the four clocks that govern a stream live in
// sendSession (session.go): the backoff gate (failed), the ack deadline
// (sent), the advert period (advertDue) and the shed window (enqueue, ack,
// reset); sendSession.due reads all four. The outbox only drives the
// sessions, and reads the time through its now function alone. Two flush
// modes:
//
//   - async (the default): one flusher goroutine per destination flushes
//     the queue, acts on what the session's clocks call for (a retransmit,
//     an advert, a shed) and sleeps until the next deadline or a wake. Stage
//     latency is thereby decoupled from destination RTT and dial stalls
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
// regenerates it). Nothing else travels outside a DataMsg: the advert the
// advert clock triggers is a sequenced entry like any other.

// outboxDefaults tuning; tests shrink these for fast fault convergence.
const (
	defaultAckTimeout  = 200 * time.Millisecond
	defaultBaseBackoff = 10 * time.Millisecond
	defaultMaxBackoff  = 2 * time.Second
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

	// now is the outbox's clock, the wall clock but in tests: every
	// session method is handed its reading.
	now func() time.Time
	timing

	// onDigest is the advert clock's callback: when a session's advert is
	// due, the flush cycle asks it to enqueue an advert of the maintained
	// view; it reports whether it enqueued one (there may be nothing to
	// advertise). Set whenever resyncEvery is.
	onDigest func(dst string) bool

	// Flow control. limit bounds each destination's unacknowledged entry
	// queue for admission-controlled enqueues (the Apply path); 0 =
	// unbounded. Stage emissions (EnqueueData) are exempt: a committed
	// fixpoint's maintained deltas are already reflected in the remote view
	// and must reach the stream unconditionally, so a queue can temporarily
	// overshoot the limit by a stage's worth of output — the bound is on
	// API-driven intake, which is where unbounded growth originates. The
	// gate's policy and counters are shared with the peer's staged-update
	// queue.
	limit int
	admission

	// onShed is the shed window's callback (set whenever shedAfter is): a
	// destination whose queue has pending entries but has made no ack
	// progress for shedAfter is shed — onShed is invoked off all outbox
	// locks and is expected to reset the stream around a fresh repair run,
	// dropping the wedged backlog and letting anti-entropy repair the
	// destination when it recovers.
	onShed func(dst string)

	mu       sync.Mutex
	queues   map[string]*sendSession
	sessions []*sendSession // in creation order, append-only (snapshot)
	closed   bool
	wg       sync.WaitGroup

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
}

func newOutbox(ep transport.Endpoint, ctx context.Context, syncMode bool) *outbox {
	return &outbox{
		ep:           ep,
		ctx:          ctx,
		sync:         syncMode,
		defaultEpoch: newEpoch(),
		now:          time.Now,
		timing:       timing{ackTimeout: defaultAckTimeout, baseBackoff: defaultBaseBackoff, maxBackoff: defaultMaxBackoff},
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
	dq := newSendSession(dst, &o.timing, o.defaultEpoch, o.now())
	o.queues[dst] = dq
	o.sessions = append(o.sessions, dq)
	if !o.sync && !o.closed {
		o.wg.Add(1)
		go o.flusher(dq)
	}
	return dq
}

// snapshot returns the sessions in creation order: the prefix that exists
// now, which appends never write again, capped against the caller's.
func (o *outbox) snapshot() []*sendSession {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := len(o.sessions)
	return o.sessions[:n:n]
}

// EnqueueData appends a sequenced payload for dst and returns its sequence
// number. The payload is retained until dst acknowledges it. Never fails:
// delivery trouble is the flusher's problem, not the committing stage's.
// Admission limits do not apply here: stage emissions commit
// unconditionally.
func (o *outbox) EnqueueData(dst string, msg protocol.Payload) uint64 {
	seq, _ := o.enqueue(context.Background(), dst, msg, false)
	return seq
}

// enqueue is the one enqueue path. For durable peers the entry is persisted
// before it becomes visible to a flusher, so a crash can never have
// transmitted an unlogged sequence. A bounded enqueue (the API intake path,
// Apply) passes the admission gate first: when the destination's queue holds
// limit or more unacknowledged entries it fails fast or waits for space
// until ctx (or the peer) is done, so a slow or dead destination pushes back
// on clients instead of growing the queue without bound.
func (o *outbox) enqueue(ctx context.Context, dst string, msg protocol.Payload, bounded bool) (uint64, error) {
	dq := o.queue(dst)
	var seq uint64
	err := o.admit(ctx, o.ctx, o.limit, func() (<-chan struct{}, error) {
		dq.enqMu.Lock()
		defer dq.enqMu.Unlock()
		dq.mu.Lock()
		if bounded && o.limit > 0 && len(dq.entries) >= o.limit {
			defer dq.mu.Unlock()
			return dq.space.wait(), nil
		}
		next := dq.nextSeq + 1 // enqMu keeps it ours
		dq.mu.Unlock()
		o.persistMu.RLock()
		defer o.persistMu.RUnlock()
		if o.onEnqueue != nil {
			o.onEnqueue(dst, next, msg)
		}
		dq.mu.Lock()
		seq = dq.enqueue(o.now(), msg)
		dq.mu.Unlock()
		return nil, nil
	}, dq.signal)
	if err != nil {
		return 0, fmt.Errorf("outbox %s: %w", dst, err)
	}
	o.enqueued.Add(1)
	dq.signal()
	o.notifyActive()
	return seq, nil
}

// Reset tears down and restarts the stream to dst under a fresh epoch — the
// anti-entropy repair for a receiver that lost its stream state. The given
// payloads (the full-range repair run of the maintained view and the advert
// that ends it) become the new sequences 1..n; surviving pending entries are
// renumbered behind them (their maintained deltas are already reflected in
// the run and replay as no-ops; one-shot updates must still be delivered),
// except digests, which describe a stream position the reset discards and
// which the run's own advert supersedes.
func (o *outbox) Reset(dst string, firsts ...protocol.Payload) {
	o.reset(dst, firsts, false)
}

// reset restarts the stream to dst (sendSession.reset). A shed passes drop:
// the pending backlog is discarded instead of renumbered behind the repair
// run. Retaining it is exactly what the queue bound exists to prevent, and
// the run already carries the full maintained view; one-shot updates still
// queued to the shed destination are abandoned (that loss is the documented
// cost of shedding — the destination was unackable for the whole shed
// window). The destination adopts the fresh epoch at sequence 1 with a
// fresh watermark. For durable peers onReset re-logs the stream so recovery
// sees the renumbering, not the superseded entries.
func (o *outbox) reset(dst string, firsts []protocol.Payload, drop bool) {
	dq := o.queue(dst)
	dq.enqMu.Lock()
	o.persistMu.RLock()
	dq.mu.Lock()
	dq.reset(o.now(), newEpoch(), firsts, drop)
	dq.space.release()
	epoch, logged := dq.epoch, slices.Clone(dq.entries)
	dq.mu.Unlock()
	if o.onReset != nil {
		o.onReset(dst, epoch, logged)
	}
	o.persistMu.RUnlock()
	dq.enqMu.Unlock()
	o.resets.Add(1)
	if drop {
		o.sheds.Add(1)
	}
	o.enqueued.Add(1)
	dq.signal()
	o.notifyActive()
}

// EnqueueAck schedules a cumulative acknowledgment of the peer's own inbox
// back to dst, for the given inbound stream epoch (sendSession.stageAck).
func (o *outbox) EnqueueAck(dst string, epoch, seq uint64) {
	dq := o.queue(dst)
	dq.mu.Lock()
	dq.stageAck(epoch, seq)
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

// Ack processes a cumulative acknowledgment from dst (sendSession.ack) and
// releases admission waiters into the space it frees.
func (o *outbox) Ack(dst string, epoch, seq uint64) {
	o.mu.Lock()
	dq := o.queues[dst]
	o.mu.Unlock()
	if dq == nil {
		return // ack for nothing we track
	}
	dq.mu.Lock()
	dropped := dq.ack(o.now(), epoch, seq)
	if dropped > 0 && (o.limit <= 0 || len(dq.entries) < o.limit) {
		dq.space.release()
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

// send transmits one payload under the peer-lifetime context: Close
// aborts it. The context carries no deadline of its own; an endpoint whose
// send can block bounds the attempt itself (the TCP endpoint's write
// deadline and dial timeout), so a black-holed link cannot wedge a flusher
// (or Close) forever.
func (o *outbox) send(dst string, msg protocol.Payload) error {
	return o.ep.Send(o.ctx, dst, msg)
}

// flushQueue pushes everything sendable at now for one destination: when
// its advert clock says so it first has the peer enqueue the anti-entropy
// digest advert, then sends unsent data entries in sequence order, then the
// pending ack, then control messages.
// Reports whether anything was transmitted, whether a send failed, and
// whether another flush of the same queue was already in progress (busy —
// this call did nothing). Respects the queue's backoff gate. A session with
// nothing to send (sendSession.idle) costs one lock and no state change.
func (o *outbox) flushQueue(dq *sendSession, now time.Time) (sent, failed, busy bool) {
	dq.mu.Lock()
	if dq.flushing {
		dq.mu.Unlock()
		return false, false, true
	}
	if dq.idle(now) || dq.gated(now) {
		dq.mu.Unlock()
		return false, false, false
	}
	dq.flushing = true
	advert := dq.advertDue(now)
	dq.mu.Unlock()
	defer func() {
		dq.mu.Lock()
		dq.flushing = false
		if failed {
			dq.failed(o.now())
		} else {
			dq.succeeded()
		}
		dq.mu.Unlock()
	}()

	// The advert joins the stream whatever is still in flight: the receiver
	// compares it at its own position, so a busy stream needs no quiet
	// moment for it.
	if advert && o.onDigest(dq.dst) {
		o.adverts.Add(1)
	}

	synced := false
	for {
		dq.mu.Lock()
		i := dq.unsent()
		if i >= 0 && !synced && o.onPreFlush != nil {
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
		if i < 0 {
			ack, ackEpoch := dq.pendingAck, dq.ackEpoch
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
				dq.ackSent(ackEpoch, ack)
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
		e, epoch, gen := dq.entries[i], dq.epoch, dq.resets
		dq.mu.Unlock()

		if err := o.send(dq.dst, protocol.DataMsg{Epoch: epoch, Seq: e.seq, Msg: e.msg}); err != nil {
			o.sendErrors.Add(1)
			return sent, true, false
		}
		sent = true
		dq.mu.Lock()
		dq.sent(o.now(), gen, e.seq)
		dq.mu.Unlock()
	}
}

// flusher is the per-destination delivery goroutine (async mode): it
// flushes the queue, acts on what the session's clocks call for, and sleeps
// until the next deadline or a wake (new work or an ack).
func (o *outbox) flusher(dq *sendSession) {
	defer o.wg.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for o.ctx.Err() == nil {
		_, _, busy := o.flushQueue(dq, o.now())
		now := o.now()
		dq.mu.Lock()
		d := dq.due(now)
		if d.retransmit {
			dq.resend()
		}
		if d.shed {
			// The shed's reset restarts the window; should the callback
			// decline (the peer is closing), the next shed waits a whole one.
			dq.lastProgress = now
		}
		dq.mu.Unlock()
		if d.retransmit {
			o.retransmits.Add(1)
		}
		if d.shed {
			// Off all outbox locks: the callback takes the peer lock and
			// then the session's, the order the stage path uses.
			o.onShed(dq.dst)
		}
		if busy {
			// Another flusher (the scheduler's inline FlushAll) is mid-send:
			// wait for a signal or a beat instead of spinning on its lock.
			d.next = now.Add(o.baseBackoff)
		} else if d.flush || d.advert || d.retransmit || d.shed {
			continue
		}
		var fire <-chan time.Time
		if !d.next.IsZero() {
			timer.Reset(d.next.Sub(now))
			fire = timer.C
		}
		select {
		case <-o.ctx.Done():
		case <-dq.wake:
		case <-fire:
		}
		timer.Stop()
	}
}

// FlushAll synchronously attempts one flush of every queue (sync mode after
// a stage, and the network scheduler accelerating delivery), reading the
// clock once for all of them. Reports whether anything was transmitted.
// Sync-emit peers do not shed or retransmit on a clock: only the async
// flusher does.
func (o *outbox) FlushAll() bool {
	sent := false
	now := o.now()
	for _, dq := range o.snapshot() {
		s, _, _ := o.flushQueue(dq, now)
		sent = sent || s
	}
	return sent
}

// Pending returns the number of unacknowledged sequenced entries and how
// many of them sit in stalled queues (retrying under backoff). The network
// scheduler's quiescence condition is "no peer has work and no outbox entry
// is pending", with stalled entries exempt so an unreachable destination
// cannot wedge RunToQuiescence.
func (o *outbox) Pending() (total, stalled int) {
	for _, dq := range o.snapshot() {
		dq.mu.Lock()
		total += len(dq.entries)
		if dq.stalled() {
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
		dq.lastProgress = o.now()
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
