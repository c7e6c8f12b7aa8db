package peer

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"repro/internal/acl"
	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/errdefs"
	"repro/internal/protocol"
	"repro/internal/store"
	"repro/internal/value"
)

// ingestOp is one fact operation entering the peer: from the local API
// (a pending batch), or from the wire with the sender and the maintenance
// flag attached.
type ingestOp struct {
	del   bool
	maint bool
	src   string
	fact  ast.Fact
}

// stageDeltas collects the base-fact changes of one ingestion per "rel@peer",
// as lists in apply order that the engine takes as they are and the
// subscriptions read. The store reports only the changes it makes, so a
// relation that saw one sign holds its net change already; net reduces one
// that saw both, so an insert-then-delete inside one stage comes to nothing.
type stageDeltas struct {
	rels map[string]*relDelta
	cand map[string]map[string]value.Tuple // intensional tuples that lost support
}

// relDelta is one relation's inserts and deletes in one stage.
type relDelta struct{ ins, del changes }

// changes lists tuples, as stored, and their keys.
type changes struct {
	ts   []value.Tuple
	keys []string
}

// add appends t, stored under key.
func (c *changes) add(t value.Tuple, key string) {
	c.ts, c.keys = append(c.ts, t), append(c.keys, key)
}

// rel returns relID's changes, adding an empty entry on first use.
func (d *stageDeltas) rel(relID string) *relDelta {
	if d.rels[relID] == nil {
		d.rels[relID] = &relDelta{}
	}
	return d.rels[relID]
}

// net reduces every relation that saw both signs, at the end of ingest. A
// key's changes alternate in sign, so they sum to +1, a net insert of the
// tuple stored last (the one the index buckets hold), to −1 or to 0.
func (d *stageDeltas) net() {
	for _, rd := range d.rels {
		if len(rd.ins.ts) > 0 && len(rd.del.ts) > 0 {
			sum := make(map[string]int, len(rd.ins.keys)+len(rd.del.keys))
			for _, k := range rd.ins.keys {
				sum[k]++
			}
			for _, k := range rd.del.keys {
				sum[k]--
			}
			rd.ins.keepLast(sum, 1)
			rd.del.keepLast(sum, -1)
		}
	}
}

// keepLast keeps, in order, the last entry of each key whose sum has the
// given sign.
func (c *changes) keepLast(sum map[string]int, sign int) {
	w := len(c.ts)
	for i := w - 1; i >= 0; i-- {
		if k := c.keys[i]; sum[k]*sign > 0 {
			sum[k], w = 0, w-1
			c.ts[w], c.keys[w] = c.ts[i], k
		}
	}
	c.ts, c.keys = c.ts[w:], c.keys[w:]
}

func (d *stageDeltas) addCand(relID, key string, t value.Tuple) {
	if d.cand == nil {
		d.cand = map[string]map[string]value.Tuple{}
	}
	putTuple(d.cand, relID, key, t)
}

// removeCand cancels a pending deletion candidate — a later operation in the
// same stage re-supported the tuple. Reports whether one was cancelled.
func (d *stageDeltas) removeCand(relID, key string) bool {
	if m := d.cand[relID]; m[key] != nil {
		delete(m, key)
		return true
	}
	return false
}

func putTuple(m map[string]map[string]value.Tuple, relID, key string, t value.Tuple) {
	inner := m[relID]
	if inner == nil {
		inner = map[string]value.Tuple{}
		m[relID] = inner
	}
	inner[key] = t
}

// engineInput hands the netted lists to the engine's stage input as they
// are; the engine copies before it appends.
func (d *stageDeltas) engineInput() *engine.StageInput {
	in := &engine.StageInput{}
	for relID, rd := range d.rels {
		rd.ins.addTo(relID, &in.Ins, &in.InsKeys)
		rd.del.addTo(relID, &in.Del, &in.DelKeys)
	}
	in.Cand, in.CandKeys = flatten(d.cand)
	return in
}

// addTo adds c, unless it is empty, to *tuples and *keys under relID,
// making the maps on first use.
func (c changes) addTo(relID string, tuples *map[string][]value.Tuple, keys *map[string][]string) {
	if len(c.ts) > 0 {
		if *tuples == nil {
			*tuples, *keys = map[string][]value.Tuple{}, map[string][]string{}
		}
		(*tuples)[relID], (*keys)[relID] = c.ts, c.keys
	}
}

// flatten lists each relation's tuples and, in the same order, their keys;
// a relation whose changes netted out is left out.
func flatten(m map[string]map[string]value.Tuple) (tuples map[string][]value.Tuple, keys map[string][]string) {
	for relID, byKey := range m {
		c := changes{make([]value.Tuple, 0, len(byKey)), make([]string, 0, len(byKey))}
		for key, t := range byKey {
			c.add(t, key)
		}
		c.addTo(relID, &tuples, &keys)
	}
	return tuples, keys
}

// RunStage executes one computation stage: ingest inputs, run the fixpoint,
// emit outputs, commit. If ingestion changed nothing (all inbox messages
// were no-ops, no staged updates, no program change), the fixpoint and
// emission are skipped — the previous stage's outputs already reflect this
// state, which is what lets a network of peers reach quiescence.
//
// When the program is incrementally maintainable (engine.Options.Incremental
// and no negation through views), derived relations stay materialized
// between stages and the engine maintains them from this stage's base-fact
// deltas — local updates, arrivals and wrapper pulls alike — and from the
// program delta since the last stage: the first stage builds the views as
// the delta from the empty program, and a delegated template arriving or
// leaving costs the one rule it adds or removes, not a rebuild. Otherwise
// every stage rebuilds the views, re-seeding externally supported and
// freshly arrived transient facts. Both paths report the exact view deltas
// subscriptions stream.
func (p *Peer) RunStage() *StageReport {
	rep := p.runStageLocked()
	// Sync-emit peers flush everything the stage (or a skipped stage's ack
	// bookkeeping) enqueued before returning, off the peer lock, so
	// in-process schedulers observe the old synchronous-delivery semantics.
	p.flushIfSync()
	return rep
}

func (p *Peer) runStageLocked() *StageReport {
	p.mu.Lock()
	defer p.mu.Unlock()

	rep := &StageReport{Stage: p.stageNo + 1}
	defer func() { p.stats.RuntimeErrors += uint64(len(rep.Errors)) }()
	if p.wal != nil && p.wal.CheckpointDue() {
		p.checkpointLocked(rep)
	}
	startIngest := time.Now()
	p.poked = false

	d := &stageDeltas{rels: map[string]*relDelta{}}
	changed := p.ingestLocked(rep, d)
	p.installApprovedLocked()
	if p.progDirty {
		p.compileLocked(rep)
		changed = true
	}
	rep.Ingest = time.Since(startIngest)

	if !changed {
		p.stats.StagesSkipped++
		if p.pm != nil {
			p.pm.stagesSkipped.Inc()
		}
		// Transient marks collected by this skipped stage stay *fresh*: no
		// fixpoint has observed them yet, so they must live through the
		// next stage that actually runs and expire only at the one after.
		// freshTransient simply keeps accumulating until a stage runs.
		p.commitLocked(rep)
		return rep
	}

	p.stageNo++
	rep.Stage = p.stageNo
	rep.Ran = true

	// Step 2: fixpoint (see RunStage).
	startFix := time.Now()
	var res *engine.Result
	if p.prog.Incremental {
		p.expireTransientsLocked(d)
		in := d.engineInput()
		in.Supported = p.supported
		res = p.eng.RunStageIncremental(p.prog, in, p.rv)
	} else {
		res = p.eng.RunStageFull(p.prog, func(relID, key string) bool {
			return p.supportedLocked(relID, key) || p.freshTransient[relID][key] != nil
		}, p.rv)
	}
	p.transient = p.freshTransient
	p.freshTransient = nil
	rep.Fixpoint = time.Since(startFix)
	rep.Derived = res.Derived
	rep.Retracted = res.Retracted
	rep.Iterations = res.Iterations
	rep.Errors = append(rep.Errors, res.Errors...)

	// Step 3: emit. Local updates buffer for the next stage; remote fact
	// deltas, delegations among them, go out now.
	startEmit := time.Now()
	p.queueLocked(res.LocalUpdates)
	p.emitFactsLocked(res, rep)
	rep.Emit = time.Since(startEmit)
	p.commitLocked(rep)

	p.stats.Stages++
	p.stats.Derived += uint64(res.Derived)
	if p.pm != nil {
		p.pm.stagesRan.Inc()
		p.pm.stageSeconds.Observe(rep.Duration().Seconds())
		p.pm.fixpointRounds.Observe(float64(rep.Iterations))
	}

	// Stream the stage's net effect to subscribers before hooks observe it.
	p.emitSubscriptionsLocked(rep, d, res)

	if hooks := p.hooks; hooks != nil {
		// Run the hook outside the lock: it may call back into the peer.
		p.mu.Unlock()
		err := hooks.AfterStage(p, rep)
		p.mu.Lock()
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Errorf("peer %s: after-stage hook: %w", p.name, err))
		}
	}
	return rep
}

// expireTransientsLocked turns the previous stage's transient seeds into
// deletion candidates — unless the same fact was re-seeded this stage. A
// candidate with surviving support (a rule derivation, a remote maintainer)
// is kept by the engine's rederivation pass; the paper's "facts received in
// intensional relations hold for one stage" semantics falls out for the
// rest.
func (p *Peer) expireTransientsLocked(d *stageDeltas) {
	for relID, marks := range p.transient {
		rel := p.db.GetID(relID)
		if rel == nil {
			continue
		}
		for key, t := range marks {
			if p.freshTransient[relID][key] != nil {
				continue
			}
			if rel.Contains(t) {
				d.addCand(relID, key, t)
			}
		}
	}
	p.transient = nil
}

// ingestLocked performs step 1 of the stage — applying staged local
// operations and draining the transport inbox — recording the net deltas in
// d, and reports whether anything about the peer's state actually changed.
func (p *Peer) ingestLocked(rep *StageReport, d *stageDeltas) bool {
	changed := false

	// Apply the batches staged by the previous stage and by the local API,
	// in order, through one buffer. The drain frees admission space: release
	// any Apply caller blocked on the pending-op bound.
	staged := p.pendingOps
	p.pendingOps, p.pendingN, p.ownTail = nil, 0, false
	p.pendingSpace.release()
	p.presizeLocked(staged, d)
	var ops []ingestOp
	for _, batch := range staged {
		ops = slices.Grow(ops[:0], len(batch))
		for _, op := range batch {
			ops = append(ops, ingestOp{del: op.Op == ast.Delete, src: p.name, fact: op.Fact})
		}
		if p.applyOpsLocked(ops, rep, d) {
			changed = true
		}
	}

	// Drain the transport inbox.
	envs := p.ep.Drain()
	for _, env := range envs {
		switch msg := env.Msg.(type) {
		case protocol.DataMsg:
			if p.ingestDataLocked(env.From, msg, rep, d) {
				changed = true
			}
		case protocol.AckMsg:
			// Delivery bookkeeping, not peer state: never triggers a stage.
			p.outbox.Ack(env.From, msg.Epoch, msg.Seq)
		case protocol.FactsMsg, protocol.RangeRepairMsg, protocol.DigestMsg:
			// Data and digests outside a DataMsg have no sequence number to
			// dedup or order them by (a digest is compared at its stream
			// position), and the outbox never sends them that way.
			rep.Errors = append(rep.Errors, fmt.Errorf(
				"peer %s: unsequenced %T from %s refused", p.name, msg, env.From))
		default:
			// The control kinds travel bare: idempotent, applied as they come.
			if p.ingestPayloadLocked(env.From, env.Msg, rep, d) {
				changed = true
			}
		}
	}

	if p.hooks != nil && p.pullLocked(rep, d) {
		changed = true
	}

	d.net()
	return changed
}

// presizeLocked sizes each empty extensional relation that the staged batches
// insert more than eight facts into (a map group holds eight), its tuple map
// and its delta list, so a cold load does not rehash. A relation the batches
// also delete from is left as it is: a map never shrinks, and inserts that
// deletes cancel would size it for tuples it never holds. Repeated inserts
// of one fact still count, so such a stage leaves the map sized for its own
// op count. Only the first eight relations named are counted, keeping a
// stage linear.
func (p *Peer) presizeLocked(staged [][]engine.FactOp, d *stageDeltas) {
	var rels [8]string
	var counts [8]int
	var deletes [8]bool
	for _, batch := range staged {
		for _, op := range batch {
			i := 0
			for i < len(rels) && rels[i] != op.Fact.Rel && rels[i] != "" {
				i++
			}
			if i < len(rels) {
				rels[i] = op.Fact.Rel
				if op.Op == ast.Delete {
					deletes[i] = true
				} else {
					counts[i]++
				}
			}
		}
	}
	for i, n := range counts {
		if n > 8 && !deletes[i] {
			if rel := p.db.Get(rels[i], p.name); rel != nil && rel.Kind() == ast.Extensional && rel.Reserve(n) {
				d.rel(rel.ID()).ins = changes{make([]value.Tuple, 0, n), make([]string, 0, n)}
			}
		}
	}
}

// commitLocked ends a stage, run or skipped: it logs the staged acks'
// watermarks and syncs the log once — covering those, the stage's ingest
// records and its enqueues — before it releases the acks (and the caller
// the subscription deltas). A skipped stage syncs only for acks replayed
// data staged. On a persistence failure the acks stay staged: the sender
// retransmits, and a later stage retries.
func (p *Peer) commitLocked(rep *StageReport) {
	ackable := p.stagedAckSessionsLocked()
	if p.wal != nil && (rep.Ran || len(ackable) > 0) {
		for _, s := range ackable {
			_ = p.wal.LogApplied(s.from, s.ackEpoch, s.ackSeq) // a failed append fails the sync
		}
		if err := p.wal.Sync(); err != nil {
			rep.Errors = append(rep.Errors, err)
			return
		}
	}
	for _, s := range ackable {
		p.outbox.EnqueueAck(s.from, s.ackEpoch, s.ackSeq)
		s.ackStaged = false
	}
}

// pullLocked runs the wrapper pull hook (Hooks.BeforeStage) with the lock
// released and applies what it pulled as ordinary ingestion, so the
// external service's changes are recorded as this stage's deltas and logged
// like any other update. A pulled fact of another peer's relation is
// refused.
func (p *Peer) pullLocked(rep *StageReport, d *stageDeltas) bool {
	pull, hooks := engine.NewBatch(), p.hooks
	p.mu.Unlock()
	err := hooks.BeforeStage(p, pull)
	p.mu.Lock()
	if err != nil {
		rep.Errors = append(rep.Errors, fmt.Errorf("peer %s: before-stage hook: %w", p.name, err))
	}
	ops := make([]ingestOp, 0, pull.Len())
	for _, op := range pull.Ops() {
		if op.Fact.Peer != p.name {
			rep.Errors = append(rep.Errors, fmt.Errorf(
				"peer %s: before-stage hook pulled foreign fact %s", p.name, op.Fact.String()))
			continue
		}
		ops = append(ops, ingestOp{del: op.Op == ast.Delete, src: p.name, fact: op.Fact})
	}
	return p.applyOpsLocked(ops, rep, d)
}

// stagedAckSessionsLocked returns the inbound sessions with a staged
// acknowledgment, in sender-name order for deterministic release.
func (p *Peer) stagedAckSessionsLocked() []*inSession {
	var out []*inSession
	for _, s := range p.inbound {
		if s.ackStaged {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].from < out[j].from })
	return out
}

// ingestDataLocked applies one sequenced message through the sender's
// inbound session, which enforces exactly-once application: a sender's
// DataMsgs apply strictly in sequence order; replays (<= watermark) are
// re-acked and skipped; gaps (the transport reordered or dropped a
// predecessor) are dropped unacked, to be retransmitted in order; a new
// epoch starting at sequence 1 is adopted with a fresh watermark.
//
// Acks are *staged* on the session rather than enqueued directly: they are
// released at the end of the stage, after the durable watermark has been
// synced, so a crash can never leave a sender believing a message was
// applied when the receiver's recovered watermark says otherwise.
//
// Two repair triggers live here. A *wedged* stream — the sender is
// mid-sequence but this session has never applied anything of its epoch,
// the signature of a receiver that lost its state, whether the message is
// a delta or the idle sender's periodic advert — asks the sender for a
// stream reset (in-order retransmission alone can never recover it: the
// sender has dropped the acknowledged prefix). And adopting a *new epoch*
// of a known stream wants the sender's digest advert: its previous
// incarnation may have died owing us retractions, which its fresh
// incarnation will never re-send — the advert comparison finds exactly
// those — delegations included — O(δ log n) against a ledger that is
// in fact nearly correct. The
// request is best-effort, so it is repeated (rate-limited) on every later
// message of the stream until an advert of this epoch has been compared; the
// answer rides the sequenced stream like every digest, and cannot be lost or
// arrive early.
func (p *Peer) ingestDataLocked(from string, msg protocol.DataMsg, rep *StageReport, d *stageDeltas) bool {
	sess := p.sessionLocked(from)
	if !sess.accept(msg) {
		if sess.wedged(msg) {
			p.requestResetLocked(from)
		}
		return false
	}
	changed := p.ingestPayloadLocked(from, msg.Msg, rep, d)
	if sess.advertWanted && sess.repairAsked.due(p.outbox.now()) {
		p.stats.ResyncRequested++
		p.outbox.EnqueueControl(from, protocol.ResyncRequestMsg{})
	}
	return changed
}

// requestResetLocked asks a stream's sender, best-effort, to restart a
// stream this peer cannot follow — rate-limited per session
// (resyncRequestTTL) so retransmission storms and repeated digest adverts do
// not multiply resets.
func (p *Peer) requestResetLocked(from string) {
	if !p.sessionLocked(from).resetAsked.due(p.outbox.now()) {
		return
	}
	p.stats.ResyncRequested++
	p.outbox.EnqueueControl(from, protocol.ResyncRequestMsg{Reset: true})
}

// fullRange is the whole key-hash line: a relation's root digest is the
// digest of this range, and a whole view is the repair of it.
var fullRange = protocol.HashRange{Lo: 0, Hi: ^uint64(0)}

// handleDigestLocked compares a sender's digests against the session's
// per-sender support ledger. Digests only ever ride the sequenced stream, so
// each is compared at its own stream position: whatever the sender enqueued
// before it has been applied here, nothing after it has. A bisection reply
// goes straight to the compare step. A complete advert also states what it
// leaves out — a relation the ledger holds and the advert does not list is
// empty at the sender. Each relation whose digest disagrees enters the
// ranged dialogue with the advertised digest as its round zero — the digest
// of the full hash range. The templates the sender delegates here are one
// relation among them (engine.TemplateRel), the bindings of each another.
func (p *Peer) handleDigestLocked(from string, msg protocol.DigestMsg) {
	s := p.sessionLocked(from)
	if !msg.Advert {
		for _, relID := range slices.Sorted(maps.Keys(msg.Rels)) {
			p.compareRangesLocked(from, relID, msg.Rels[relID])
		}
		return
	}
	if s.advertWanted {
		// This advert was solicited (Advert repair request): the stamp that
		// rate-limited the request must not also suppress the repair the
		// comparison may conclude is needed.
		s.advertWanted = false
		s.repairAsked = limiter{}
	}
	rounds := make(map[string][]protocol.RangeDigest, len(msg.Rels)+len(s.trees))
	maps.Copy(rounds, msg.Rels)
	for relID := range s.trees {
		if _, ok := rounds[relID]; !ok {
			rounds[relID] = []protocol.RangeDigest{{Lo: fullRange.Lo, Hi: fullRange.Hi}}
		}
	}
	var diverged []string
	for relID, ranges := range rounds {
		for _, rd := range ranges {
			if s.rangeDigest(relID, rd.Lo, rd.Hi) != (store.Digest{Hash: rd.Hash, Count: rd.Count}) {
				diverged = append(diverged, relID)
				break
			}
		}
	}
	if len(diverged) == 0 {
		s.repairAsked = limiter{}
		return
	}
	if !s.repairAsked.due(p.outbox.now()) {
		return
	}
	p.stats.ResyncRequested++
	slices.Sort(diverged)
	for _, relID := range diverged {
		p.compareRangesLocked(from, relID, rounds[relID])
	}
}

// handleResyncRequestLocked serves a receiver's request for what the ranged
// dialogue does not carry. A reset request restarts the stream. An advert
// request comes from a requester that adopted a fresh epoch of this stream
// and wants the digest advert *now* instead of waiting out the advert clock
// — the comparison then repairs what differs, or nothing; no view is
// shipped. Like every advert it is sequenced: a requester still catching up
// with a busy stream compares it exactly when it reaches the advert's
// position, and it is retransmitted until acknowledged like any other entry.
func (p *Peer) handleResyncRequestLocked(from string, msg protocol.ResyncRequestMsg) {
	if msg.Reset {
		p.restartStreamLocked(from, p.outbox.Reset)
		return
	}
	p.outbox.EnqueueData(from, p.digestMsgLocked(from))
}

// restartStreamLocked restarts the stream to dst under a fresh epoch (reset
// is the outbox's Reset, or a shed's reset that drops the backlog): its
// first sequences are the full-range repair of every relation this peer
// maintains there, then a digest advert — against which dst finds whatever
// the run did not state, such as a relation this peer no longer maintains
// at all. The delegations it makes to dst are relations of the run like any.
func (p *Peer) restartStreamLocked(dst string, reset func(string, ...protocol.Payload)) {
	run := p.viewRepairsLocked(dst)
	p.countRepairsLocked(run)
	reset(dst, append(run, p.digestMsgLocked(dst))...)
}

// Ranged-repair tuning. The dialogue is receiver-driven and stateless: every
// round the receiver compares the sender's range digests against its own
// ledger trees, asks for the content of mismatching ranges that are cheap
// to re-ship or pointless to bisect, and splits anything else into
// rangedBisectFanout subranges for the next round — so a divergence of δ
// keys in a view of n costs O(δ·fanout·log n) digests plus O(δ) re-shipped
// facts instead of O(n). rangedMaxRanges caps the ranges of one message —
// bigger rounds ship as several independent requests (every round is
// stateless) — and rangedMaxRound the digests one reply may fan out into:
// divergence broad enough to blow past it is cheaper re-shipped than
// bisected further. repairChunkOps bounds the facts of one served repair
// message, whatever the request: a wide range ships as a run of messages
// over contiguous hash sub-ranges instead of one unbounded message.
const (
	rangedRepairLeaf   = 128
	rangedBisectFanout = 16
	rangedMaxRanges    = 512
	rangedMaxRound     = 4096
	repairChunkOps     = 4096
)

// splitRange cuts one hash range into up to rangedBisectFanout equal
// subranges (fewer when the range spans fewer hashes). The caller never
// splits a single-point range.
func splitRange(r protocol.HashRange) []protocol.HashRange {
	step := (r.Hi-r.Lo)/rangedBisectFanout + 1
	out := make([]protocol.HashRange, 0, rangedBisectFanout)
	lo := r.Lo
	for {
		hi := lo + step - 1
		if hi < lo || hi > r.Hi {
			hi = r.Hi // clamp the last subrange (and uint64 overflow) to the end
		}
		out = append(out, protocol.HashRange{Lo: lo, Hi: hi})
		if hi == r.Hi {
			return out
		}
		lo = hi + 1
	}
}

// compareRangesLocked is the one compare-and-route step of the repair
// dialogue, shared by its round zero (a digest advert) and every later
// round (a bisection reply), each compared at its own stream position. A
// round of more than rangedMaxRanges digests is refused. A range whose
// digest disagrees with the ledger tree is asked for outright when the
// sender counts at most rangedRepairLeaf facts in it, when it is a single
// hash, or when the ledger holds nothing in it — bisecting an empty side
// can only discover that every subrange differs, which is why a fresh
// receiver is repaired by the advert alone, each fact shipped once — and is
// split for the next round otherwise. The round's request asks for both; it
// is best-effort: a lost round is restarted by the next advert.
func (p *Peer) compareRangesLocked(from, relID string, ranges []protocol.RangeDigest) {
	if len(ranges) > rangedMaxRanges {
		return
	}
	s := p.sessionLocked(from)
	var repair, bisect []protocol.HashRange
	for _, rd := range ranges {
		if rd.Hi < rd.Lo {
			continue
		}
		d := s.rangeDigest(relID, rd.Lo, rd.Hi)
		if d.Hash == rd.Hash && d.Count == rd.Count {
			continue
		}
		r := protocol.HashRange{Lo: rd.Lo, Hi: rd.Hi}
		if rd.Count <= rangedRepairLeaf || rd.Lo == rd.Hi || d.Count == 0 {
			repair = append(repair, r)
		} else {
			bisect = append(bisect, r)
		}
	}
	if len(bisect)*rangedBisectFanout > rangedMaxRound {
		repair, bisect = append(repair, bisect...), nil
	}
	if len(repair) == 0 && len(bisect) == 0 {
		return // every range agreed: the divergence healed (or lives in another relation)
	}
	// Progress: re-arm the limiter so the periodic advert does not open a
	// competing dialogue mid-way.
	s.repairAsked = limiter{at: p.outbox.now()}
	p.stats.ResyncRangesRequested += uint64(len(repair))
	var deeper []protocol.HashRange
	for _, r := range bisect {
		deeper = append(deeper, splitRange(r)...)
	}
	req := protocol.RangeRequestMsg{RelID: relID, Repair: repair}
	for {
		n := min(len(deeper), rangedMaxRanges)
		req.Digest = deeper[:n]
		p.outbox.EnqueueControl(from, req)
		if deeper = deeper[n:]; len(deeper) == 0 {
			return
		}
		req = protocol.RangeRequestMsg{RelID: relID}
	}
}

// handleRangeRequestLocked serves one round of the repair dialogue as the
// stream's sender, inside the sequenced stream: the maintained facts of the
// Repair ranges as RangeRepairMsgs, then the digests of the Digest ranges —
// O(log n) each off the maintained view's summary tree — as one DigestMsg.
// Both are current as of their own stream position (stages enqueue under
// p.mu, so position and tree agree), so a receiver that lags a busy stream
// compares the digests exactly when it gets there.
func (p *Peer) handleRangeRequestLocked(from string, msg protocol.RangeRequestMsg) {
	if len(msg.Digest) > rangedMaxRanges || len(msg.Repair) > rangedMaxRanges {
		return
	}
	run := p.rangeRepairsLocked(from, msg.RelID, msg.Repair)
	p.countRepairsLocked(run)
	for _, m := range run {
		p.outbox.EnqueueData(from, m)
	}
	if len(msg.Digest) == 0 {
		return
	}
	tr := p.rv.Tree(from, msg.RelID)
	digests := make([]protocol.RangeDigest, 0, len(msg.Digest))
	for _, r := range msg.Digest {
		var d store.Digest
		if tr != nil {
			d = tr.RangeDigest(r.Lo, r.Hi)
		}
		digests = append(digests, protocol.RangeDigest{Lo: r.Lo, Hi: r.Hi, Hash: d.Hash, Count: d.Count})
	}
	reply := protocol.DigestMsg{Rels: map[string][]protocol.RangeDigest{msg.RelID: digests}}
	if b, err := protocol.EncodePayload(reply); err == nil {
		p.stats.ResyncRangeDigestBytes += uint64(len(b))
	}
	p.outbox.EnqueueData(from, reply)
}

// rangeRepairsLocked builds the repair of the given hash ranges of relID as
// maintained at dst: RangeRepairMsgs that between them cover exactly the
// ranges, each carrying whole sub-ranges together with every fact maintained
// in them and at most repairChunkOps facts in all. Narrow ranges share a
// message; a range holding more than fits is cut, in hash order, into
// contiguous sub-ranges across a run of messages. Every message is a
// self-contained statement about its own ranges, so a run needs no
// cross-message atomicity and a hostile full-range request costs the sender
// bounded messages like any other.
func (p *Peer) rangeRepairsLocked(dst, relID string, ranges []protocol.HashRange) []protocol.Payload {
	var run []protocol.Payload
	cur := protocol.RangeRepairMsg{RelID: relID}
	flush := func() {
		run = append(run, cur)
		cur = protocol.RangeRepairMsg{RelID: relID}
	}
	for _, r := range ranges {
		if r.Hi < r.Lo {
			continue
		}
		for lo := r.Lo; ; {
			facts, end := p.rv.RangeFacts(dst, relID, lo, r.Hi, repairChunkOps-len(cur.Ops))
			cur.Ranges = append(cur.Ranges, protocol.HashRange{Lo: lo, Hi: end})
			for _, f := range facts {
				cur.Ops = append(cur.Ops, protocol.FactDelta{Maint: true, Fact: f})
			}
			if end == r.Hi {
				break
			}
			flush()
			lo = end + 1
		}
		if len(cur.Ops) >= repairChunkOps {
			flush()
		}
	}
	if len(cur.Ranges) > 0 {
		flush()
	}
	return run
}

// viewRepairsLocked builds the repair of everything this peer maintains at
// dst: the full hash range of every relation, in relation order.
func (p *Peer) viewRepairsLocked(dst string) []protocol.Payload {
	digs := p.rv.Digests(dst)
	rels := make([]string, 0, len(digs))
	for relID := range digs {
		rels = append(rels, relID)
	}
	sort.Strings(rels)
	var run []protocol.Payload
	for _, relID := range rels {
		run = append(run, p.rangeRepairsLocked(dst, relID, []protocol.HashRange{fullRange})...)
	}
	return run
}

// repairBytes is the encoded size of a repair run.
func repairBytes(run []protocol.Payload) uint64 {
	var n uint64
	for _, m := range run {
		if b, err := protocol.EncodePayload(m); err == nil {
			n += uint64(len(b))
		}
	}
	return n
}

// countRepairsLocked records a repair run this peer is about to serve.
func (p *Peer) countRepairsLocked(run []protocol.Payload) {
	p.stats.ResyncRangedRepairs += uint64(len(run))
	p.stats.ResyncRangedRepairBytes += repairBytes(run)
}

// applyRangeRepairLocked applies one ranged repair: within the message's
// ranges, the sender's support here becomes exactly the message's ops —
// ledger facts inside the ranges that the ops do not cover are applied as
// maintained deletes (stale support from before a crash dies here; a tuple
// with a surviving local derivation is kept by the rederivation pass), then
// the ops as maintained inserts (both idempotent). An op that is not a
// maintained insert into RelID at this peer, or whose key hashes outside
// the stated ranges, is refused: nothing outside the ranges is touched. The
// message rides the sequenced stream, so it is ordered exactly-once against
// live deltas; applying it when the ranges no longer mismatch is harmless.
func (p *Peer) applyRangeRepairLocked(from string, msg protocol.RangeRepairMsg, rep *StageReport, d *stageDeltas) bool {
	sess := p.sessionLocked(from)
	if len(msg.Ranges) > rangedMaxRanges {
		rep.Errors = append(rep.Errors, fmt.Errorf(
			"peer %s: ranged repair from %s states %d ranges, over the cap of %d", p.name, from, len(msg.Ranges), rangedMaxRanges))
		return false
	}
	inRanges := func(h uint64) bool {
		for _, r := range msg.Ranges {
			if r.Lo <= h && h <= r.Hi {
				return true
			}
		}
		return false
	}
	covered := make(map[string]bool, len(msg.Ops))
	ins := make([]ingestOp, 0, len(msg.Ops))
	for _, fd := range msg.Ops {
		key := fd.Fact.Args.Key()
		if fd.Fact.Peer != p.name || fd.Delete || !fd.Maint || fd.Fact.Rel+"@"+fd.Fact.Peer != msg.RelID || !inRanges(store.KeyHash(key)) {
			rep.Errors = append(rep.Errors, fmt.Errorf(
				"peer %s: malformed ranged repair entry %s from %s", p.name, fd.String(), from))
			continue
		}
		covered[key] = true
		ins = append(ins, ingestOp{maint: true, src: from, fact: fd.Fact})
	}
	var ops []ingestOp
	if tr := sess.trees[msg.RelID]; tr != nil {
		name, peerName := store.SplitID(msg.RelID)
		for _, r := range msg.Ranges {
			keys, _ := tr.RangeKeys(r.Lo, r.Hi, 0)
			for _, key := range keys {
				if covered[key] {
					continue
				}
				// The ledger holds the keys it built itself: they decode.
				if t, err := value.DecodeKey(key); err == nil {
					ops = append(ops, ingestOp{del: true, maint: true, src: from,
						fact: ast.Fact{Rel: name, Peer: peerName, Args: t}})
				}
			}
		}
	}
	sess.repairAsked = limiter{}
	return p.applyOpsLocked(append(ops, ins...), rep, d)
}

// checkpointLocked rewrites the log to the live state: the extensional
// store, the outbox's delivery state and the applied watermarks. p.mu
// excludes the stage's appends, acks, resets and declarations, and
// outbox.checkpoint excludes concurrent enqueuers, so no record can reach
// the superseded file after the state is taken.
func (p *Peer) checkpointLocked(rep *StageReport) {
	err := p.outbox.checkpoint(func(st *store.OutboxState) error {
		for from, s := range p.inbound {
			if s.known {
				st.Applied[from] = store.AppliedMark{Epoch: s.epoch, Seq: s.seq}
			}
		}
		return p.wal.Checkpoint(p.db, p.name, st)
	})
	if err != nil {
		rep.Errors = append(rep.Errors, fmt.Errorf("peer %s: checkpointing the log: %w", p.name, err))
	}
}

// ingestPayloadLocked routes one protocol payload into the peer, reporting
// whether it changed state the fixpoint must observe.
func (p *Peer) ingestPayloadLocked(from string, payload protocol.Payload, rep *StageReport, d *stageDeltas) bool {
	changed := false
	switch msg := payload.(type) {
	case protocol.FactsMsg:
		batch := make([]ingestOp, 0, len(msg.Ops))
		for _, fd := range msg.Ops {
			if !engine.Reserved(fd.Fact.Rel) {
				p.stats.FactsIn++ // delegations count as DelegationsIn
			}
			if fd.Fact.Peer != p.name {
				rep.Errors = append(rep.Errors, fmt.Errorf(
					"peer %s: misrouted fact %s from %s", p.name, fd.Fact.String(), from))
				continue
			}
			batch = append(batch, ingestOp{del: fd.Delete, maint: fd.Maint, src: from, fact: fd.Fact})
		}
		if p.applyOpsLocked(batch, rep, d) {
			changed = true
		}
	case protocol.RangeRepairMsg:
		if p.applyRangeRepairLocked(from, msg, rep, d) {
			changed = true
		}
	case protocol.DigestMsg:
		// Anti-entropy digests: pure delivery bookkeeping plus, possibly, a
		// repair request — never themselves a reason to run the fixpoint.
		p.handleDigestLocked(from, msg)
	case protocol.RangeRequestMsg:
		p.handleRangeRequestLocked(from, msg)
	case protocol.ResyncRequestMsg:
		p.handleResyncRequestLocked(from, msg)
	case protocol.ControlMsg:
		if msg.Kind == protocol.ControlPing {
			p.outbox.EnqueueControl(from, protocol.ControlMsg{Kind: protocol.ControlPong, Token: msg.Token})
		}
	default:
		rep.Errors = append(rep.Errors, fmt.Errorf("peer %s: unknown message %T from %s", p.name, payload, from))
	}
	return changed
}

// applyOpsLocked applies a sequence of fact operations, recording the net
// deltas and reporting whether any changed the peer's state. Every fact of
// an extensional relation goes through one path: consecutive runs of the
// same operation on the same relation are applied together — one store lock
// acquisition and one WAL append run per run, a single fact being a run of
// one — which is what makes a 1000-fact Batch a single cheap transaction.
// An insert into a relation this peer does not know declares it extensional
// first ("peers may discover … new relations"). Intensional facts, arity
// mismatches, deletes from unknown relations and maintained retractions take
// the per-fact path (applyFactLocked), and delegations their own
// (applyDelegationLocked), preserving operation order either way.
func (p *Peer) applyOpsLocked(ops []ingestOp, rep *StageReport, d *stageDeltas) bool {
	changed := false
	for i := 0; i < len(ops); {
		op := ops[i]
		f := op.fact
		if engine.Reserved(f.Rel) {
			if p.applyDelegationLocked(op, rep, d) {
				changed = true
			}
			i++
			continue
		}
		rel := p.db.Get(f.Rel, p.name)
		if rel == nil && !op.del {
			schema := store.Schema{Name: f.Rel, Peer: p.name, Kind: ast.Extensional, Cols: store.GenericCols(len(f.Args))}
			var err error
			if rel, err = p.db.Declare(schema); err != nil {
				rep.Errors = append(rep.Errors, err)
				i++
				continue
			}
			if p.wal != nil {
				if err := p.wal.LogDeclare(schema); err != nil {
					rep.Errors = append(rep.Errors, err)
				}
			}
		}
		if rel == nil || rel.Kind() != ast.Extensional || len(f.Args) != rel.Schema().Arity() ||
			(op.maint && op.del) {
			if p.applyFactLocked(op, rep, d) {
				changed = true
			}
			i++
			continue
		}
		// Extend the run while the op and relation stay the same.
		j := i + 1
		for j < len(ops) &&
			ops[j].del == op.del &&
			!(ops[j].maint && ops[j].del) &&
			ops[j].fact.Rel == f.Rel &&
			len(ops[j].fact.Args) == rel.Schema().Arity() {
			j++
		}
		// The run goes onto its delta list; the store keeps what it applied
		// there, and the rest is cut. The ledger, store and deltas share keys.
		relID := rel.ID()
		rd := d.rel(relID)
		ch := &rd.ins
		if op.del {
			ch = &rd.del
		}
		base := len(ch.ts)
		ch.ts, ch.keys = slices.Grow(ch.ts, j-i), slices.Grow(ch.keys, j-i)
		for k := i; k < j; k++ {
			t, key := ops[k].fact.Args, ""
			if op.del {
				key = t.Key()
			} else {
				t, key = p.keyOf(t)
			}
			ch.add(t, key)
			// Maintained inserts into an extensional relation: the sender
			// keeps them in its remote view, so the session ledger mirrors
			// them (dedup inside ledgerAdd), applied or not. Runs may mix
			// maintained and one-shot inserts; only the maintained ones are
			// ledgered.
			if ops[k].maint {
				p.sessionLocked(ops[k].src).ledgerAdd(relID, key)
			}
		}
		n := rel.ApplyMany(op.del, ch.ts[base:], ch.keys[base:])
		ch.ts, ch.keys = ch.ts[:base+n], ch.keys[:base+n]
		if n > 0 {
			applied := ch.ts[base:]
			changed = true
			rep.Applied += n
			p.stats.UpdatesApplied += uint64(n)
			if p.wal != nil {
				if err := p.wal.LogMany(op.del, f.Rel, p.name, applied); err != nil {
					rep.Errors = append(rep.Errors, err)
				}
			}
		}
		i = j
	}
	return changed
}

// applyFactLocked routes one fact delta that applyOpsLocked's extensional
// path does not take: intensional facts — transient seeds when unmaintained,
// holding until the next stage that runs, and per-sender supported tuples
// when maintained — arity mismatches, deletes from unknown relations, and
// maintained retractions of extensional facts, which are ignored (durable
// updates are never unwound by lost derivations). It returns true if the
// peer's state changed in a way the fixpoint must observe.
//
// Maintained deltas additionally keep the sender's session ledger in step:
// it mirrors the sender's remote view of this peer — what anti-entropy
// digests are compared against and what a ranged repair rewrites — so it
// is updated whether or not the store membership changed.
func (p *Peer) applyFactLocked(op ingestOp, rep *StageReport, d *stageDeltas) bool {
	f := op.fact
	// One key for the whole path: the ledger and the store share its bytes.
	var key string
	if op.del {
		key = f.Args.Key()
	} else {
		f.Args, key = p.keyOf(f.Args)
	}
	relID := f.Rel + "@" + p.name
	dropped := false // op.src maintained the fact until this delete
	if op.maint {
		sess := p.sessionLocked(op.src)
		if op.del {
			dropped = sess.ledgerRemove(relID, key)
		} else {
			sess.ledgerAdd(relID, key)
		}
	}
	rel := p.db.Get(f.Rel, p.name)
	if rel == nil {
		return false // deleting from an unknown relation: nothing to do
	}
	if len(f.Args) != rel.Schema().Arity() {
		rep.Errors = append(rep.Errors, fmt.Errorf(
			"peer %s: %w: fact %s has wrong arity for %s", p.name, errdefs.ErrArity, f.String(), relID))
		return false
	}
	if rel.Kind() != ast.Intensional {
		return false // a maintained retraction of an extensional fact
	}
	if op.maint {
		if op.del {
			// The sender no longer derives the fact (its ledger entry went
			// above). The tuple becomes a deletion candidate only when the
			// last supporter goes; a local derivation can still keep it. A
			// transient seed from this very stage shields it until the
			// normal expiry decides.
			if dropped && !p.supportedLocked(relID, key) && rel.Contains(f.Args) &&
				p.freshTransient[relID][key] == nil {
				d.addCand(relID, key, f.Args)
				return true
			}
			return false
		}
		// Re-supporting a tuple cancels a same-stage deletion candidate
		// (a maintained insert/retract/insert run coalesced into one
		// ingestion nets out to "supported").
		cancelled := d.removeCand(relID, key)
		if rel.InsertKeyed(f.Args, key) {
			d.rel(relID).ins.add(f.Args, key)
			rep.Seeds++
			return true
		}
		return cancelled
	}
	if op.del {
		rep.Errors = append(rep.Errors, fmt.Errorf(
			"peer %s: cannot delete transient fact %s from intensional relation", p.name, f.String()))
		return false
	}
	// Transient seed: hold until the next stage that runs. It also
	// shields the tuple from a same-stage support-loss candidate.
	if p.freshTransient == nil {
		p.freshTransient = map[string]map[string]value.Tuple{}
	}
	putTuple(p.freshTransient, relID, key, f.Args)
	cancelled := d.removeCand(relID, key)
	if rel.InsertKeyed(f.Args, key) {
		d.rel(relID).ins.add(f.Args, key)
		rep.Seeds++
		return true
	}
	return cancelled
}

// compileLocked rebuilds the engine program from own rules and delegated
// templates, listed by key. Unsafe rules are skipped with errors recorded;
// if stratification fails with delegated rules included, the peer falls
// back to its own rules so a hostile delegation cannot wedge it.
func (p *Peer) compileLocked(rep *StageReport) {
	rules := slices.Clone(p.ownRules)
	for _, key := range slices.Sorted(maps.Keys(p.delegated)) {
		rules = append(rules, p.delegated[key])
	}
	prog, errs := p.eng.CompileRules(rules)
	if prog == nil {
		rep.Errors = append(rep.Errors, fmt.Errorf(
			"peer %s: program with delegated rules does not stratify; quarantining delegations", p.name))
		var errs2 []error
		prog, errs2 = p.eng.CompileRules(p.ownRules)
		errs = append(errs, errs2...)
	}
	if prog == nil {
		prog, _ = p.eng.CompileRules(nil) // no rules at all still stratifies
	}
	p.compileErr = errs
	for _, err := range errs {
		rep.Errors = append(rep.Errors, fmt.Errorf("peer %s: %w", p.name, err))
	}
	p.prog = prog
	p.progDirty = false
}

// applyDelegationLocked applies one delta of the reserved relations
// delegations travel in (engine.TemplateRel): a template its sender
// delegates here or a binding of one. Both are maintained facts the sender's
// ledger mirrors like any other — digests, ranged repair and epoch adoption
// cover delegations — and only a sender's own delegations are taken. A
// binding is a fact of its template's intensional relation, so a valuation
// arriving or leaving is a fact delta; a template, once the controller
// accepts it, is one rule of the program. Anything else reserved is
// refused. It reports whether the fixpoint must observe the change.
func (p *Peer) applyDelegationLocked(op ingestOp, rep *StageReport, d *stageDeltas) bool {
	f, origin := op.fact, op.src
	var ruleID string
	var rule ast.Rule
	var err error
	switch {
	case f.Rel == engine.TemplateRel:
		origin, ruleID, rule, err = engine.Template(f.Args, p.name)
	case !engine.IsBinding(f.Rel, op.src):
		err = errors.New("not a delegation of its sender's")
	}
	if err == nil && (!op.maint || origin != op.src) {
		err = errors.New("not maintained by its origin")
	}
	if err != nil {
		rep.Errors = append(rep.Errors, fmt.Errorf("peer %s: delegation %s from %s refused: %w", p.name, f.String(), op.src, err))
		return false
	}
	sess, relID, key := p.sessionLocked(op.src), f.Rel+"@"+p.name, f.Args.Key()
	if f.Rel != engine.TemplateRel {
		if !op.del && !sess.ledgerHas(relID, key) {
			schema := store.Schema{Name: f.Rel, Peer: p.name, Kind: ast.Intensional, Cols: store.GenericCols(len(f.Args))}
			if _, err := p.db.Declare(schema); err != nil {
				rep.Errors = append(rep.Errors, fmt.Errorf("peer %s: binding %s from %s refused: %w", p.name, f.String(), op.src, err))
				return false
			}
			p.stats.DelegationsIn++
			if t, ok := p.held[f.Rel]; ok {
				p.decideLocked(t, rep) // the rule's next instance asks again
			}
		}
		return p.applyFactLocked(op, rep, d)
	}
	// Its ID names its origin: installed, it may delegate on, and a third
	// peer's controller must tell it from this peer's and other origins' rules.
	rule.ID, rule.Origin = origin+":"+ruleID, origin
	t := acl.Template{Origin: origin, RuleID: ruleID, Key: key, Rule: rule}
	if op.del {
		if sess.ledgerRemove(relID, key) {
			p.ctrl.Withdraw(key)
			delete(p.held, bindingOf(t))
			if _, ok := p.delegated[key]; ok {
				delete(p.delegated, key)
				p.progDirty = true
			}
		}
	} else if !sess.ledgerHas(relID, key) {
		sess.ledgerAdd(relID, key)
		p.stats.DelegationsIn++
		p.decideLocked(t, rep)
	}
	return false
}

// decideLocked asks the controller about template t and installs it if
// accepted; held or rejected, its next binding asks again (held).
func (p *Peer) decideLocked(t acl.Template, rep *StageReport) {
	switch p.ctrl.Decide(t) {
	case acl.Accept:
		p.installLocked(t)
		return
	case acl.Reject:
		rep.Errors = append(rep.Errors, fmt.Errorf(
			"peer %s: %w: delegation %s from %s", p.name, errdefs.ErrPolicyDenied, t.RuleID, t.Origin))
	}
	if bind := bindingOf(t); bind != "" {
		p.held[bind] = t
	}
}

// installLocked adds accepted template t to the program's next delta.
func (p *Peer) installLocked(t acl.Template) {
	delete(p.held, bindingOf(t))
	if _, ok := p.delegated[t.Key]; !ok {
		p.delegated[t.Key], p.progDirty = t.Rule, true
	}
}

// bindingOf returns the binding relation template t reads, "" if none.
func bindingOf(t acl.Template) string {
	if len(t.Rule.Body) > 0 && engine.IsBinding(t.Rule.Body[0].Rel.Val.StringVal(), t.Origin) {
		return t.Rule.Body[0].Rel.Val.StringVal()
	}
	return ""
}

// installApprovedLocked installs the templates the controller approved
// since the last stage (acl.Controller.Accept) that their origin still
// delegates.
func (p *Peer) installApprovedLocked() {
	for _, t := range p.ctrl.TakeApproved() {
		if p.sessionLocked(t.Origin).ledgerHas(engine.TemplateRel+"@"+p.name, t.Key) {
			p.installLocked(t)
		}
	}
}

// emitFactsLocked ships the engine's remote deltas: maintained inserts for
// newly derived facts, templates and bindings, maintained deletes for those
// whose last derivation vanished, and pass-through one-shot deletion-rule
// updates — one FactsMsg per destination instead of re-sending every derived
// fact every stage.
//
// Emission commits to the per-destination outbox and returns immediately:
// the engine's maintained remoteView counts these deltas as delivered, and
// the outbox upholds that by retrying until the destination acknowledges
// them — the stage never blocks on a dial and never loses a delta.
func (p *Peer) emitFactsLocked(res *engine.Result, rep *StageReport) {
	for _, dst := range res.RemotePeers() {
		ops := res.RemoteOut[dst]
		deltas := make([]protocol.FactDelta, len(ops))
		for i, op := range ops {
			del := op.Op == ast.Delete
			deltas[i] = protocol.FactDelta{Delete: del, Maint: op.Maint, Fact: op.Fact}
			switch {
			case !engine.Reserved(op.Fact.Rel):
				rep.FactsSent++
				p.stats.FactsOut++
			case del:
				rep.DelegationsSent++
				p.stats.Withdrawals++
			default:
				rep.DelegationsSent++
				p.stats.DelegationsOut++
			}
		}
		p.outbox.EnqueueData(dst, protocol.FactsMsg{Ops: deltas})
	}
}

// Run drives the peer until ctx is cancelled: stages run whenever there is
// work, and the goroutine sleeps on transport/API wakeups otherwise. This
// is the deployment loop for TCP networks; in-process tests prefer
// Network.RunToQuiescence for determinism.
func (p *Peer) Run(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if p.HasWork() {
			p.RunStage()
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-p.ep.Notify():
		case <-p.wake:
		}
	}
}
