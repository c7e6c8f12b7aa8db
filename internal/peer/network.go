package peer

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/errdefs"
	"repro/internal/transport"
)

// Network is an in-process collection of peers connected by a transport.Bus,
// with round-based scheduling and quiescence detection. It is the harness
// used by tests, benchmarks, the examples and the single-process demo mode
// ("launch their own Wepic peer" on one machine).
//
// By default independent peers' stages run concurrently on a bounded worker
// pool (each peer's own lock serializes its stages). NewSequentialNetwork
// builds the deterministic variant: name-ordered sequential stages and
// synchronous outbox flushes, the mode deterministic multi-peer tests rely
// on.
type Network struct {
	bus *transport.Bus

	mu    sync.Mutex
	peers map[string]*Peer
	// list is the registered peers in name order. Add replaces it and never
	// writes into it, so the schedulers range over the slice they read
	// (snapshot) instead of a copy.
	list []*Peer

	sequential bool

	// Wake-queue scheduler state (concurrent mode only). Peers and outboxes
	// report gaining work through hooks (kick → markReady, outbox enqueue →
	// markOutbox, endpoint delivery → markReady), so each round examines only
	// the peers that were woken — O(active peers) — instead of scanning the
	// whole network: a quiescent region of a 100k-peer swarm costs nothing.
	// schedMu is a leaf lock: nothing else is ever acquired under it, so the
	// hooks are safe to fire from any goroutine and lock context.
	schedMu sync.Mutex
	ready   map[string]struct{} // woken peers (set half: dedupe)
	readyq  []string            // woken peers (queue half: FIFO order)
	obAct   map[string]struct{} // peers whose outbox may have pending entries
	wakeCh  chan struct{}       // 1-slot, edge-triggered: some hook fired

	// scans counts peers examined by the scheduler (HasWork / OutboxPending
	// probes). TestSchedulerScansQuiescent and TestSwarmQuiescentScans assert
	// it stays flat across a RunToQuiescence on an already-quiescent network.
	scans atomic.Uint64
}

// NewNetwork creates an empty network over a fresh bus with the concurrent
// scheduler.
func NewNetwork() *Network {
	return &Network{
		bus:    transport.NewBus(),
		peers:  make(map[string]*Peer),
		ready:  make(map[string]struct{}),
		obAct:  make(map[string]struct{}),
		wakeCh: make(chan struct{}, 1),
	}
}

// NewSequentialNetwork creates a network whose scheduler runs stages one at
// a time in peer-name order and whose peers (created via NewPeer) flush
// their outboxes synchronously at the end of each stage — fully
// deterministic, at the price of stages blocking on emission.
func NewSequentialNetwork() *Network {
	n := NewNetwork()
	n.sequential = true
	return n
}

// Bus returns the underlying transport bus.
func (n *Network) Bus() *transport.Bus { return n.bus }

// NewPeer creates a peer with the given config, attached to the network's
// bus, and registers it. On a sequential network the peer is created in
// sync-emit mode (see Config.SyncEmit).
func (n *Network) NewPeer(cfg Config) (*Peer, error) {
	if n.sequential {
		cfg.SyncEmit = true
	}
	ep := n.bus.Endpoint(cfg.Name)
	p, err := New(cfg, ep)
	if err != nil {
		return nil, err
	}
	n.Add(p)
	return p, nil
}

// Add registers an externally-created peer (it must be attached to this
// network's bus for messages to flow). Registering a peer under a name
// already present replaces the old registration — a restarted peer takes
// over its name; close the previous instance first.
func (n *Network) Add(p *Peer) {
	name := p.Name()
	n.mu.Lock()
	n.peers[name] = p
	i, dup := slices.BinarySearchFunc(n.list, name, func(q *Peer, name string) int { return strings.Compare(q.Name(), name) })
	list := append(append(make([]*Peer, 0, len(n.list)+1), n.list[:i]...), p)
	if dup {
		i++ // a restarted peer takes its predecessor's place
	}
	n.list = append(list, n.list[i:]...)
	sequential := n.sequential
	n.mu.Unlock()
	if sequential {
		return
	}
	// Wire the peer into the wake queue: message arrival at its endpoint and
	// every internal kick mark it ready; outbox enqueues mark its outbox
	// active.
	p.ep.SetWakeHook(func() { n.markReady(name) })
	p.setSchedHooks(func() { n.markReady(name) }, func() { n.markOutbox(name) })
	// Conservative initial state: the peer may already hold work (recovered
	// WAL state, pre-attach deliveries) and has never run a stage.
	n.markReady(name)
	n.markOutbox(name)
}

// markReady records that a peer may have stage work and wakes the scheduler.
// Safe from any goroutine; schedMu is a leaf lock.
func (n *Network) markReady(name string) {
	n.schedMu.Lock()
	if _, ok := n.ready[name]; !ok {
		n.ready[name] = struct{}{}
		n.readyq = append(n.readyq, name)
	}
	n.schedMu.Unlock()
	select {
	case n.wakeCh <- struct{}{}:
	default:
	}
}

// markOutbox records that a peer's outbox may have undrained entries.
func (n *Network) markOutbox(name string) {
	n.schedMu.Lock()
	n.obAct[name] = struct{}{}
	n.schedMu.Unlock()
	select {
	case n.wakeCh <- struct{}{}:
	default:
	}
}

// SchedulerScans returns the cumulative number of peers the concurrent
// scheduler has examined (HasWork / outbox probes). On a quiescent network a
// RunToQuiescence adds zero: no hook fired, so nothing is examined.
func (n *Network) SchedulerScans() uint64 { return n.scans.Load() }

// Peer returns the registered peer with the given name, or nil.
func (n *Network) Peer(name string) *Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peers[name]
}

// Peers returns all registered peers in name order, in a slice the caller
// may keep.
func (n *Network) Peers() []*Peer {
	return slices.Clone(n.snapshot())
}

// snapshot returns the registered peers in name order, read-only: a peer
// that registers later is in the next snapshot.
func (n *Network) snapshot() []*Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.list
}

// QuiescenceError reports that RunToQuiescence hit its round budget, which
// usually means the program oscillates (e.g. rules that insert and delete
// the same fact forever). It wraps errdefs.ErrNoQuiescence, so
// errors.Is(err, webdamlog.ErrNoQuiescence) matches and errors.As recovers
// the round count.
type QuiescenceError struct {
	Rounds int
}

// Error implements the error interface.
func (e *QuiescenceError) Error() string {
	return fmt.Sprintf("peer: network did not quiesce within %d rounds", e.Rounds)
}

// Unwrap ties the error into the public taxonomy.
func (e *QuiescenceError) Unwrap() error { return errdefs.ErrNoQuiescence }

// RunToQuiescence drives stages until the network quiesces: no peer has
// work, every outbox is drained (all sequenced messages acknowledged), and
// hence no message or ack is in flight. It returns the number of scheduler
// rounds and the stages that actually ran. maxRounds bounds the loop (<=0
// uses the default of 1000 rounds).
//
// The peer set is re-snapshotted every round, so a peer added mid-run (e.g.
// discovered via delegation) is scheduled as soon as it appears.
//
// Outbox entries whose destination is currently unreachable (every delivery
// attempt failing, retrying under backoff) do not prevent quiescence: the
// call returns with the entries still queued — their flushers keep retrying
// in the background, and a later RunToQuiescence resumes driving the stages
// their delivery triggers.
//
// The context is checked between peer stages: cancellation makes the call
// return promptly with ctx's error, leaving already-completed stages
// committed (stages are atomic; the run as a whole is resumable by simply
// calling RunToQuiescence again).
func (n *Network) RunToQuiescence(ctx context.Context, maxRounds int) (rounds, stages int, err error) {
	if maxRounds <= 0 {
		maxRounds = 1000
	}
	if n.sequential {
		return n.runSequential(ctx, maxRounds)
	}
	return n.runConcurrent(ctx, maxRounds)
}

// runSequential is the deterministic scheduler: one stage at a time, peers
// in name order, outboxes flushed inline after every stage so each message
// is visible to the receiver within the round it was emitted.
func (n *Network) runSequential(ctx context.Context, maxRounds int) (rounds, stages int, err error) {
	for r := 0; r < maxRounds; r++ {
		progressed := false
		delivered := false
		for _, p := range n.snapshot() { // peers may join mid-run: read every round
			if err := ctx.Err(); err != nil {
				return rounds, stages, err
			}
			if p.HasWork() {
				rep := p.RunStage()
				progressed = true
				if rep.Ran {
					stages++
				}
			}
			// Flush regardless of HasWork: sync-emit peers flushed in
			// RunStage (no-op here), async peers attached to a sequential
			// network get their delivery driven by the scheduler.
			if p.FlushOutbox() {
				delivered = true
			}
		}
		if !progressed {
			if n.outboxesDrained() {
				return r, stages, nil
			}
			if !delivered {
				// Undelivered entries with every attempt failing: quiescent
				// as far as this network can drive it. The entries stay
				// queued for retry.
				return r, stages, nil
			}
		}
		rounds = r + 1
	}
	return rounds, stages, &QuiescenceError{Rounds: maxRounds}
}

// runConcurrent is the default scheduler: wake-queue driven. Each round
// stages the peers the wake queue surfaced (not every peer) on a bounded
// worker pool; when the queue is empty it accelerates delivery on the
// outboxes known to be active and decides quiescence from those sets alone.
// Work discovery is O(active peers): a peer that stays quiet is never
// examined, so idle regions of a large swarm cost nothing per round.
func (n *Network) runConcurrent(ctx context.Context, maxRounds int) (rounds, stages int, err error) {
	for r := 0; r < maxRounds; r++ {
		if err := ctx.Err(); err != nil {
			return rounds, stages, err
		}
		work := n.takeReady()
		if len(work) == 0 {
			total, stalled, delivered := n.checkOutboxes()
			if !n.readyPending() {
				if total == 0 {
					return r, stages, nil
				}
				if !delivered && total == stalled {
					// Every pending entry is behind a failing destination's
					// backoff gate: unreachable peers must not wedge the
					// scheduler. Background flushers keep retrying.
					return r, stages, nil
				}
				if !delivered {
					// In-flight flushers (or backoff gates about to expire):
					// sleep until a hook fires or a short tick elapses rather
					// than spinning.
					select {
					case <-ctx.Done():
						return rounds, stages, ctx.Err()
					case <-n.wakeCh:
					case <-time.After(200 * time.Microsecond):
					}
				}
			}
			rounds = r + 1
			continue
		}

		stages += n.stageRound(work)
		// Sync-emit peers flushed inside RunStage; should one of those
		// flushes have found its queue busy, the enqueue hook has marked the
		// outbox active and checkOutboxes delivers the entry.
		for _, p := range work {
			if !p.outbox.sync {
				p.FlushOutbox()
			}
		}
		rounds = r + 1
	}
	return rounds, stages, &QuiescenceError{Rounds: maxRounds}
}

// stageRound runs one stage of every peer in work on a pool of
// min(GOMAXPROCS, len(work)) workers, the calling goroutine one of them:
// each worker takes the next peer from a shared index until none is left,
// so a round starts at most GOMAXPROCS-1 goroutines, whatever its size, and
// all of them have exited when it returns. It returns the stages that ran.
func (n *Network) stageRound(work []*Peer) int {
	var next, ran atomic.Int64
	worker := func() {
		for i := int(next.Add(1)) - 1; i < len(work); i = int(next.Add(1)) - 1 {
			p := work[i]
			if p.RunStage().Ran {
				ran.Add(1)
			}
			if p.HasWork() {
				// A stage can queue its own follow-up work (staged local
				// updates) without a kick; re-wake explicitly.
				n.markReady(p.Name())
			}
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(work)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	return int(ran.Load())
}

// takeReady drains the wake queue and returns the woken peers that actually
// have work, in wake order (the ready set keeps the queue free of
// duplicates). A popped peer whose work check comes up empty is simply
// dropped: any later work-gaining event re-marks it, because hooks fire
// after the state they report is published.
func (n *Network) takeReady() []*Peer {
	n.schedMu.Lock()
	names := n.readyq
	n.readyq = nil
	clear(n.ready)
	n.schedMu.Unlock()
	var work []*Peer
	for _, name := range names {
		p := n.Peer(name)
		if p == nil {
			continue // woken before registration, or removed
		}
		n.scans.Add(1)
		if p.HasWork() {
			work = append(work, p)
		}
	}
	return work
}

// checkOutboxes accelerates delivery on the outboxes marked active and
// returns their pending totals plus whether this pass delivered anything.
// A drained outbox is retired from the set — with a re-check after the
// removal, so an enqueue racing the probe (its hook firing between our read
// and our delete) is never lost.
func (n *Network) checkOutboxes() (total, stalled int, delivered bool) {
	n.schedMu.Lock()
	names := make([]string, 0, len(n.obAct))
	for name := range n.obAct {
		names = append(names, name)
	}
	n.schedMu.Unlock()
	for _, name := range names {
		p := n.Peer(name)
		if p == nil {
			n.schedMu.Lock()
			delete(n.obAct, name)
			n.schedMu.Unlock()
			continue
		}
		n.scans.Add(1)
		if p.FlushOutbox() {
			delivered = true
		}
		t, s := p.OutboxPending()
		if t == 0 {
			n.schedMu.Lock()
			delete(n.obAct, name)
			n.schedMu.Unlock()
			if t2, _ := p.OutboxPending(); t2 > 0 {
				// Enqueue raced the retirement: re-mark and keep counting it
				// as pending (not stalled, so the scheduler keeps driving).
				n.markOutbox(name)
				total += t2
			}
			continue
		}
		total += t
		stalled += s
	}
	return total, stalled, delivered
}

// readyPending reports whether any wake-queue entry exists without consuming
// the queue — the guard that keeps quiescence decisions honest when
// checkOutboxes' deliveries just woke receivers.
func (n *Network) readyPending() bool {
	n.schedMu.Lock()
	defer n.schedMu.Unlock()
	return len(n.ready) > 0
}

func (n *Network) outboxesDrained() bool {
	total, _ := n.outboxTotals()
	return total == 0
}

func (n *Network) outboxTotals() (total, stalled int) {
	for _, p := range n.snapshot() {
		t, s := p.OutboxPending()
		total += t
		stalled += s
	}
	return total, stalled
}

// StageAll runs at most one stage on every peer that has work — including
// peers that gain work (or are registered) while the pass is running. It
// returns the reports of the stages that ran.
func (n *Network) StageAll() []*StageReport {
	var out []*StageReport
	staged := map[string]bool{}
	for {
		progressed := false
		for _, p := range n.snapshot() {
			if staged[p.Name()] || !p.HasWork() {
				continue
			}
			staged[p.Name()] = true
			out = append(out, p.RunStage())
			p.FlushOutbox()
			progressed = true
		}
		if !progressed {
			return out
		}
	}
}
