// Package peer implements the WebdamLog peer: a named participant that owns
// relations, runs a rule program with the engine, and exchanges facts and
// delegations with other peers over a transport.
//
// Each peer executes computation *stages* exactly as the paper describes
// (§2): "First, the peer loads the inputs received from the remote peers
// since the previous stage. Second, the peer runs a fixpoint computation of
// its program. Third, the peer sends facts (updates) and rules
// (delegations) to other peers."
//
// Programs are dynamic: rules can be added and removed at run time (the
// Wepic "customize rules" scenario), and delegations install rules from
// remote peers, subject to the access-control policy (acl package).
package peer

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acl"
	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/errdefs"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/protocol"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/value"
)

// Config configures a peer.
type Config struct {
	// Name is the peer's globally-unique name.
	Name string
	// Engine holds evaluation options; nil means engine.DefaultOptions.
	Engine *engine.Options
	// Interner, when non-nil, deduplicates stored strings and tuples through
	// the given intern table: every relation insert stores the canonical
	// interned tuple (and its canonical key string), so a fact replicated
	// across thousands of peers sharing one interner costs one tuple plus a
	// map entry per replica instead of a full copy. Share one interner per
	// swarm (TestSwarmMemoryScaling gates the sub-linear memory this buys).
	// The table is append-only: it never evicts, so it is suited to
	// corpus-like data, not unbounded unique streams.
	Interner *value.Interner
	// WAL, when not empty, is the directory of the peer's durable log (its
	// extensional relations and delivery state), which New opens and Close
	// closes.
	WAL string
	// Policy controls incoming delegations; nil accepts everything.
	Policy acl.Policy
	// SyncEmit disables the outbox's background flusher goroutines: outgoing
	// messages are flushed synchronously at the end of every RunStage
	// instead, which keeps in-process multi-peer tests deterministic.
	// NewSequentialNetwork sets it on the peers it creates. Sync emission
	// assumes a reliable transport (the in-process bus): failed sends stay
	// queued and retry at the next flush, but there is no retransmit timer.
	SyncEmit bool
	// ResyncInterval is the anti-entropy period: roughly this often (per
	// destination with a maintained remote view) the peer enqueues, in its
	// sequenced stream there, an advert of order-insensitive digests of
	// what it maintains there — never a second while one awaits its ack —
	// and receivers whose own ledger digests differ repair the difference
	// through the ranged dialogue (range digests narrow the divergence, only
	// differing ranges are re-shipped — O(δ log n) bytes for a
	// nearly-correct ledger, the view shipped once for an empty one). Zero
	// keeps the default (5s); a negative value disables periodic adverts
	// (repair on epoch adoption and stream wedges stays active — it is
	// data-driven, not timer-driven).
	ResyncInterval time.Duration

	// Metrics, when non-nil, registers this peer's runtime metrics with the
	// registry (metrics.go: stage latency and fixpoint rounds, outbox
	// depth and delivery counters, backpressure and shed counters, resync
	// traffic, subscription drops, planner cache hits). Many peers may
	// share one registry; each labels its series with its name.
	Metrics *metrics.Registry
	// OutboxLimit bounds each destination's unacknowledged outbox queue
	// for admission-controlled intake (Apply): a full queue blocks or
	// rejects the caller per Admission. 0 = unbounded. Stage emissions are
	// exempt — a committed fixpoint's deltas always reach the stream — so
	// a queue can overshoot by one stage's output; the bound is on
	// API-driven intake, where unbounded growth originates.
	OutboxLimit int
	// MaxPendingOps bounds the staged-local-update queue the same way:
	// Apply blocks (or fails fast) once this many operations await the
	// next stage. 0 = unbounded. Insert/Delete and stage-produced local
	// updates are exempt for the same reason stage emissions are.
	MaxPendingOps int
	// Admission selects what Apply does when a bounded queue is full:
	// AdmitBlock (default) waits for space under the caller's context,
	// AdmitFailFast returns ErrBackpressure immediately.
	Admission AdmissionPolicy
	// OutboxShedAfter arms slow-peer shedding: a destination whose queue
	// has pending entries but no ack progress for this long has its stream
	// shed — reset under a fresh epoch with the full-range repair of the
	// maintained view as its first sequences, the wedged backlog discarded.
	// When the destination recovers it adopts the new stream and
	// anti-entropy (digest adverts, ranged repairs) settles it. 0 disables
	// shedding.
	// Only async (non-SyncEmit) peers shed.
	OutboxShedAfter time.Duration
}

// AdmissionPolicy selects Apply's behavior at a full bounded queue (see
// Config.OutboxLimit and Config.MaxPendingOps).
type AdmissionPolicy int

const (
	// AdmitBlock blocks the Apply caller until space frees or its context
	// is done (the context error arrives wrapped with ErrBackpressure).
	AdmitBlock AdmissionPolicy = iota
	// AdmitFailFast rejects immediately with ErrBackpressure.
	AdmitFailFast
)

// Hooks lets wrappers synchronize external state around each stage.
type Hooks interface {
	// BeforeStage runs after inputs are ingested, before the fixpoint, with
	// the peer lock released. It pulls external state by adding operations
	// on this peer's relations to pull, never by mutating the store: the
	// peer applies the pull as ordinary ingestion in the same stage, so
	// what it changed is logged and maintained incrementally like any
	// other update, and rows already present are no-ops.
	BeforeStage(p *Peer, pull *engine.Batch) error
	// AfterStage runs after outputs have been sent.
	AfterStage(p *Peer, rep *StageReport) error
}

// Stats accumulates peer-lifetime counters. RuntimeErrors counts every error
// a stage reported (StageReport.Errors): rule evaluation, refused or
// malformed input, persistence, hooks.
//
// DelegationsIn counts the template and binding inserts delegated here (each
// once, when its sender starts maintaining it), DelegationsOut the template
// and binding inserts this peer shipped and Withdrawals the deletes; FactsIn
// and FactsOut count the other facts. A new valuation of a delegating rule
// whose template stands is one binding: one delegation.
type Stats struct {
	Stages         uint64
	StagesSkipped  uint64
	FactsIn        uint64
	FactsOut       uint64
	DelegationsIn  uint64
	DelegationsOut uint64
	Withdrawals    uint64
	Derived        uint64
	UpdatesApplied uint64
	RuntimeErrors  uint64

	// Outbox delivery counters: messages enqueued for remote destinations,
	// messages acknowledged by their destination, retransmission epochs
	// (ack timeouts), and failed send attempts (each retried).
	OutboxEnqueued    uint64
	OutboxDelivered   uint64
	OutboxRetransmits uint64
	OutboxSendErrors  uint64

	// Anti-entropy counters: repairs this peer asked for (as a receiver:
	// stream resets, solicited adverts, digest mismatches acted on) and
	// periodic digest adverts enqueued (as a sender; solicited adverts and
	// those ending a stream restart are not counted).
	ResyncRequested uint64
	ResyncAdverts   uint64

	// Ranged-repair counters: repair messages this peer served (as a
	// sender, including reset and shed runs) and their total encoded size,
	// range-digest traffic it served (encoded reply bytes), and how many
	// repair ranges it requested (as a receiver, once the comparison
	// narrowed the divergence).
	ResyncRangedRepairs     uint64
	ResyncRangedRepairBytes uint64
	ResyncRangeDigestBytes  uint64
	ResyncRangesRequested   uint64

	// Flow-control counters: stream resets (anti-entropy repairs plus
	// sheds), slow-peer sheds, and admission-control outcomes at Apply.
	OutboxResets           uint64
	OutboxSheds            uint64
	BackpressureWaits      uint64
	BackpressureRejections uint64

	// SubscriptionDrops counts subscriptions closed for falling further
	// behind than their buffer (ErrSlowSubscriber).
	SubscriptionDrops uint64
}

// StageReport describes one RunStage call.
type StageReport struct {
	Stage   uint64
	Ran     bool // false when the stage was skipped (inputs changed nothing)
	Derived int
	// Retracted counts derived facts deleted by this stage's incremental
	// deletion pass (facts that lost their last derivation).
	Retracted  int
	Iterations int
	// Applied counts extensional updates applied during ingestion.
	Applied int
	// Seeds counts transient intensional facts ingested for this stage.
	Seeds int
	// FactsSent counts facts emitted to remote peers.
	FactsSent int
	// DelegationsSent counts the template and binding inserts and deletes
	// this stage shipped (engine.TemplateRel).
	DelegationsSent int
	// Ingest, Fixpoint and Emit decompose the stage latency (the ledger's
	// peer.ingest_us_p50, engine.fixpoint_us_p50 and peer.emit_us_p50).
	Ingest   time.Duration
	Fixpoint time.Duration
	Emit     time.Duration
	// Errors collects non-fatal problems (unsafe delegated rules, runtime
	// semantic errors from the engine, transport failures).
	Errors []error
}

// Duration returns the total stage latency.
func (r *StageReport) Duration() time.Duration { return r.Ingest + r.Fixpoint + r.Emit }

// Peer is one WebdamLog peer.
type Peer struct {
	name string
	db   *store.Store
	// intern is Config.Interner (nil when interning is off): the shared
	// table the store, the remote view and the inbound session ledgers
	// canonicalize their tuples through.
	intern *value.Interner
	eng    *engine.Engine
	ep     transport.Endpoint
	// wal is the peer's one durable log (nil for volatile peers): its
	// extensional updates and its delivery state — outgoing entries until
	// acknowledged, so they survive a crash and are re-sent on recovery,
	// and the applied watermarks that suppress replays of messages applied
	// before it.
	wal  *store.WAL
	ctrl *acl.Controller

	// ctx is the peer's lifetime: Close cancels it, which stops the outbox
	// flushers and aborts any in-flight dial instead of letting it run to
	// DialTimeout.
	ctx    context.Context
	cancel context.CancelFunc
	outbox *outbox

	mu       sync.Mutex
	ownRules []ast.Rule
	// delegated holds the installed templates other peers delegate here, by
	// their template fact's key (engine.TemplateRel).
	delegated map[string]ast.Rule
	// held holds the templates with parameters not installed, by binding
	// relation.
	held       map[string]acl.Template
	ruleSeq    int
	progDirty  bool
	prog       *engine.Program
	compileErr []error

	// pendingOps queues the batches for the next stage, in order, holding
	// their pendingN ops; Insert and Delete append to a tail the peer owns.
	pendingOps [][]engine.FactOp
	pendingN   int
	ownTail    bool
	// pendingSpace is released when a stage drains pendingOps: blocked
	// Apply callers wait on it and re-check admission against maxPendingOps.
	pendingSpace  space
	maxPendingOps int
	// pm caches the hot-path metric children (nil = metrics disabled).
	pm *peerMetrics

	// transient holds "rel@peer" -> key -> tuple for transient intensional
	// seeds awaiting expiry at the next stage that runs; freshTransient
	// collects the marks of the ingestion in progress.
	transient      map[string]map[string]value.Tuple
	freshTransient map[string]map[string]value.Tuple

	// inbound holds the receiver half of every (sender → this peer) stream
	// session: adopted epoch, applied watermark, staged acknowledgment,
	// per-sender support ledger and digests, resync rate limiters. See
	// session.go.
	inbound map[string]*inSession
	// supported is supportedLocked, bound once for every stage's
	// engine.StageInput (a method value allocates each time it is taken).
	supported func(relID, key string) bool
	// rv is the maintained remote view — the sender half's content ledger:
	// every fact this peer's program currently derives at each destination,
	// with per-relation digests. The engine diffs each stage's emissions
	// against it; anti-entropy advertises its digests and re-ships its ranges.
	rv *engine.RemoteView
	// resyncEvery is the resolved anti-entropy period (0 = disabled).
	resyncEvery time.Duration

	poked   bool
	hooks   Hooks
	stats   Stats
	stageNo uint64
	wake    chan struct{}
	// onReady, when set (network.go, setSchedHooks), is fired by kick() so
	// the concurrent scheduler's wake queue learns this peer has work without
	// scanning. Atomic: kick() runs outside p.mu and may race the installer.
	onReady atomic.Pointer[func()]

	subSeq int
	subs   map[int]*subscription
	closed bool
}

// New creates a peer attached to the given transport endpoint. If cfg.WAL
// is set, New opens the log there and recovers the previously-logged state.
func New(cfg Config, ep transport.Endpoint) (*Peer, error) {
	if cfg.Name == "" {
		return nil, errors.New("peer: name must not be empty")
	}
	if ep == nil {
		return nil, errors.New("peer: endpoint must not be nil")
	}
	if ep.Name() != cfg.Name {
		return nil, fmt.Errorf("peer: endpoint is named %q, peer %q", ep.Name(), cfg.Name)
	}
	db := store.New()
	if cfg.Interner != nil {
		db.SetInterner(cfg.Interner)
	}
	opts := engine.DefaultOptions()
	if cfg.Engine != nil {
		opts = *cfg.Engine
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Peer{
		name:      cfg.Name,
		db:        db,
		ep:        ep,
		ctx:       ctx,
		cancel:    cancel,
		inbound:   make(map[string]*inSession),
		rv:        engine.NewRemoteView(),
		delegated: make(map[string]ast.Rule),
		held:      make(map[string]acl.Template),
		wake:      make(chan struct{}, 1),
		subs:      make(map[int]*subscription),
		progDirty: true, // the first stage compiles, rules or not
	}
	p.supported = p.supportedLocked
	p.intern = cfg.Interner
	if cfg.Interner != nil {
		p.rv.SetInterner(cfg.Interner)
	}
	p.outbox = newOutbox(ep, ctx, cfg.SyncEmit)
	p.resyncEvery = cfg.ResyncInterval
	if p.resyncEvery == 0 {
		p.resyncEvery = defaultResyncInterval
	}
	if p.resyncEvery < 0 {
		p.resyncEvery = 0
	}
	p.outbox.resyncEvery = p.resyncEvery
	p.outbox.onDigest = p.advertise
	p.outbox.limit = cfg.OutboxLimit
	p.outbox.failFast = cfg.Admission == AdmitFailFast
	p.outbox.shedAfter = cfg.OutboxShedAfter
	p.outbox.onShed = p.shedStream
	p.maxPendingOps = cfg.MaxPendingOps
	if cfg.WAL != "" {
		if err := p.openLog(cfg.WAL); err != nil {
			cancel()
			return nil, fmt.Errorf("peer %s: %w", cfg.Name, err)
		}
	}
	p.eng = engine.New(cfg.Name, db, opts)
	p.ctrl = acl.NewController(cfg.Policy, p.Poke)
	if cfg.Metrics != nil {
		p.registerMetrics(cfg.Metrics)
	}
	return p, nil
}

// openLog opens the log in dir (closing it again on failure), recovers the
// store and the delivery state — applied watermarks, the default epoch,
// pending entries — and installs the hooks that log every outbox
// transition. An entry is logged and synced before a flusher can transmit
// it, so a transmitted sequence number is never reused after a crash.
func (p *Peer) openLog(dir string) (err error) {
	l, err := store.OpenWAL(dir)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			l.Close()
		}
	}()
	st, err := l.Recover(p.db)
	if err != nil {
		return err
	}
	p.wal = l
	for from, mark := range st.Applied {
		s := p.sessionLocked(from)
		s.known = true
		s.epoch = mark.Epoch
		s.seq = mark.Seq
	}
	epoch := st.Epoch
	if epoch == 0 {
		// First durable run: pick the default stream epoch and log it, so
		// it stays stable across restarts (receivers keep their watermarks).
		epoch = newEpoch()
		if err := l.LogEpoch(epoch); err != nil {
			return err
		}
	}
	p.outbox.defaultEpoch = epoch
	// Install the persistence hooks before seeding: seeding a queue starts
	// its flusher, which reads them. The hooks drop append errors: a failed
	// write is sticky in the log's buffered writer, so it fails the
	// onPreFlush sync that gates every transmission instead.
	p.outbox.onEnqueue = func(dst string, seq uint64, msg protocol.Payload) {
		// Buffered append only: the stage's one sync at its end covers it.
		if b, err := protocol.EncodePayload(msg); err == nil {
			_ = l.LogEnqueue(dst, seq, b)
		}
	}
	p.outbox.onAck = func(dst string, seq uint64) {
		// Never synced on its own: losing it costs only a retransmit.
		_ = l.LogAck(dst, seq)
	}
	p.outbox.onReset = func(dst string, epoch uint64, entries []outEntry) {
		// A reset supersedes everything logged for dst; the renumbered
		// survivors are re-logged behind the reset record. Synced by
		// onPreFlush before any of them can be transmitted.
		if err := l.LogReset(dst, epoch); err != nil {
			return
		}
		for _, e := range entries {
			if b, err := protocol.EncodePayload(e.msg); err == nil {
				_ = l.LogEnqueue(dst, e.seq, b)
			}
		}
	}
	p.outbox.onPreFlush = l.Sync
	for dst, next := range st.NextSeq {
		var entries []outEntry
		for _, e := range st.Pending[dst] {
			msg, err := protocol.DecodePayload(e.Payload)
			if err != nil {
				return fmt.Errorf("%w: recovering outbox entry %d for %s from %s (written by an older version?): %w; "+
					"drain the log with the version that wrote it, or remove it", errdefs.ErrWAL, e.Seq, dst, l.OutboxPath(), err)
			}
			entries = append(entries, outEntry{seq: e.Seq, msg: msg})
		}
		p.outbox.seed(dst, st.Epochs[dst], next, st.Acked[dst], entries)
	}
	return nil
}

// defaultResyncInterval is the anti-entropy advert period when the config
// does not choose one.
const defaultResyncInterval = 5 * time.Second

// sessionLocked returns (creating if needed) the inbound stream session for
// the given sender. Caller holds p.mu (or, during New, exclusive access).
func (p *Peer) sessionLocked(from string) *inSession {
	s := p.inbound[from]
	if s == nil {
		s = newInSession(from)
		p.inbound[from] = s
	}
	return s
}

// supportedLocked reports whether some sender currently maintains the tuple
// of relID whose Tuple.Key is key at this peer: whether it is in one of the
// inbound sessions' ledgers. That is the tuple's external support, which
// keeps an intensional tuple alive when its local derivations go. Caller
// holds p.mu.
func (p *Peer) supportedLocked(relID, key string) bool {
	for _, s := range p.inbound {
		if s.ledgerHas(relID, key) {
			return true
		}
	}
	return false
}

// keyOf returns t's canonical form and key, through the peer's interner
// when it has one: what ingestion files in the store and the session ledger,
// so one fact's key bytes are stored once.
func (p *Peer) keyOf(t value.Tuple) (value.Tuple, string) {
	if p.intern != nil {
		return p.intern.Tuple(t)
	}
	return t, t.Key()
}

// advertise is the outbox's advert-clock callback: it enqueues the periodic
// anti-entropy advert for dst in the sequenced stream, exactly as a solicited
// advert is enqueued, and reports whether there was anything to advertise.
// Taking p.mu keeps the digests consistent with the stream position the
// advert takes (stages enqueue under p.mu too).
func (p *Peer) advertise(dst string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	msg := p.digestMsgLocked(dst)
	if len(msg.Rels) == 0 {
		return false
	}
	p.outbox.EnqueueData(dst, msg)
	return true
}

// digestMsgLocked builds the complete advert for dst — per relation, the
// delegations this peer makes there among them, the digest of the full
// hash range of everything this peer maintains there — empty map and all:
// an advert *request* is answered even when this peer maintains nothing at
// the requester, because "nothing" is exactly what the requester's stale
// ledger needs to learn.
func (p *Peer) digestMsgLocked(dst string) protocol.DigestMsg {
	digs := p.rv.Digests(dst)
	rels := make(map[string][]protocol.RangeDigest, len(digs))
	for relID, d := range digs {
		rels[relID] = []protocol.RangeDigest{{Lo: fullRange.Lo, Hi: fullRange.Hi, Hash: d.Hash, Count: d.Count}}
	}
	return protocol.DigestMsg{Rels: rels, Advert: true}
}

// Name returns the peer's name.
func (p *Peer) Name() string { return p.name }

// Store returns the peer's relation store (read-mostly introspection; use
// Insert/Delete for mutations so they are staged and logged properly).
func (p *Peer) Store() *store.Store { return p.db }

// Engine returns the peer's evaluation engine.
func (p *Peer) Engine() *engine.Engine { return p.eng }

// Explain returns a human-readable dump of the join plans the engine
// chooses for the peer's current compiled program against the store's
// current contents (the surface behind `wdl run -explain`). The program
// compiles at stage time; before the first stage there is nothing to
// explain.
func (p *Peer) Explain() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.prog == nil {
		return "no compiled program (the peer has not run a stage yet)\n"
	}
	return p.eng.Explain(p.prog)
}

// Endpoint returns the transport endpoint.
func (p *Peer) Endpoint() transport.Endpoint { return p.ep }

// Controller returns the delegation access controller.
func (p *Peer) Controller() *acl.Controller { return p.ctrl }

// Why returns every current derivation of f by the peer's rules and
// installed delegations, computed from the store on demand; nil before the
// first stage compiles the program.
func (p *Peer) Why(f ast.Fact) []engine.Derivation {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.prog == nil {
		return nil
	}
	return p.eng.Why(p.prog, f)
}

// BaseSupports returns the base facts that transitively support f (see
// Engine.BaseSupports); nil before the first stage compiles the program.
func (p *Peer) BaseSupports(f ast.Fact) []ast.Fact {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.prog == nil {
		return nil
	}
	return p.eng.BaseSupports(p.prog, f)
}

var _ acl.ProvenanceSource = (*Peer)(nil)

// SetHooks installs wrapper hooks (see Hooks).
func (p *Peer) SetHooks(h Hooks) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hooks = h
}

// Stats returns a snapshot of lifetime counters.
func (p *Peer) Stats() Stats {
	p.mu.Lock()
	s := p.stats
	p.mu.Unlock()
	s.OutboxEnqueued = p.outbox.enqueued.Load()
	s.OutboxDelivered = p.outbox.delivered.Load()
	s.OutboxRetransmits = p.outbox.retransmits.Load()
	s.OutboxSendErrors = p.outbox.sendErrors.Load()
	s.OutboxResets = p.outbox.resets.Load()
	s.OutboxSheds = p.outbox.sheds.Load()
	s.BackpressureWaits = p.outbox.bpWaits.Load()
	s.BackpressureRejections = p.outbox.bpRejects.Load()
	s.ResyncAdverts = p.outbox.adverts.Load()
	return s
}

// flushIfSync flushes the outbox immediately in sync-emit mode, where no
// flusher goroutines exist. Async peers rely on their flushers.
func (p *Peer) flushIfSync() {
	if p.outbox.sync {
		p.outbox.FlushAll()
	}
}

func (p *Peer) kick() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
	if fn := p.onReady.Load(); fn != nil {
		(*fn)()
	}
}

// setSchedHooks installs the concurrent scheduler's wake callbacks: ready
// fires whenever the peer gains stage work (every kick), outboxActive
// whenever the outbox gains pending entries. Both must be safe to call from
// any goroutine and must not acquire scheduler locks held across peer calls.
func (p *Peer) setSchedHooks(ready, outboxActive func()) {
	if ready != nil {
		p.onReady.Store(&ready)
	}
	if outboxActive != nil {
		p.outbox.onActive.Store(&outboxActive)
	}
}

// DeclareRelation declares (or re-checks) a relation owned by this peer.
// The declaration is logged under p.mu, like every append a checkpoint
// must not race.
func (p *Peer) DeclareRelation(name string, kind ast.RelKind, cols ...string) error {
	schema := store.Schema{Name: name, Peer: p.name, Kind: kind, Cols: cols}
	p.mu.Lock()
	defer p.mu.Unlock()
	created := p.db.Get(name, p.name) == nil
	if _, err := p.db.Declare(schema); err != nil {
		return fmt.Errorf("peer %s: %w", p.name, err)
	}
	if created && p.wal != nil && kind == ast.Extensional {
		if err := p.wal.LogDeclare(schema); err != nil {
			return fmt.Errorf("peer %s: %w", p.name, err)
		}
	}
	if created {
		// New relations can change conservative stratification.
		p.progDirty = true
		p.kick()
	}
	return nil
}

// AddRule parses src and adds it to the peer's own program, returning the
// assigned rule id.
func (p *Peer) AddRule(src string) (string, error) {
	r, err := parser.ParseRule(src)
	if err != nil {
		return "", fmt.Errorf("peer %s: %w", p.name, err)
	}
	return p.AddRuleAST(r)
}

// AddRuleAST adds an already-parsed rule, assigning it an id if it has none.
// The rule is checked for safety immediately so the caller learns about
// unusable rules synchronously.
func (p *Peer) AddRuleAST(r ast.Rule) (string, error) {
	if err := engine.CheckSafety(r); err != nil {
		return "", fmt.Errorf("peer %s: %w", p.name, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if r.ID == "" {
		p.ruleSeq++
		r.ID = fmt.Sprintf("r%d", p.ruleSeq)
	}
	for _, have := range p.ownRules {
		if have.ID == r.ID {
			return "", fmt.Errorf("peer %s: %w: %q", p.name, errdefs.ErrDuplicateRule, r.ID)
		}
	}
	if r.Origin == "" {
		r.Origin = p.name
	}
	p.ownRules = append(p.ownRules, r)
	p.progDirty = true
	p.kick()
	return r.ID, nil
}

// RemoveRule removes an own rule by id. The delegations it makes to other
// peers are withdrawn by the next stage.
func (p *Peer) RemoveRule(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, r := range p.ownRules {
		if r.ID == id {
			p.ownRules = append(p.ownRules[:i], p.ownRules[i+1:]...)
			p.progDirty = true
			p.kick()
			return nil
		}
	}
	return fmt.Errorf("peer %s: %w: %q", p.name, errdefs.ErrUnknownRule, id)
}

// ReplaceRule atomically swaps the rule with the given id for a new rule
// parsed from src, keeping the id (the Wepic rule-customization flow).
func (p *Peer) ReplaceRule(id, src string) error {
	r, err := parser.ParseRule(src)
	if err != nil {
		return fmt.Errorf("peer %s: %w", p.name, err)
	}
	if err := engine.CheckSafety(r); err != nil {
		return fmt.Errorf("peer %s: %w", p.name, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.ownRules {
		if p.ownRules[i].ID == id {
			r.ID = id
			r.Origin = p.name
			p.ownRules[i] = r
			p.progDirty = true
			p.kick()
			return nil
		}
	}
	return fmt.Errorf("peer %s: %w: %q", p.name, errdefs.ErrUnknownRule, id)
}

// Rules returns the peer's own rules (copies), in insertion order.
func (p *Peer) Rules() []ast.Rule {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ast.Rule, len(p.ownRules))
	for i, r := range p.ownRules {
		out[i] = r.Clone()
	}
	return out
}

// DelegatedRules returns the rules installed by remote peers, grouped by
// origin, each group in rule-text order.
func (p *Peer) DelegatedRules() map[string][]ast.Rule {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := map[string][]ast.Rule{}
	for _, r := range p.delegated {
		out[r.Origin] = append(out[r.Origin], r.Clone())
	}
	for _, rules := range out {
		slices.SortFunc(rules, func(a, b ast.Rule) int { return strings.Compare(a.String(), b.String()) })
	}
	return out
}

// ProgramText renders the peer's full program (own + delegated rules) the
// way the demo UI displays it.
func (p *Peer) ProgramText() string {
	var sb strings.Builder
	for _, r := range p.Rules() {
		sb.WriteString(r.String())
		sb.WriteString(";\n")
	}
	for origin, rules := range p.DelegatedRules() {
		for _, r := range rules {
			fmt.Fprintf(&sb, "%s; // delegated by %s\n", r.String(), origin)
		}
	}
	return sb.String()
}

// Insert stages the insertion of a fact. Facts for this peer are applied at
// the start of the next local stage; facts for other peers are sent to them
// immediately. For more than a handful of facts, build a Batch and use
// Apply: it takes the peer lock once, wakes the stage loop once, and ships
// one wire message per destination.
func (p *Peer) Insert(f ast.Fact) error { return p.update(ast.Derive, f) }

// Delete stages the deletion of a fact, with the same routing as Insert.
func (p *Peer) Delete(f ast.Fact) error { return p.update(ast.Delete, f) }

// Apply stages every operation of the batch: operations on this peer's
// relations are buffered as one unit and applied in a single
// ingest+fixpoint stage (one store transaction, one WAL append run, one
// scheduler wakeup); operations on remote relations are grouped into one
// FactsMsg per destination peer, so each destination also ingests its share
// in a single stage. Remote shares are committed to the per-destination
// outbox — delivered at-least-once, out of band — so Apply never blocks on
// the network. A batch naming an unroutable destination is refused whole;
// past that, an outbox failing fast with ErrBackpressure can cut a batch
// part-way, the shares committed before it staying committed.
//
// Operations keep their relative order, so an insert followed by a delete
// of the same fact inside one batch nets out to the delete. The local share
// is handed over, not copied: the batch's first Len() ops belong to the peer
// until a stage ingests them. Insert and Delete on the batch stay safe, as
// they only append; writing through Ops() is not.
//
// Apply is the admission-controlled intake: when Config.OutboxLimit or
// Config.MaxPendingOps bound a queue, a full queue blocks the caller under
// ctx (AdmitBlock) or fails with an error wrapping ErrBackpressure
// (AdmitFailFast) instead of growing without bound.
func (p *Peer) Apply(ctx context.Context, b *engine.Batch) error {
	if b == nil || b.Empty() {
		return nil
	}
	ops := slices.Clip(b.Ops()) // appends to b never reach the staged ops
	nLocal := 0
	for _, op := range ops {
		if op.Fact.Peer == p.name {
			nLocal++
		}
	}
	local := ops
	var errs []error
	if nLocal < len(ops) {
		local = make([]engine.FactOp, 0, nLocal)
		remote := make(map[string]*protocol.FactsMsg)
		var order []string
		for _, op := range ops {
			if op.Fact.Peer == p.name {
				local = append(local, op)
				continue
			}
			m := remote[op.Fact.Peer]
			if m == nil {
				if !p.ep.CanRoute(op.Fact.Peer) {
					return fmt.Errorf("peer %s: refusing batch for %s: %w", p.name, op.Fact.Peer, errdefs.ErrUnknownPeer)
				}
				m = &protocol.FactsMsg{}
				remote[op.Fact.Peer] = m
				order = append(order, op.Fact.Peer)
			}
			m.Append(op.Op == ast.Delete, op.Fact)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if p.isClosed() {
			return fmt.Errorf("peer %s: %w", p.name, errdefs.ErrClosed)
		}
		for _, dst := range order {
			if _, err := p.outbox.enqueue(ctx, dst, *remote[dst], true); err != nil {
				errs = append(errs, fmt.Errorf("peer %s: %w", p.name, err))
			}
		}
		p.flushIfSync()
	}
	if len(local) > 0 {
		if err := p.stageLocal(ctx, local); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// stageLocal queues ops, kept and never written to, as one pending batch
// under admission control: once maxPendingOps operations are staged, the
// caller blocks until a stage drains the queue (or fails fast, per the
// policy). A batch larger than the whole bound is admitted whenever the
// queue is empty, so oversized batches never deadlock.
func (p *Peer) stageLocal(ctx context.Context, ops []engine.FactOp) error {
	err := p.outbox.admit(ctx, p.ctx, p.maxPendingOps, func() (<-chan struct{}, error) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.closed {
			return nil, errdefs.ErrClosed
		}
		if p.maxPendingOps > 0 && p.pendingN > 0 && p.pendingN+len(ops) > p.maxPendingOps {
			return p.pendingSpace.wait(), nil
		}
		p.queueLocked(ops)
		return nil, nil
	}, p.kick)
	if err != nil {
		return fmt.Errorf("peer %s: staging updates: %w", p.name, err)
	}
	p.kick()
	return nil
}

// queueLocked queues a batch the peer does not own.
func (p *Peer) queueLocked(ops []engine.FactOp) {
	if len(ops) > 0 {
		p.pendingOps, p.pendingN, p.ownTail = append(p.pendingOps, ops), p.pendingN+len(ops), false
	}
}

// admission is a peer's admission policy for its bounded queues (the
// staged-update queue and each destination's outbox queue) and the
// counters they share.
type admission struct {
	failFast  bool          // Config.Admission: reject instead of blocking
	bpWaits   atomic.Uint64 // admissions that had to wait for queue space
	bpRejects atomic.Uint64 // admissions rejected with ErrBackpressure
}

// admit admits one caller to a bounded queue of at most limit entries. try
// runs under the queue's own lock: it either admits the caller (and
// enqueues) and returns nil, nil, or returns an error (the peer closed), or
// finds the queue full and returns its space channel. On a full queue a
// fail-fast gate rejects with ErrBackpressure; a blocking one nudges the
// queue's drainer and waits off the lock until space frees up, ctx is done
// or the peer (life) is.
func (a *admission) admit(ctx, life context.Context, limit int, try func() (<-chan struct{}, error), nudge func()) error {
	for {
		wait, err := try()
		if wait == nil {
			return err
		}
		if a.failFast {
			a.bpRejects.Add(1)
			return fmt.Errorf("%d pending: %w", limit, errdefs.ErrBackpressure)
		}
		a.bpWaits.Add(1)
		nudge()
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for queue space: %w: %w", errdefs.ErrBackpressure, ctx.Err())
		case <-life.Done():
			return errdefs.ErrClosed
		case <-wait:
		}
	}
}

// space is a bounded queue's wait channel: blocked admissions wait on it,
// and it is closed (and cleared) whenever room frees up. Guarded by the
// queue's lock.
type space struct{ ch chan struct{} }

func (s *space) wait() <-chan struct{} {
	if s.ch == nil {
		s.ch = make(chan struct{})
	}
	return s.ch
}

func (s *space) release() {
	if s.ch != nil {
		close(s.ch)
		s.ch = nil
	}
}

// shedStream is the outbox's slow-peer callback: dst has had pending
// entries with no ack progress for the whole shed window. Restart its
// stream, discarding the wedged backlog, exactly as a served reset
// request would — when the destination recovers, it adopts the new epoch at
// sequence 1, and the advert that ends the restart's repair run settles
// whatever the discarded backlog would have retracted.
func (p *Peer) shedStream(dst string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.restartStreamLocked(dst, func(dst string, firsts ...protocol.Payload) {
		p.outbox.reset(dst, firsts, true)
	})
	p.kick()
}

// InsertString parses a fact in concrete syntax and stages its insertion.
func (p *Peer) InsertString(src string) error { return p.updateString(ast.Derive, src) }

// DeleteString parses a fact in concrete syntax and stages its deletion.
func (p *Peer) DeleteString(src string) error { return p.updateString(ast.Delete, src) }

func (p *Peer) updateString(op ast.UpdateOp, src string) error {
	f, err := parser.ParseFact(src)
	if err != nil {
		return fmt.Errorf("peer %s: %w", p.name, err)
	}
	return p.update(op, f)
}

func (p *Peer) update(op ast.UpdateOp, f ast.Fact) error {
	if f.Peer != p.name {
		if !p.ep.CanRoute(f.Peer) {
			return fmt.Errorf("peer %s: sending update for %s: %w: %q", p.name, f.String(), errdefs.ErrUnknownPeer, f.Peer)
		}
		if p.isClosed() {
			return fmt.Errorf("peer %s: %w", p.name, errdefs.ErrClosed)
		}
		p.outbox.EnqueueData(f.Peer, protocol.FactsMsg{Ops: []protocol.FactDelta{{Delete: op == ast.Delete, Fact: f}}})
		p.flushIfSync()
		return nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("peer %s: %w", p.name, errdefs.ErrClosed)
	}
	if !p.ownTail {
		p.pendingOps, p.ownTail = append(p.pendingOps, nil), true
	}
	tail := &p.pendingOps[len(p.pendingOps)-1]
	*tail = append(*tail, engine.FactOp{Op: op, Fact: f})
	p.pendingN++
	p.mu.Unlock()
	p.kick()
	return nil
}

// LoadProgram applies a parsed program unit: relation declarations for this
// peer, staged facts, and rules. Declarations for other peers are ignored
// (they describe the remote schema for the reader's benefit).
func (p *Peer) LoadProgram(prog *ast.Program) error {
	for _, d := range prog.Relations {
		if d.Peer != p.name {
			continue
		}
		if err := p.DeclareRelation(d.Name, d.Kind, d.Cols...); err != nil {
			return err
		}
	}
	for _, f := range prog.Facts {
		if err := p.Insert(f); err != nil {
			return err
		}
	}
	for _, r := range prog.Rules {
		if _, err := p.AddRuleAST(r); err != nil {
			return err
		}
	}
	return nil
}

// LoadSource parses src and applies it with LoadProgram.
func (p *Peer) LoadSource(src string) error {
	prog, err := parser.Parse(src)
	if err != nil {
		return fmt.Errorf("peer %s: %w", p.name, err)
	}
	return p.LoadProgram(prog)
}

// Query returns the current tuples of a local relation, sorted. Views are
// as of the last completed stage.
func (p *Peer) Query(relName string) []value.Tuple {
	rel := p.db.Get(relName, p.name)
	if rel == nil {
		return nil
	}
	return rel.Tuples()
}

// HasWork reports whether a stage would make progress: unread inbox
// messages, staged updates, transient seeds, or program changes (the very
// first stage compiles one).
func (p *Peer) HasWork() bool {
	if p.ep.Pending() > 0 {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pendingN > 0 || p.progDirty || p.poked
}

// OutboxPending returns the number of outgoing messages not yet acknowledged
// by their destination, and how many of those sit in queues whose last
// delivery attempt failed (stalled, retrying under backoff).
func (p *Peer) OutboxPending() (total, stalled int) {
	return p.outbox.Pending()
}

// FlushOutbox synchronously attempts one delivery pass over every outbox
// queue, reporting whether anything was transmitted. The network scheduler
// uses it to accelerate delivery between rounds; async peers do not need it.
func (p *Peer) FlushOutbox() bool {
	return p.outbox.FlushAll()
}

func (p *Peer) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Poke schedules a stage attempt even though no inputs are queued. Wrappers
// call it after external services change out-of-band, so the next stage's
// pull hook observes the fresh state. If the pull changes nothing, the
// stage is skipped as usual.
func (p *Peer) Poke() {
	p.mu.Lock()
	p.poked = true
	p.mu.Unlock()
	p.kick()
}

// CompileErrors returns the rule errors from the most recent compilation
// of the peer's program, own rules and delegated templates.
func (p *Peer) CompileErrors() []error {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]error, len(p.compileErr))
	copy(out, p.compileErr)
	return out
}

// Close flushes durable state, closes all subscription channels and
// detaches from the transport.
func (p *Peer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for _, s := range p.subs {
		p.dropSubLocked(s)
	}
	p.mu.Unlock()
	// Cancel the peer context first (aborts in-flight dials and stops the
	// flushers at their next check), then close the endpoint (unblocks any
	// write in progress), then wait for the flushers to exit, and only then
	// close (and so sync) the log they append to.
	p.cancel()
	var errs []error
	if err := p.ep.Close(); err != nil {
		errs = append(errs, err)
	}
	p.outbox.Shutdown()
	if p.wal != nil {
		if err := p.wal.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
