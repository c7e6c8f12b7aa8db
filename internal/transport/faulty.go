package transport

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/protocol"
)

// ErrInjectedFault is the transient error a FaultyEndpoint's Send returns
// when a failure is injected (probabilistic Fail or an explicit SetDown).
var ErrInjectedFault = errors.New("transport: injected fault")

// FaultConfig configures the faults a FaultyEndpoint injects into its Send
// path. Probabilities are in [0, 1] and evaluated per message with a seeded
// generator, so a fault schedule is reproducible.
type FaultConfig struct {
	// Seed initializes the fault schedule (0 behaves like 1).
	Seed int64
	// Drop silently loses the message: Send reports success, nothing is
	// delivered — the failure mode acks and retransmission exist for.
	Drop float64
	// Dup delivers the message twice, exercising receiver-side dedup.
	Dup float64
	// Reorder holds the message back and releases it after a subsequent
	// send (or after at most reorderHold), swapping delivery order.
	Reorder float64
	// Fail makes Send return ErrInjectedFault, exercising sender-side
	// retry/backoff.
	Fail float64
	// Latency blocks each delivering Send for the given duration — a
	// simulated link RTT. Stage commit latency must not inherit it
	// (TestStageCommitDoesNotWaitForLink).
	Latency time.Duration
}

// reorderHold bounds how long a reordered message waits for a successor
// before being released anyway.
const reorderHold = 5 * time.Millisecond

type heldMsg struct {
	id  uint64
	to  string
	msg protocol.Payload
}

// FaultStats counts the faults actually injected.
type FaultStats struct {
	Sent       uint64
	Dropped    uint64
	Duplicated uint64
	Reordered  uint64
	Failed     uint64
}

// FaultyEndpoint wraps an Endpoint and injects drop / duplicate / reorder /
// failure / latency faults into its Send path (receive-side behavior,
// routing and the wake hook are the wrapped endpoint's — wrap both endpoints
// of a pair to disturb both directions). It is the harness for the
// convergence-under-faults tests (TestTwoPeerConvergenceUnderFaults and its
// siblings): with the outbox's at-least-once delivery and the receiver's
// dedup, a network over FaultyEndpoints must converge to exactly the
// contents of a fault-free run.
type FaultyEndpoint struct {
	Endpoint

	mu     sync.Mutex
	rng    *rand.Rand
	cfg    FaultConfig
	held   []heldMsg
	heldID uint64
	down   bool
	stats  FaultStats
}

var _ Endpoint = (*FaultyEndpoint)(nil)

// Faulty wraps inner with the given fault schedule.
func Faulty(inner Endpoint, cfg FaultConfig) *FaultyEndpoint {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &FaultyEndpoint{Endpoint: inner, rng: rand.New(rand.NewSource(seed)), cfg: cfg}
}

// SetDown toggles a hard disconnect: while down, every Send fails with
// ErrInjectedFault.
func (f *FaultyEndpoint) SetDown(down bool) {
	f.mu.Lock()
	f.down = down
	f.mu.Unlock()
}

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultyEndpoint) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Send applies the fault schedule, then delivers through the wrapped
// endpoint.
func (f *FaultyEndpoint) Send(ctx context.Context, to string, msg protocol.Payload) error {
	f.mu.Lock()
	if f.down {
		f.stats.Failed++
		f.mu.Unlock()
		return ErrInjectedFault
	}
	roll := f.rng.Float64()
	cfg := f.cfg
	var release *heldMsg
	verdict := ""
	switch {
	case roll < cfg.Fail:
		verdict = "fail"
		f.stats.Failed++
	case roll < cfg.Fail+cfg.Drop:
		verdict = "drop"
		f.stats.Dropped++
	case roll < cfg.Fail+cfg.Drop+cfg.Dup:
		verdict = "dup"
		f.stats.Duplicated++
	case roll < cfg.Fail+cfg.Drop+cfg.Dup+cfg.Reorder:
		verdict = "hold"
		f.stats.Reordered++
	}
	if verdict == "hold" {
		f.heldID++
		held := heldMsg{id: f.heldID, to: to, msg: msg}
		f.held = append(f.held, held)
		f.mu.Unlock()
		// Fallback: release even if no successor ever comes.
		time.AfterFunc(reorderHold, func() { f.release(held.id) })
		return nil
	}
	if verdict == "fail" {
		f.mu.Unlock()
		return ErrInjectedFault
	}
	if verdict == "drop" {
		f.mu.Unlock()
		return nil
	}
	// This message will actually be delivered: release a held predecessor
	// after it (the reordering). A held message was already reported as
	// sent, so it must go out even if this delivery fails.
	if len(f.held) > 0 {
		release = &f.held[0]
		f.held = f.held[1:]
	}
	f.stats.Sent++
	f.mu.Unlock()

	if cfg.Latency > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(cfg.Latency):
		}
	}
	err := f.Endpoint.Send(ctx, to, msg)
	if err == nil && verdict == "dup" {
		err = f.Endpoint.Send(ctx, to, msg)
	}
	if release != nil {
		if rerr := f.Endpoint.Send(ctx, release.to, release.msg); err == nil {
			err = rerr
		}
	}
	return err
}

// release delivers a reordered message that never saw a successor.
func (f *FaultyEndpoint) release(id uint64) {
	f.mu.Lock()
	for i := range f.held {
		if f.held[i].id == id {
			h := f.held[i]
			f.held = append(f.held[:i], f.held[i+1:]...)
			f.mu.Unlock()
			f.Endpoint.Send(context.Background(), h.to, h.msg)
			return
		}
	}
	f.mu.Unlock()
}
