package transport

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/protocol"
)

// faultSchedule runs a fixed send sequence through a FaultyEndpoint with
// the given config and returns an observable transcript of the fault
// schedule: the per-send error pattern, the injected-fault counters, and
// the multiset of payloads actually delivered (sorted — reorder holds are
// released by timers whose relative order is not part of the schedule).
func faultSchedule(t *testing.T, cfg FaultConfig, sends int) string {
	t.Helper()
	bus := NewBus()
	rcv := bus.Endpoint("rcv")
	f := Faulty(bus.Endpoint("snd"), cfg)
	ctx := context.Background()
	errs := make([]byte, sends)
	for i := 0; i < sends; i++ {
		err := f.Send(ctx, "rcv", protocol.ControlMsg{Token: uint64(i)})
		if err != nil {
			errs[i] = 'x'
		} else {
			errs[i] = '.'
		}
	}
	time.Sleep(4 * reorderHold) // let every held (reordered) message release
	var tokens []uint64
	for _, env := range rcv.Drain() {
		tokens = append(tokens, env.Msg.(protocol.ControlMsg).Token)
	}
	sort.Slice(tokens, func(i, j int) bool { return tokens[i] < tokens[j] })
	return fmt.Sprintf("errs=%s stats=%+v delivered=%v", errs, f.Stats(), tokens)
}

// TestFaultyEndpointDeterministicSchedule: the same seed must produce the
// identical fault schedule — which verdicts were rolled, which sends
// failed, what was delivered. This determinism is what makes the
// convergence suite (TestTwoPeerConvergenceUnderFaults and its siblings in
// internal/peer) reproducible. A different seed
// must produce a different schedule.
func TestFaultyEndpointDeterministicSchedule(t *testing.T) {
	cfg := FaultConfig{Seed: 20130623, Drop: 0.15, Dup: 0.1, Reorder: 0.1, Fail: 0.1}
	const sends = 400
	first := faultSchedule(t, cfg, sends)
	second := faultSchedule(t, cfg, sends)
	if first != second {
		t.Fatalf("same seed produced different fault schedules:\n run 1: %s\n run 2: %s", first, second)
	}
	other := cfg
	other.Seed = cfg.Seed + 1
	if got := faultSchedule(t, other, sends); got == first {
		t.Fatalf("different seeds produced the identical %d-send schedule: %s", sends, got)
	}
}
