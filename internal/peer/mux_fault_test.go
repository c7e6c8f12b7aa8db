package peer

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/transport"
	"repro/internal/value"
)

// newMuxFaultPair builds two stand-alone peers (no Network) on one
// transport.NewMux() — the transport the swarm benchmark runs on — each
// behind a fault-injecting wrapper, with outbox timers shrunk to test speed.
func newMuxFaultPair(t *testing.T, cfg transport.FaultConfig) (a, b *Peer) {
	t.Helper()
	m := transport.NewMux()
	t.Cleanup(func() { m.Close() })
	mk := func(name string, seed int64) *Peer {
		c := cfg
		c.Seed = seed
		p, err := New(Config{Name: name}, transport.Faulty(m.Endpoint(name), c))
		if err != nil {
			t.Fatal(err)
		}
		p.outbox.ackTimeout = 10 * time.Millisecond
		p.outbox.baseBackoff = 2 * time.Millisecond
		p.outbox.maxBackoff = 20 * time.Millisecond
		t.Cleanup(func() { p.Close() })
		return p
	}
	return mk("a", cfg.Seed), mk("b", cfg.Seed+100)
}

// TestMuxConvergenceUnderFaults re-runs the two-peer maintained-view
// convergence schedules on peers attached to a Mux, with independent fault
// streams in both directions: drops, duplicates, reorders and failures must
// stay invisible to the fixpoint.
func TestMuxConvergenceUnderFaults(t *testing.T) {
	schedules := []struct {
		name string
		cfg  transport.FaultConfig
	}{
		{"drop", transport.FaultConfig{Seed: 21, Drop: 0.3}},
		{"dup", transport.FaultConfig{Seed: 22, Dup: 0.3}},
		{"reorder", transport.FaultConfig{Seed: 23, Reorder: 0.3}},
		{"fail", transport.FaultConfig{Seed: 24, Fail: 0.3}},
		{"mixed", transport.FaultConfig{Seed: 25, Drop: 0.15, Dup: 0.1, Reorder: 0.1, Fail: 0.1}},
	}
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			a, b := newMuxFaultPair(t, sched.cfg)
			if err := a.LoadSource(`
				relation extensional src@a(x);
				view@b($x) :- src@a($x);
			`); err != nil {
				t.Fatal(err)
			}
			if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
				t.Fatal(err)
			}
			peers := []*Peer{a, b}

			rng := rand.New(rand.NewSource(sched.cfg.Seed))
			present := map[int64]bool{}
			for i := 0; i < 60; i++ {
				k := rng.Int63n(8)
				var err error
				if present[k] {
					err = a.Delete(ast.NewFact("src", "a", value.Int(k)))
				} else {
					err = a.Insert(ast.NewFact("src", "a", value.Int(k)))
				}
				if err != nil {
					t.Fatal(err)
				}
				present[k] = !present[k]
				drive(peers, func() bool { return false }, 2*time.Millisecond)
			}

			var want []value.Tuple
			for k, in := range present {
				if in {
					want = append(want, value.Tuple{value.Int(k)})
				}
			}
			value.SortTuples(want)
			expected := fmt.Sprint(want)
			if !drive(peers, func() bool { return tupleSet(b, "view") == expected }, 20*time.Second) {
				t.Fatalf("view@b never converged under %s faults over mux:\n got %s\nwant %s\n(outbox: %+v)",
					sched.name, tupleSet(b, "view"), expected, a.Stats())
			}
		})
	}
}

// TestMuxDisconnectRecovery: the sender's link is down from its very first
// message, before any session exists between the peers; the maintained view
// is built once the link returns. (TestConvergenceAcrossDisconnect downs an
// established link mid-stream.)
func TestMuxDisconnectRecovery(t *testing.T) {
	a, b := newMuxFaultPair(t, transport.FaultConfig{Seed: 31})
	if err := a.LoadSource(`
		relation extensional src@a(x);
		view@b($x) :- src@a($x);
	`); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		t.Fatal(err)
	}
	peers := []*Peer{a, b}

	down := a.Endpoint().(*transport.FaultyEndpoint)
	down.SetDown(true)
	for i := int64(0); i < 5; i++ {
		if err := a.Insert(ast.NewFact("src", "a", value.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	drive(peers, func() bool { return false }, 50*time.Millisecond)
	if got := len(b.Query("view")); got != 0 {
		t.Fatalf("view@b has %d tuples while the link is down", got)
	}
	down.SetDown(false)
	if !drive(peers, func() bool { return len(b.Query("view")) == 5 }, 20*time.Second) {
		t.Fatalf("view@b never recovered after reconnect: %v", b.Query("view"))
	}
}
