package peer

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/transport"
	"repro/internal/value"
)

// newFaultyPeer attaches a peer to the network's bus behind a fault-
// injecting wrapper, with outbox timers shrunk so retransmission and
// backoff cycles run at test speed.
func newFaultyPeer(t *testing.T, n *Network, name string, cfg transport.FaultConfig) *Peer {
	t.Helper()
	ep := transport.Faulty(n.Bus().Endpoint(name), cfg)
	p, err := New(Config{Name: name}, ep)
	if err != nil {
		t.Fatal(err)
	}
	p.outbox.ackTimeout = 10 * time.Millisecond
	p.outbox.baseBackoff = 2 * time.Millisecond
	p.outbox.maxBackoff = 20 * time.Millisecond
	n.Add(p)
	t.Cleanup(func() { p.Close() })
	return p
}

// drive stages every peer with work until the predicate holds or the
// deadline passes.
func drive(peers []*Peer, until func() bool, deadline time.Duration) bool {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		worked := false
		for _, p := range peers {
			if p.HasWork() {
				p.RunStage()
				worked = true
			}
		}
		if until() {
			return true
		}
		if !worked {
			time.Sleep(time.Millisecond)
		}
	}
	return false
}

func tupleSet(p *Peer, rel string) string {
	return fmt.Sprint(p.Query(rel)) // Query returns sorted tuples
}

// TestTwoPeerConvergenceUnderFaults: a maintained remote view fed through a
// transport that drops, duplicates, reorders and fails messages must end up
// exactly mirroring the sender's base relation — the at-least-once outbox
// plus receiver dedup make the faults invisible to the fixpoint.
func TestTwoPeerConvergenceUnderFaults(t *testing.T) {
	schedules := []struct {
		name string
		cfg  transport.FaultConfig
	}{
		{"drop", transport.FaultConfig{Seed: 11, Drop: 0.3}},
		{"dup", transport.FaultConfig{Seed: 12, Dup: 0.3}},
		{"reorder", transport.FaultConfig{Seed: 13, Reorder: 0.3}},
		{"fail", transport.FaultConfig{Seed: 14, Fail: 0.3}},
		{"mixed", transport.FaultConfig{Seed: 15, Drop: 0.15, Dup: 0.1, Reorder: 0.1, Fail: 0.1}},
	}
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			n := NewNetwork()
			a := newFaultyPeer(t, n, "a", sched.cfg)
			b := newFaultyPeer(t, n, "b", sched.cfg)
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
				// Interleave a little scheduling so faults hit mid-run
				// traffic, not one final batch.
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
				t.Fatalf("view@b never converged under %s faults:\n got %s\nwant %s\n(outbox: %+v)",
					sched.name, tupleSet(b, "view"), expected, a.Stats())
			}
		})
	}
}

// TestThreePeerDelegationConvergenceUnderFaults: the paper's delegated-join
// topology (c's rule delegates residuals to a and b) over fully faulty
// links, with base updates and a mid-run delegation withdrawal, must
// converge to exactly the contents a fault-free naive-recompute run
// produces.
func TestThreePeerDelegationConvergenceUnderFaults(t *testing.T) {
	cfg := transport.FaultConfig{Seed: 42, Drop: 0.15, Dup: 0.1, Reorder: 0.1, Fail: 0.1}

	type op struct {
		peer, src string
		del       bool
	}
	var ops []op
	rng := rand.New(rand.NewSource(99))
	present := map[string]bool{}
	for i := 0; i < 40; i++ {
		owner := []string{"a", "b"}[rng.Intn(2)]
		k := fmt.Sprintf(`data@%s(%d);`, owner, rng.Int63n(6))
		ops = append(ops, op{peer: owner, src: k, del: present[k]})
		present[k] = !present[k]
	}

	load := func(a, b, c *Peer) error {
		if err := a.DeclareRelation("data", ast.Extensional, "x"); err != nil {
			return err
		}
		if err := b.DeclareRelation("data", ast.Extensional, "x"); err != nil {
			return err
		}
		return c.LoadSource(`
			relation extensional sel@c(a);
			relation intensional view@c(x);
			sel@c("a");
			sel@c("b");
			view@c($x) :- sel@c($a), data@$a($x);
		`)
	}
	apply := func(p *Peer, o op) error {
		if o.del {
			return p.DeleteString(o.src)
		}
		return p.InsertString(o.src)
	}

	// Reference: the same program and update sequence on a clean sequential
	// network with incremental maintenance off — the recompute-mode
	// fixpoint the faulty run must match.
	ref := NewSequentialNetwork()
	naive := engine.DefaultOptions()
	naive.Incremental = false
	refPeer := func(name string) *Peer {
		p, err := ref.NewPeer(Config{Name: name, Engine: &naive})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ra, rb, rc := refPeer("a"), refPeer("b"), refPeer("c")
	if err := load(ra, rb, rc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ref.RunToQuiescence(context.Background(), 200); err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		if err := apply(ref.Peer(o.peer), o); err != nil {
			t.Fatal(err)
		}
	}
	// Mid-run withdrawal exercise: c stops watching a, then resumes.
	if err := rc.DeleteString(`sel@c("a");`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ref.RunToQuiescence(context.Background(), 200); err != nil {
		t.Fatal(err)
	}
	if err := rc.InsertString(`sel@c("a");`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ref.RunToQuiescence(context.Background(), 200); err != nil {
		t.Fatal(err)
	}
	expected := tupleSet(rc, "view")

	// Faulty run: same program, same updates, every link injecting faults.
	n := NewNetwork()
	a := newFaultyPeer(t, n, "a", cfg)
	b := newFaultyPeer(t, n, "b", cfg)
	c := newFaultyPeer(t, n, "c", cfg)
	if err := load(a, b, c); err != nil {
		t.Fatal(err)
	}
	peers := []*Peer{a, b, c}
	drive(peers, func() bool { return false }, 20*time.Millisecond)
	for i, o := range ops {
		if err := apply(n.Peer(o.peer), o); err != nil {
			t.Fatal(err)
		}
		if i == len(ops)/2 {
			if err := c.DeleteString(`sel@c("a");`); err != nil {
				t.Fatal(err)
			}
			drive(peers, func() bool { return false }, 10*time.Millisecond)
			if err := c.InsertString(`sel@c("a");`); err != nil {
				t.Fatal(err)
			}
		}
		drive(peers, func() bool { return false }, 2*time.Millisecond)
	}

	if !drive(peers, func() bool { return tupleSet(c, "view") == expected }, 30*time.Second) {
		t.Fatalf("view@c never converged to the recompute fixpoint:\n got %s\nwant %s",
			tupleSet(c, "view"), expected)
	}
}

// TestConvergenceAcrossDisconnect: a hard link outage in the middle of an
// update stream (SetDown) heals: everything queued during the outage is
// delivered when the link returns.
func TestConvergenceAcrossDisconnect(t *testing.T) {
	n := NewNetwork()
	a := newFaultyPeer(t, n, "a", transport.FaultConfig{Seed: 7})
	b := newFaultyPeer(t, n, "b", transport.FaultConfig{Seed: 8})
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

	fa := a.Endpoint().(*transport.FaultyEndpoint)
	for i := int64(0); i < 5; i++ {
		if err := a.Insert(ast.NewFact("src", "a", value.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	drive(peers, func() bool { return len(b.Query("view")) == 5 }, 10*time.Second)

	fa.SetDown(true)
	for i := int64(5); i < 10; i++ {
		if err := a.Insert(ast.NewFact("src", "a", value.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Delete(ast.NewFact("src", "a", value.Int(0))); err != nil {
		t.Fatal(err)
	}
	drive(peers, func() bool { return false }, 50*time.Millisecond)
	if got := len(b.Query("view")); got != 5 {
		t.Fatalf("updates leaked through a downed link: view has %d tuples", got)
	}
	fa.SetDown(false)

	if !drive(peers, func() bool { return len(b.Query("view")) == 9 }, 20*time.Second) {
		t.Fatalf("view@b never healed after reconnect: %d tuples, want 9", len(b.Query("view")))
	}
}

// TestStageCommitDoesNotWaitForLink: behind a link whose every Send blocks
// for a full RTT, the sender's stage still commits in well under one — its
// emit step only enqueues, delivery is the flusher's job — while the update
// itself cannot reach the receiver any sooner than the link allows.
func TestStageCommitDoesNotWaitForLink(t *testing.T) {
	const rtt = 20 * time.Millisecond
	const updates = 6
	n := NewNetwork()
	a := newFaultyPeer(t, n, "a", transport.FaultConfig{Latency: rtt})
	b := newFaultyPeer(t, n, "b", transport.FaultConfig{})
	loadViewSender(t, a)
	if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		t.Fatal(err)
	}
	a.RunStage() // compile
	peers := []*Peer{a, b}

	var commit, delivery time.Duration
	for i := 0; i < updates; i++ {
		if err := a.Insert(ast.NewFact("src", "a", value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if rep := a.RunStage(); !rep.Ran || len(rep.Errors) > 0 {
			t.Fatalf("update %d: stage ran=%v errors=%v", i, rep.Ran, rep.Errors)
		}
		commit += time.Since(start)
		if !drive(peers, func() bool { return len(b.Query("view")) == i+1 }, 10*time.Second) {
			t.Fatalf("update %d never reached the receiver", i)
		}
		delivery += time.Since(start)
		// Let the ack land so the next stage is the next update's alone.
		drive(peers, func() bool { pending, _ := a.OutboxPending(); return pending == 0 }, 10*time.Second)
	}
	if commit/updates >= rtt {
		t.Errorf("a stage took %v on average behind a %v link: it waited for the network", commit/updates, rtt)
	}
	if delivery/updates < rtt {
		t.Errorf("updates arrived after %v on average over a %v link: the latency was not on the path", delivery/updates, rtt)
	}
}
