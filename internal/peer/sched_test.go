package peer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/transport"
	"repro/internal/value"
)

// TestSchedulerMidRunAdd: a peer registered while RunToQuiescence is already
// running must be picked up by the wake queue — the run cannot settle until
// the newcomer has ingested (and acked) the traffic queued for it.
func TestSchedulerMidRunAdd(t *testing.T) {
	n := closingNetwork(t)
	a, err := n.NewPeer(Config{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Pre-attach b's endpoint so a's pushes route and queue before the peer
	// exists (the bus keeps the envelopes).
	bEP := n.Bus().Endpoint("b")
	if err := a.LoadSource(`
		relation extensional src@a(x);
		view@b($x) :- src@a($x);
	`); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := a.Insert(ast.NewFact("src", "a", value.Int(i))); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := n.RunToQuiescence(context.Background(), 2_000_000)
		done <- err
	}()

	time.Sleep(20 * time.Millisecond) // let the run start and wedge on b's silence
	b, err := New(Config{Name: "b"}, bEP)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		t.Fatal(err)
	}
	n.Add(b)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunToQuiescence: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("RunToQuiescence never finished after the mid-run Add")
	}
	if got := len(b.Query("view")); got != 10 {
		t.Fatalf("view@b has %d tuples, want 10", got)
	}
	if total, _ := a.OutboxPending(); total != 0 {
		t.Fatalf("a's outbox still has %d pending entries after quiescence", total)
	}
}

// TestSchedulerQuiescenceRequiresDrain: an unreachable destination's queued
// entries must not be reported as converged state — RunToQuiescence returns
// (stalled-exempt), the entries stay pending, and a later run after the
// link heals drains them.
func TestSchedulerQuiescenceRequiresDrain(t *testing.T) {
	n := closingNetwork(t)
	a := newFaultyPeer(t, n, "a", transport.FaultConfig{Seed: 51})
	b := newFaultyPeer(t, n, "b", transport.FaultConfig{Seed: 52})
	if err := a.LoadSource(`
		relation extensional src@a(x);
		view@b($x) :- src@a($x);
	`); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
		t.Fatal(err)
	}
	aEP := a.ep.(*transport.FaultyEndpoint)
	aEP.SetDown(true)
	for i := int64(0); i < 5; i++ {
		if err := a.Insert(ast.NewFact("src", "a", value.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := n.RunToQuiescence(context.Background(), 0); err != nil {
		t.Fatalf("stalled-exempt run: %v", err)
	}
	if total, _ := a.OutboxPending(); total == 0 {
		t.Fatal("outbox drained through a downed link")
	}
	if got := len(b.Query("view")); got != 0 {
		t.Fatalf("view@b has %d tuples through a downed link", got)
	}
	aEP.SetDown(false)
	deadline := time.Now().Add(20 * time.Second)
	for len(b.Query("view")) != 5 && time.Now().Before(deadline) {
		if _, _, err := n.RunToQuiescence(context.Background(), 0); err != nil {
			t.Fatalf("post-heal run: %v", err)
		}
		time.Sleep(5 * time.Millisecond) // let backoff gates expire
	}
	if got := len(b.Query("view")); got != 5 {
		t.Fatalf("view@b has %d tuples after heal, want 5", got)
	}
}

// TestSchedulerNoLostWakeup stresses the hooks against concurrent intake:
// API inserts racing the scheduler must never be stranded by a missed
// wake — every fact ends up in the maintained remote view. Run with -race.
func TestSchedulerNoLostWakeup(t *testing.T) {
	n := closingNetwork(t)
	a, err := n.NewPeer(Config{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := n.NewPeer(Config{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.LoadSource(`
		relation extensional src@a(g, x);
		view@b($g, $x) :- src@a($g, $x);
	`); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareRelation("view", ast.Intensional, "g", "x"); err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				f := ast.NewFact("src", "a", value.Int(int64(g)), value.Int(int64(i)))
				if err := a.Insert(f); err != nil {
					t.Errorf("insert g%d i%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	// Drive the network concurrently with the writers until they finish.
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		for !waitersDone(&wg) {
			if _, _, err := n.RunToQuiescence(context.Background(), 0); err != nil {
				t.Errorf("concurrent run: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-runDone
	if _, _, err := n.RunToQuiescence(context.Background(), 0); err != nil {
		t.Fatalf("final run: %v", err)
	}
	if got := len(b.Query("view")); got != goroutines*perG {
		t.Fatalf("view@b has %d tuples, want %d (lost wakeup?)", got, goroutines*perG)
	}
}

// waitersDone polls a WaitGroup without blocking forever.
func waitersDone(wg *sync.WaitGroup) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(time.Millisecond):
		return false
	}
}

// TestSequentialDeterminismPinned: the sequential scheduler's behavior is
// part of the repo's determinism contract — identical seeded runs must
// produce identical round/stage counts and identical final views, and the
// wake-queue refactor must leave it untouched (it only rewires the
// concurrent scheduler).
func TestSequentialDeterminismPinned(t *testing.T) {
	build := func() (rounds, stages int, views string) {
		n := NewSequentialNetwork()
		names := []string{"a", "b", "c", "d", "e"}
		peers := make([]*Peer, len(names))
		for i, name := range names {
			p, err := n.NewPeer(Config{Name: name})
			if err != nil {
				t.Fatal(err)
			}
			peers[i] = p
			if err := p.DeclareRelation("data", ast.Extensional, "x"); err != nil {
				t.Fatal(err)
			}
			if err := p.DeclareRelation("feed", ast.Extensional, "src", "x"); err != nil {
				t.Fatal(err)
			}
		}
		// Ring: each peer pushes its data into its successor's feed.
		for i, p := range peers {
			next := names[(i+1)%len(names)]
			rule := fmt.Sprintf(`feed@%s("%s", $x) :- data@%s($x);`, next, names[i], names[i])
			if _, err := p.AddRule(rule); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range peers {
			for k := 0; k < 4; k++ {
				f := ast.NewFact("data", names[i], value.Int(int64(i*10+k)))
				if err := p.Insert(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		r, s, err := n.RunToQuiescence(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		var sb string
		for _, p := range peers {
			sb += fmt.Sprint(p.Query("feed"))
		}
		for _, p := range peers {
			p.Close()
		}
		return r, s, sb
	}
	r1, s1, v1 := build()
	r2, s2, v2 := build()
	if r1 != r2 || s1 != s2 {
		t.Fatalf("sequential runs diverged: (%d rounds, %d stages) vs (%d, %d)", r1, s1, r2, s2)
	}
	if v1 != v2 {
		t.Fatalf("sequential views diverged:\n%s\nvs\n%s", v1, v2)
	}
}

// TestSchedulerScansQuiescent pins the O(active) property at the Network
// level: RunToQuiescence on an already-quiescent concurrent network
// examines zero peers — including peers whose endpoint is wrapped, in
// transport.Faulty or in a struct embedding transport.Endpoint, because the
// wake hook and routing are part of the Endpoint contract every wrapper
// forwards.
func TestSchedulerScansQuiescent(t *testing.T) {
	n := closingNetwork(t)
	var peers []*Peer
	for i := 0; i < 20; i++ {
		p, err := n.NewPeer(Config{Name: fmt.Sprintf("q%02d", i)})
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	wrapped := map[string]transport.Endpoint{
		"qfaulty": transport.Faulty(n.Bus().Endpoint("qfaulty"), transport.FaultConfig{}),
		"qembed":  &lossyEndpoint{Endpoint: n.Bus().Endpoint("qembed")},
	}
	for name, ep := range wrapped {
		p, err := New(Config{Name: name}, ep)
		if err != nil {
			t.Fatal(err)
		}
		n.Add(p)
		peers = append(peers, p)
	}
	for i, p := range peers {
		defer p.Close()
		if err := p.DeclareRelation("data", ast.Extensional, "x"); err != nil {
			t.Fatal(err)
		}
		if err := p.Insert(ast.NewFact("data", p.Name(), value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	// Traffic between the wrapped peers: the receiver is woken through the
	// hook its wrapper forwards.
	if _, err := n.Peer("qembed").AddRule(`data@qfaulty($x) :- data@qembed($x);`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.RunToQuiescence(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Peer("qfaulty").Query("data")); got != 2 {
		t.Fatalf("data@qfaulty has %d tuples, want 2", got)
	}
	scans0 := n.SchedulerScans()
	if scans0 == 0 {
		t.Fatal("first run scanned nothing — counter not wired?")
	}
	if _, _, err := n.RunToQuiescence(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if delta := n.SchedulerScans() - scans0; delta != 0 {
		t.Errorf("quiescent run examined %d peers, want 0", delta)
	}
	for name := range wrapped {
		b := engine.NewBatch().Insert(ast.NewFact("data", "nobody", value.Int(1)))
		if err := n.Peer(name).Apply(context.Background(), b); !errors.Is(err, transport.ErrUnknownPeer) {
			t.Errorf("%s: Apply to an unattached peer: %v, want ErrUnknownPeer", name, err)
		}
	}
}
