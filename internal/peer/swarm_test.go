package peer

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/value"
)

// swarmSpec describes the paper's Wepic scenario at population scale: every
// peer authors a post relation and, per follower, holds the push rule
//
//	feed@follower("author", $i) :- post@author($i);
//
// Equal specs build identical follow graphs and update plans.
type swarmSpec struct {
	peers, follows, posts int
	postBytes             int // post ids are padded to this size
	seed                  int64
	intern                bool // one value.Interner for the whole swarm
	sequential            bool // name-ordered reference scheduler, not the wake queue
}

type swarm struct {
	spec      swarmSpec
	net       *Network
	peers     []*Peer
	followers [][]int // author -> followers
	interner  *value.Interner
}

func swarmName(i int) string { return fmt.Sprintf("p%05d", i) }

// buildSwarm creates the peers, rules and seed posts; nothing has crossed a
// link yet.
func buildSwarm(t *testing.T, spec swarmSpec) *swarm {
	t.Helper()
	s := &swarm{spec: spec, net: NewSequentialNetwork(), peers: make([]*Peer, spec.peers), followers: make([][]int, spec.peers)}
	if !spec.sequential {
		s.net = NewNetwork()
	}
	t.Cleanup(s.close)
	if spec.intern {
		s.interner = value.NewInterner()
	}
	// No flusher goroutines and no advert timers: a swarm cannot afford one
	// of each per peer, and its in-process links lose nothing.
	cfg := Config{SyncEmit: true, ResyncInterval: -1, Interner: s.interner}
	for i := range s.peers {
		cfg.Name = swarmName(i)
		p, err := New(cfg, s.net.Bus().Endpoint(cfg.Name))
		if err != nil {
			t.Fatal(err)
		}
		s.peers[i] = p
		s.net.Add(p)
		if err := p.DeclareRelation("post", ast.Extensional, "id"); err != nil {
			t.Fatal(err)
		}
		if err := p.DeclareRelation("feed", ast.Extensional, "author", "id"); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(spec.seed))
	for f := range s.peers {
		seen := map[int]bool{f: true}
		for len(seen) <= spec.follows {
			a := rng.Intn(spec.peers)
			if seen[a] {
				continue
			}
			seen[a] = true
			s.followers[a] = append(s.followers[a], f)
			rule := fmt.Sprintf(`feed@%s("%s", $i) :- post@%s($i);`, swarmName(f), swarmName(a), swarmName(a))
			if _, err := s.peers[a].AddRule(rule); err != nil {
				t.Fatal(err)
			}
		}
	}
	for a := range s.peers {
		for k := 0; k < spec.posts; k++ {
			s.post(t, a, fmt.Sprintf("t%d-%d", a, k))
		}
	}
	return s
}

// close stops the swarm and lets go of it (idempotent).
func (s *swarm) close() {
	for _, p := range s.peers {
		if p != nil {
			p.Close()
		}
	}
	*s = swarm{}
}

func (s *swarm) post(t *testing.T, author int, id string) {
	t.Helper()
	id += strings.Repeat("x", max(0, s.spec.postBytes-len(id)))
	if err := s.peers[author].Insert(ast.NewFact("post", swarmName(author), value.Str(id))); err != nil {
		t.Fatal(err)
	}
}

// run converges the seed posts, then `rounds` seeded rounds of perRound new
// posts each.
func (s *swarm) run(t *testing.T, rounds, perRound int) {
	t.Helper()
	quiesce(t, s.net)
	rng := rand.New(rand.NewSource(s.spec.seed + 1))
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			s.post(t, rng.Intn(len(s.peers)), fmt.Sprintf("u%d-%d", r, i))
		}
		quiesce(t, s.net)
	}
}

// TestSwarmDifferential runs one seeded 200-peer workload through the
// wake-queue scheduler on an interned swarm and through the sequential
// reference, and requires every peer's feed to come out equal: a lost
// wake-up, a misrouted envelope or an interning alias shows up as a
// diverged view.
func TestSwarmDifferential(t *testing.T) {
	spec := swarmSpec{peers: 200, follows: 3, posts: 2, seed: 42}
	ref := spec
	ref.sequential = true
	want := buildSwarm(t, ref)
	want.run(t, 3, 25)

	spec.intern = true
	got := buildSwarm(t, spec)
	got.run(t, 3, 25)

	diverged := 0
	for i, p := range got.peers {
		g, w := tuples(p, "feed"), tuples(want.peers[i], "feed")
		if len(w) == 0 {
			t.Fatalf("%s: reference feed is empty", p.Name())
		}
		if !slices.Equal(g, w) {
			if diverged++; diverged > 5 {
				t.Fatal("too many diverged feeds")
			}
			t.Errorf("%s: feed %v, reference %v", p.Name(), g, w)
		}
	}
}

// TestSwarmQuiescentScans: once a swarm that exchanged real traffic over the
// bus has converged, another RunToQuiescence examines zero peers.
func TestSwarmQuiescentScans(t *testing.T) {
	s := buildSwarm(t, swarmSpec{peers: 100, follows: 3, posts: 1, seed: 7, intern: true})
	s.run(t, 1, 10)
	if got := len(s.peers[s.followers[0][0]].Query("feed")); got == 0 {
		t.Fatal("degenerate swarm: a follower's feed is empty")
	}
	before := s.net.SchedulerScans()
	quiesce(t, s.net)
	if scans := s.net.SchedulerScans() - before; scans != 0 {
		t.Fatalf("quiescent pass examined %d peers, want 0", scans)
	}
}

// TestSwarmInterning: with a shared interner a post replicated to two
// followers is one tuple — the same backing array in both feeds.
func TestSwarmInterning(t *testing.T) {
	s := buildSwarm(t, swarmSpec{peers: 50, follows: 4, posts: 2, seed: 9, intern: true})
	quiesce(t, s.net)
	if st := s.interner.Stats(); st.Tuples == 0 || st.Strings == 0 {
		t.Fatalf("interner unused: %+v", st)
	}
	feedTuple := func(follower int, author string) (found value.Tuple) {
		s.peers[follower].Store().Get("feed", swarmName(follower)).Iterate(func(tup value.Tuple) bool {
			if tup[0].StringVal() == author && (found == nil || tup.Key() < found.Key()) {
				found = tup
			}
			return true
		})
		return found
	}
	for a, followers := range s.followers {
		if len(followers) < 2 {
			continue
		}
		t0, t1 := feedTuple(followers[0], swarmName(a)), feedTuple(followers[1], swarmName(a))
		if t0 == nil || t0.Key() != t1.Key() {
			t.Fatalf("followers of %s hold different first posts: %v, %v", swarmName(a), t0, t1)
		}
		if &t0[0] != &t1[0] {
			t.Fatalf("replicated feed tuple is not shared: %p vs %p", &t0[0], &t1[0])
		}
		return
	}
	t.Fatal("no author with two followers in the seed graph")
}

// TestSwarmMemoryScaling: settled heap per peer stays flat across a 4x jump
// in population (a replicated fact costs its follower a map entry, not a
// copy), and the interner pays for itself against a swarm built without it.
func TestSwarmMemoryScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds swarms of up to 2000 peers")
	}
	settledHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // finalizers, then what they released
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	bytesPerPeer := func(peers int, intern bool) float64 {
		base := settledHeap()
		s := buildSwarm(t, swarmSpec{peers: peers, follows: 4, posts: 16, postBytes: 128, seed: 1109, intern: intern})
		s.run(t, 1, 100)
		heap := settledHeap()
		s.close()
		return float64(heap-min(heap, base)) / float64(peers)
	}
	small, large, plain := bytesPerPeer(500, true), bytesPerPeer(2000, true), bytesPerPeer(500, false)
	t.Logf("bytes/peer: %.0f at 500 peers, %.0f at 2000, %.0f at 500 without interning", small, large, plain)
	if large > 1.5*small {
		t.Errorf("bytes/peer grew %.2fx from 500 to 2000 peers: memory is super-linear in the population", large/small)
	}
	if small > 0.9*plain {
		t.Errorf("interned/plain bytes per peer = %.2f, want <= 0.90", small/plain)
	}
}
