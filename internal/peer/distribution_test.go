package peer

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/value"
)

// memberNetwork builds a querying peer q plus members m000, m001, …, each
// holding factsPerPeer facts data@m("m-j"). It returns the member names.
func memberNetwork(t *testing.T, members, factsPerPeer int) (*Network, *Peer, []string) {
	t.Helper()
	n, ps := newTestNetwork(t, "q")
	names := make([]string, members)
	for i := range names {
		names[i] = fmt.Sprintf("m%03d", i)
		m, err := n.NewPeer(Config{Name: names[i]})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.DeclareRelation("data", ast.Extensional, "x"); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < factsPerPeer; j++ {
			item := value.Str(fmt.Sprintf("%s-%d", names[i], j))
			if err := m.Insert(ast.NewFact("data", names[i], item)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return n, ps["q"], names
}

// TestDelegatedFanoutMatchesPreinstalled: one rule at q that delegates a
// residual to every member at run time collects exactly what the same
// residuals installed at the members up front collect — every member's
// every fact.
func TestDelegatedFanoutMatchesPreinstalled(t *testing.T) {
	const factsPerPeer = 20
	collect := func(members int, delegated bool) []string {
		n, q, names := memberNetwork(t, members, factsPerPeer)
		for _, rel := range []string{"members", "all"} {
			if err := q.DeclareRelation(rel, ast.Extensional, "x"); err != nil {
				t.Fatal(err)
			}
		}
		if delegated {
			if _, err := q.AddRule(`all@q($x) :- members@q($p), data@$p($x);`); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range names {
			if err := q.Insert(ast.NewFact("members", "q", value.Str(name))); err != nil {
				t.Fatal(err)
			}
			if !delegated {
				if _, err := n.Peer(name).AddRule(fmt.Sprintf(`all@q($x) :- data@%s($x);`, name)); err != nil {
					t.Fatal(err)
				}
			}
		}
		quiesce(t, n)
		return tuples(q, "all")
	}
	for _, members := range []int{2, 8, 32} {
		got, want := collect(members, true), collect(members, false)
		if len(want) != members*factsPerPeer || !slices.Equal(got, want) {
			t.Errorf("%d members: delegated fan-out collected %d answers, pre-installed %d, want the same %d",
				members, len(got), len(want), members*factsPerPeer)
		}
	}
}

// TestDelegatedJoinShipsFewerFacts: the paper's "manage data in place". A
// cross-peer join evaluated by delegation returns the answers of the same
// join over data first centralized at q, and moves only the matches.
func TestDelegatedJoinShipsFewerFacts(t *testing.T) {
	const members, factsPerPeer, wantedPerPeer = 4, 200, 5
	run := func(delegated bool) (answers []string, shipped uint64) {
		n, q, names := memberNetwork(t, members, factsPerPeer)
		for _, rel := range []string{"wanted", "central"} {
			if err := q.DeclareRelation(rel, ast.Extensional, "p", "x"); err != nil {
				t.Fatal(err)
			}
		}
		if err := q.DeclareRelation("match", ast.Extensional, "x"); err != nil {
			t.Fatal(err)
		}
		rule := `match@q($x) :- wanted@q($p,$x), data@$p($x);`
		if !delegated {
			rule = `match@q($x) :- wanted@q($p,$x), central@q($p,$x);`
		}
		if _, err := q.AddRule(rule); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			for j := 0; j < wantedPerPeer; j++ {
				item := value.Str(fmt.Sprintf("%s-%d", name, j))
				if err := q.Insert(ast.NewFact("wanted", "q", value.Str(name), item)); err != nil {
					t.Fatal(err)
				}
			}
			if !delegated {
				ship := fmt.Sprintf(`central@q("%s", $x) :- data@%s($x);`, name, name)
				if _, err := n.Peer(name).AddRule(ship); err != nil {
					t.Fatal(err)
				}
			}
		}
		quiesce(t, n)
		for _, p := range n.Peers() {
			shipped += p.Stats().FactsIn
		}
		return tuples(q, "match"), shipped
	}
	got, delegatedFacts := run(true)
	want, centralFacts := run(false)
	if len(want) != members*wantedPerPeer || !slices.Equal(got, want) {
		t.Errorf("delegated join answered %v, centralized %v", got, want)
	}
	t.Logf("facts shipped: delegated %d, centralized %d", delegatedFacts, centralFacts)
	if delegatedFacts >= centralFacts {
		t.Errorf("delegated join shipped %d facts, centralized %d: delegation should move only the matches",
			delegatedFacts, centralFacts)
	}
}
