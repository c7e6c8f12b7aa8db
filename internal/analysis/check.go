package analysis

import (
	"fmt"
	"sort"

	"repro/internal/ast"
)

// checker carries the state of one Check run.
type checker struct {
	prog  *ast.Program
	opts  Options
	diags []Diagnostic

	// rules, after attribution: the executing peer of rules[i] is
	// rulePeers[i] ("" when WDL005 made attribution impossible).
	rules     []ast.Rule
	rulePeers []string

	// decls indexes the first declaration of each relation by "rel@peer".
	decls map[string]ast.RelationDecl
}

func (c *checker) report(pos ast.Pos, sev Severity, code, peer, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Pos: pos, Severity: sev, Code: code, Peer: peer,
		Message: fmt.Sprintf(format, args...),
	})
}

func relKey(rel, peer string) string { return rel + "@" + peer }

// constName returns the string value of a constant relation/peer term and
// whether the term is constant.
func constName(t ast.Term) (string, bool) {
	if t.IsVar() {
		return "", false
	}
	return t.Val.StringVal(), true
}

// Attribute returns the program's rules together with the peer each runs
// at, following core.LoadProgram's scoping: statements are processed in
// order, a `peer` declaration sets the current context (defaultPeer is the
// context in force at the top of the program), and a rule runs at the
// current peer — or, with no context, at its constant head peer. A rule
// with a variable head peer and no context gets peer "" (see WDL005).
func Attribute(prog *ast.Program, defaultPeer string) (rules []ast.Rule, peers []string) {
	current := defaultPeer
	for _, stmt := range prog.Statements {
		switch st := stmt.(type) {
		case ast.PeerDecl:
			current = st.Name
		case ast.Rule:
			peer := current
			if peer == "" && !st.Head.Peer.IsVar() {
				peer = st.Head.Peer.Val.StringVal()
			}
			rules = append(rules, st)
			peers = append(peers, peer)
		}
	}
	return rules, peers
}

// attribute places every rule at its executing peer and emits WDL005 for
// the unplaceable ones.
func (c *checker) attribute() {
	c.rules, c.rulePeers = Attribute(c.prog, c.opts.DefaultPeer)
	for i, r := range c.rules {
		if c.rulePeers[i] == "" {
			c.report(at(r.Head.Peer.Pos, r.Pos), Error, CodeNoPeerContext, "",
				"rule %q needs a `peer` declaration to know where it runs", r.String())
		}
	}
}

func (c *checker) indexDeclarations() {
	c.decls = make(map[string]ast.RelationDecl, len(c.prog.Relations))
	for _, d := range c.prog.Relations {
		key := relKey(d.Name, d.Peer)
		first, seen := c.decls[key]
		if !seen {
			c.decls[key] = d
			continue
		}
		if first.Kind != d.Kind || len(first.Cols) != len(d.Cols) {
			c.report(d.Pos, Error, CodeSchemaConflict, d.Peer,
				"relation %s@%s redeclared as %s with %d columns; first declared as %s with %d columns",
				d.Name, d.Peer, d.Kind, len(d.Cols), first.Kind, len(first.Cols))
		}
	}
}

// checkSafety emits WDL001 with the engine's exact safety verdict.
func (c *checker) checkSafety() {
	for i, r := range c.rules {
		if v := RuleSafety(r); v != nil {
			c.report(at(v.Pos, r.Pos), Error, CodeUnsafeRule, c.rulePeers[i],
				"unsafe rule %q: %s", r.String(), v.Msg)
		}
	}
}

// checkStratification runs the shared stratification per executing peer,
// over the peer's declared intensional relations, and emits WDL002 with the
// engine's exact verdict for a negation cycle.
func (c *checker) checkStratification() {
	byPeer := map[string][]*ast.Rule{}
	for i := range c.rules {
		if p := c.rulePeers[i]; p != "" {
			byPeer[p] = append(byPeer[p], &c.rules[i])
		}
	}
	peers := make([]string, 0, len(byPeer))
	for p := range byPeer {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	for _, p := range peers {
		// First-wins declarations, matching what a store built from this
		// program would hold (redeclarations are WDL004's business).
		idb := map[string]bool{}
		for _, d := range c.decls {
			if d.Peer == p && d.Kind == ast.Intensional {
				idb[d.Name] = true
			}
		}
		if _, v := Stratify(p, idb, byPeer[p]); v != nil {
			c.report(v.Pos, Error, CodeNotStratifiable, p,
				"program is not stratifiable: %s", v.Detail())
		}
	}
}

// atomSite is one concrete relation reference (fact, head or body atom).
type atomSite struct {
	rel, peer string
	arity     int
	pos       ast.Pos
	owner     string // executing peer context, for Diagnostic.Peer
}

// sites lists every reference with constant relation and peer names.
func (c *checker) sites() []atomSite {
	var out []atomSite
	add := func(a ast.Atom, owner string) {
		rel, okR := constName(a.Rel)
		peer, okP := constName(a.Peer)
		if okR && okP {
			out = append(out, atomSite{rel: rel, peer: peer, arity: len(a.Args), pos: at(a.Pos), owner: owner})
		}
	}
	for _, f := range c.prog.Facts {
		out = append(out, atomSite{rel: f.Rel, peer: f.Peer, arity: len(f.Args), pos: f.Pos, owner: f.Peer})
	}
	for i, r := range c.rules {
		add(r.Head, c.rulePeers[i])
		for _, a := range r.Body {
			add(a, c.rulePeers[i])
		}
	}
	return out
}

// checkArityAndDeclarations emits WDL003 (arity vs declaration or builtin)
// and WDL006 (reference to an undeclared relation; first occurrence only,
// suppressed when WDL007 already flags the relation as never derivable).
func (c *checker) checkArityAndDeclarations() {
	neverDerivable := c.neverDerivableRels()
	flagged := map[string]bool{}
	for _, s := range c.sites() {
		key := relKey(s.rel, s.peer)
		if s.peer == BuiltinPeer {
			if want, known := BuiltinArity(s.rel); known && s.arity != want {
				c.report(s.pos, Error, CodeArityMismatch, s.owner,
					"builtin predicate %q expects %d arguments, got %d", s.rel, want, s.arity)
			}
			// Unknown builtin predicates are already safety errors (WDL001).
			continue
		}
		d, declared := c.decls[key]
		if declared {
			if s.arity != len(d.Cols) {
				c.report(s.pos, Error, CodeArityMismatch, s.owner,
					"%s@%s has %d arguments but is declared with %d columns", s.rel, s.peer, s.arity, len(d.Cols))
			}
			continue
		}
		if flagged[key] || neverDerivable[key] {
			continue
		}
		flagged[key] = true
		c.report(s.pos, Warning, CodeUndeclaredRelation, s.owner,
			"relation %s@%s is never declared; it will be auto-declared with a generic schema", s.rel, s.peer)
	}
}

// feeds returns what the program can ever write: every relation named by a
// fact or declaration, every constant rule head, plus wildcard feeds from
// variable head terms. relWild[rel] means some head derives rel at an
// unknown peer; peerWild[peer] means some head derives an unknown relation
// at peer; anyWild means a head with both terms variable.
type feedSet struct {
	exact    map[string]bool
	relWild  map[string]bool
	peerWild map[string]bool
	anyWild  bool
}

func (f *feedSet) fed(rel, peer string) bool {
	return f.anyWild || f.exact[relKey(rel, peer)] || f.relWild[rel] || f.peerWild[peer]
}

func (c *checker) feeds() *feedSet {
	f := &feedSet{exact: map[string]bool{}, relWild: map[string]bool{}, peerWild: map[string]bool{}}
	for _, fact := range c.prog.Facts {
		f.exact[relKey(fact.Rel, fact.Peer)] = true
	}
	for _, d := range c.prog.Relations {
		f.exact[relKey(d.Name, d.Peer)] = true
	}
	for _, r := range c.rules {
		rel, okR := constName(r.Head.Rel)
		peer, okP := constName(r.Head.Peer)
		switch {
		case okR && okP:
			f.exact[relKey(rel, peer)] = true
		case okR:
			f.relWild[rel] = true
		case okP:
			f.peerWild[peer] = true
		default:
			f.anyWild = true
		}
	}
	return f
}

// neverDerivableRels is the WDL007 relation set: positive non-builtin body
// atoms whose relation nothing in the program can feed.
func (c *checker) neverDerivableRels() map[string]bool {
	f := c.feeds()
	out := map[string]bool{}
	for _, r := range c.rules {
		for _, a := range r.Body {
			if a.Neg {
				continue
			}
			rel, okR := constName(a.Rel)
			peer, okP := constName(a.Peer)
			if !okR || !okP || peer == BuiltinPeer {
				continue
			}
			if !f.fed(rel, peer) {
				out[relKey(rel, peer)] = true
			}
		}
	}
	return out
}

// checkFeeds emits WDL007 (never-derivable body atom, one per relation) and
// WDL008 (declared relation never used by any fact or rule).
func (c *checker) checkFeeds() {
	f := c.feeds()
	flagged := map[string]bool{}
	for _, r := range c.rules {
		for _, a := range r.Body {
			if a.Neg {
				continue
			}
			rel, okR := constName(a.Rel)
			peer, okP := constName(a.Peer)
			if !okR || !okP || peer == BuiltinPeer {
				continue
			}
			key := relKey(rel, peer)
			if f.fed(rel, peer) || flagged[key] {
				continue
			}
			flagged[key] = true
			c.report(at(a.Pos, r.Pos), Warning, CodeNeverDerivable, peer,
				"nothing can derive %s@%s: no fact, declaration, or rule head feeds it", rel, peer)
		}
	}

	// WDL008: collect every relation any fact or rule touches; variable
	// terms make the reference conservative (a variable relation may read
	// or write anything, a variable peer matches the name at any peer).
	used := map[string]bool{}
	usedRelAnywhere := map[string]bool{}
	anyRelVar := false
	touch := func(a ast.Atom) {
		rel, okR := constName(a.Rel)
		peer, okP := constName(a.Peer)
		switch {
		case okR && okP:
			used[relKey(rel, peer)] = true
		case okR:
			usedRelAnywhere[rel] = true
		default:
			anyRelVar = true
		}
	}
	for _, fact := range c.prog.Facts {
		used[relKey(fact.Rel, fact.Peer)] = true
	}
	for _, r := range c.rules {
		touch(r.Head)
		for _, a := range r.Body {
			touch(a)
		}
	}
	if anyRelVar {
		return // a wildcard reference may use any declared relation
	}
	for _, d := range c.prog.Relations {
		if used[relKey(d.Name, d.Peer)] || usedRelAnywhere[d.Name] {
			continue
		}
		if first := c.decls[relKey(d.Name, d.Peer)]; first.Pos != d.Pos {
			continue // only report the first declaration once
		}
		c.report(d.Pos, Warning, CodeUnusedRelation, d.Peer,
			"relation %s@%s is declared but never used", d.Name, d.Peer)
	}
}

// checkPeers emits WDL009: a rule atom naming a constant peer that nothing
// else in the program establishes — no `peer` declaration, no relation
// declared at it, no fact stored at it. Such a delegation or update targets
// a peer the deployment has no way to know about.
func (c *checker) checkPeers() {
	known := map[string]bool{BuiltinPeer: true}
	for _, d := range c.prog.Peers {
		known[d.Name] = true
	}
	for _, d := range c.prog.Relations {
		known[d.Peer] = true
	}
	for _, f := range c.prog.Facts {
		known[f.Peer] = true
	}
	flagged := map[string]bool{}
	check := func(a ast.Atom, owner string) {
		peer, ok := constName(a.Peer)
		if !ok || known[peer] || flagged[peer] {
			return
		}
		flagged[peer] = true
		c.report(at(a.Peer.Pos, a.Pos), Warning, CodeUndeclaredPeer, owner,
			"atom targets peer %q, which is never declared and holds no relation or fact", peer)
	}
	for i, r := range c.rules {
		check(r.Head, c.rulePeers[i])
		for _, a := range r.Body {
			check(a, c.rulePeers[i])
		}
	}
}

// checkACL emits WDL010: a rule derives into an intensional relation whose
// read grants are wider than a body relation's — the view shows data to
// peers that cannot read its sources. Peers without a grant table in
// Options.Grants are skipped (unknown, not empty).
func (c *checker) checkACL() {
	if len(c.opts.Grants) == 0 {
		return
	}
	readable := func(readers []string, peer string) bool {
		for _, r := range readers {
			if r == "*" || r == peer {
				return true
			}
		}
		return false
	}
	for _, r := range c.rules {
		headRel, okR := constName(r.Head.Rel)
		headPeer, okP := constName(r.Head.Peer)
		if !okR || !okP {
			continue
		}
		d, declared := c.decls[relKey(headRel, headPeer)]
		if !declared || d.Kind != ast.Intensional {
			continue
		}
		headGrants := c.opts.Grants[headPeer]
		if headGrants == nil {
			continue
		}
		headReaders := headGrants.Readers(headRel)
		if len(headReaders) == 0 {
			continue
		}
		for _, a := range r.Body {
			rel, okR := constName(a.Rel)
			peer, okP := constName(a.Peer)
			if !okR || !okP || peer == BuiltinPeer {
				continue
			}
			bodyGrants := c.opts.Grants[peer]
			if bodyGrants == nil {
				continue
			}
			bodyReaders := bodyGrants.Readers(rel)
			for _, g := range headReaders {
				if g == peer || readable(bodyReaders, g) {
					continue
				}
				who := fmt.Sprintf("peer %q", g)
				if g == "*" {
					who = `everyone ("*")`
				}
				c.report(at(r.Head.Pos, r.Pos), Warning, CodeACLWiden, headPeer,
					"derived relation %s@%s is readable by %s, which cannot read body relation %s@%s",
					headRel, headPeer, who, rel, peer)
				break // one diagnostic per body atom is enough
			}
		}
	}
}
