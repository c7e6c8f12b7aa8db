package peer

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/store"
	"repro/internal/value"
)

// fuzzBytes hands out the fuzz input a byte at a time, zeros once exhausted.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

var fuzzRelIDs = []string{"view@b", "ext@b", "other@b", "view@c"}
var fuzzRels = []string{"view", "ext", "other", "view"}

// fuzzRangeRepair decodes the fuzz input into a ranged repair: a relation
// id, up to 1023 ranges at 1/256th-of-the-hash-line granularity (Hi < Lo and
// overlaps included), and ops over a small key space with every way of
// being malformed one flag bit away.
func fuzzRangeRepair(data []byte) protocol.RangeRepairMsg {
	in := fuzzBytes(data)
	msg := protocol.RangeRepairMsg{RelID: fuzzRelIDs[in.next()%4]}
	for n := (int(in.next())<<8 | int(in.next())) % 1024; n > 0; n-- {
		lo, hi := uint64(in.next())<<56, uint64(in.next())<<56|(1<<56-1)
		msg.Ranges = append(msg.Ranges, protocol.HashRange{Lo: lo, Hi: hi})
	}
	for len(in) > 0 {
		flags, k := in.next(), int64(in.next())
		fd := protocol.FactDelta{
			Delete: flags&1 != 0,
			Maint:  flags&2 == 0,
			Fact:   ast.NewFact(fuzzRels[flags>>2%4], "b", value.Int(k)),
		}
		if flags&16 != 0 {
			fd.Fact.Peer = "c"
		}
		if flags&32 != 0 {
			fd.Fact.Args = append(fd.Fact.Args, value.Int(k))
		}
		msg.Ops = append(msg.Ops, fd)
	}
	return msg
}

// ledgerKeys copies one session ledger's key sets, checking on the way that
// every relation's summary tree digests exactly the keys it enumerates and
// that no emptied relation keeps a tree.
func ledgerKeys(t *testing.T, p *Peer, from string) map[string]map[string]bool {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.sessionLocked(from)
	out := map[string]map[string]bool{}
	for relID, tr := range s.trees {
		keys, _ := tr.RangeKeys(fullRange.Lo, fullRange.Hi, 0)
		if len(keys) == 0 {
			t.Fatalf("%s ledger keeps an empty tree for %s", from, relID)
		}
		var d store.Digest
		out[relID] = map[string]bool{}
		for _, key := range keys {
			d.Add(key)
			out[relID][key] = true
		}
		if got := s.ledgerDigest(relID); got != d {
			t.Fatalf("%s ledger tree of %s digests %+v, its members %+v", from, relID, got, d)
		}
	}
	return out
}

// FuzzRangeRepair: applying an arbitrary RangeRepairMsg from sender a — the
// byte boundary a hostile or buggy peer reaches the ledger through — never
// panics, never touches sender c's support, leaves a's ledger outside the
// stated ranges untouched and inside them equal to the message's valid ops,
// and keeps the view equal to what the two ledgers support.
func FuzzRangeRepair(f *testing.F) {
	full := []byte{0x00, 0xff}
	enc := func(rel byte, ranges [][]byte, ops ...byte) []byte {
		out := []byte{rel, byte(len(ranges) >> 8), byte(len(ranges))}
		for _, r := range ranges {
			out = append(out, r...)
		}
		return append(out, ops...)
	}
	many := make([][]byte, rangedMaxRanges+1)
	for i := range many {
		many[i] = full
	}
	f.Add(enc(0, [][]byte{full}, 0, 1, 0, 2))                             // well-formed: view@b becomes {1, 2}
	f.Add(enc(0, [][]byte{{0x80, 0x10}}, 0, 3))                           // Hi < Lo
	f.Add(enc(0, [][]byte{{0x00, 0x90}, {0x40, 0xff}}, 0, 7))             // overlapping ranges
	f.Add(enc(0, [][]byte{full}, 16, 5))                                  // foreign Fact.Peer
	f.Add(enc(0, [][]byte{full}, 4, 5))                                   // op for another relation than RelID
	f.Add(enc(3, [][]byte{full}, 0, 5))                                   // RelID at another peer
	f.Add(enc(0, [][]byte{full}, 1, 5))                                   // Delete op
	f.Add(enc(0, [][]byte{full}, 2, 5))                                   // unmaintained op
	f.Add(enc(0, many, 0, 9))                                             // > rangedMaxRanges
	f.Add(enc(0, [][]byte{{0x00, 0x0f}}, 0, 200, 0, 201, 0, 202, 0, 203)) // new keys hashing outside the stated range
	f.Add(enc(1, [][]byte{full}))                                         // empty an extensional relation's ledger
	f.Add(enc(2, [][]byte{full}, 8, 5, 40, 6))                            // undeclared relation, wrong arity

	f.Fuzz(func(t *testing.T, data []byte) {
		msg := fuzzRangeRepair(data)

		n := NewSequentialNetwork()
		b, err := n.NewPeer(Config{Name: "b", ResyncInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if err := b.DeclareRelation("view", ast.Intensional, "x"); err != nil {
			t.Fatal(err)
		}
		if err := b.DeclareRelation("ext", ast.Extensional, "x"); err != nil {
			t.Fatal(err)
		}
		// Senders a and c each maintain 64 facts in both relations, half of
		// them shared.
		deliver := func(from string, seq uint64, payload protocol.Payload) *StageReport {
			t.Helper()
			ep := n.Bus().Endpoint(from)
			if err := ep.Send(context.Background(), "b", protocol.DataMsg{Epoch: 1, Seq: seq, Msg: payload}); err != nil {
				t.Fatal(err)
			}
			return b.RunStage()
		}
		for from, base := range map[string]int64{"a": 0, "c": 32} {
			var load protocol.FactsMsg
			for k := base; k < base+64; k++ {
				for _, rel := range []string{"view", "ext"} {
					load.Ops = append(load.Ops, protocol.FactDelta{Maint: true, Fact: ast.NewFact(rel, "b", value.Int(k))})
				}
			}
			if rep := deliver(from, 1, load); len(rep.Errors) > 0 {
				t.Fatal(rep.Errors)
			}
		}
		before, beforeC := ledgerKeys(t, b, "a"), ledgerKeys(t, b, "c")

		rep := deliver("a", 2, msg)

		// The oracle: the ledger a well-behaved receiver ends up with.
		inRanges := func(key string) bool {
			h := store.KeyHash(key)
			for _, r := range msg.Ranges {
				if r.Lo <= h && h <= r.Hi {
					return true
				}
			}
			return false
		}
		want := before
		refused := 1 // a message over the range cap is refused whole
		if len(msg.Ranges) <= rangedMaxRanges {
			refused = len(msg.Ops)
			rel := map[string]bool{}
			for key := range before[msg.RelID] {
				if !inRanges(key) {
					rel[key] = true
				}
			}
			for _, fd := range msg.Ops {
				key := fd.Fact.Args.Key()
				if !fd.Delete && fd.Maint && fd.Fact.Peer == "b" && fd.Fact.Rel+"@b" == msg.RelID && inRanges(key) {
					rel[key] = true
					refused--
				}
			}
			delete(want, msg.RelID)
			if len(rel) > 0 {
				want[msg.RelID] = rel
			}
		}
		if got := b.Stats().RuntimeErrors; len(rep.Errors) < refused || got != uint64(len(rep.Errors)) {
			t.Fatalf("%d refusals reported as %d stage errors and counted as %d", refused, len(rep.Errors), got)
		}
		if got := ledgerKeys(t, b, "a"); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("a's ledger after %+v:\n got %v\nwant %v", msg, got, want)
		}
		afterC := ledgerKeys(t, b, "c")
		if fmt.Sprint(afterC) != fmt.Sprint(beforeC) {
			t.Fatalf("a's repair changed c's ledger:\n got %v\nwant %v", afterC, beforeC)
		}
		// view@b has no local rules: it holds exactly what a and c support.
		supported := map[string]bool{}
		for _, ledger := range []map[string]map[string]bool{want, afterC} {
			for key := range ledger["view@b"] {
				if tup, err := value.DecodeKey(key); err == nil && len(tup) == 1 {
					supported[key] = true
				}
			}
		}
		view := b.Query("view")
		for _, tup := range view {
			if !supported[tup.Key()] {
				t.Fatalf("view@b holds %v, which neither sender supports", tup)
			}
		}
		if len(view) != len(supported) {
			t.Fatalf("view@b holds %d tuples, the ledgers support %d", len(view), len(supported))
		}
	})
}

// replayWorld is FuzzSubscriptionReplay's deployment: subject peers inc
// (plain) and reco (Incremental off, so every stage rebuilds its views) run
// one program, pull from a scripted wrapper hook each, and receive
// maintained and transient seeds from peer hub. Every relation of both
// subjects is subscribed, with a replica built from the Subscribe-time
// baseline. The sequential scheduler stages peers in name order, so hub's
// emissions reach both subjects in the same round and the two see the same
// stages — transient seeds expire at the same point on both.
type replayWorld struct {
	t        *testing.T
	n        *Network
	hub      *Peer
	subjects []*Peer
	hooks    map[string]*pullHook
	toggle   map[string]string // subject -> rule id of the negation toggle
	negated  bool
	replicas map[string]map[string]bool // "rel@peer" -> key set
	streams  map[string]<-chan Delta
}

var replayRels = []string{"link", "pulled", "seed", "tmp", "view", "reach", "filt"}

const replayProgram = `
	relation extensional link@%[1]s(x, y);
	relation extensional pulled@%[1]s(x);
	relation intensional seed@%[1]s(x);
	relation intensional tmp@%[1]s(x);
	relation intensional view@%[1]s(x);
	relation intensional reach@%[1]s(x, y);
	relation intensional filt@%[1]s(x);
	view@%[1]s($x) :- pulled@%[1]s($x);
	view@%[1]s($x) :- seed@%[1]s($x);
	view@%[1]s($x) :- tmp@%[1]s($x);
	reach@%[1]s($x, $y) :- link@%[1]s($x, $y);
	reach@%[1]s($x, $z) :- reach@%[1]s($x, $y), link@%[1]s($y, $z);
	view@%[1]s($x) :- reach@%[1]s($x, $y);
`

// toggleRule is the rule ReplaceRule flips: negated, its program leaves the
// incremental envelope and every stage rebuilds.
func toggleRule(peer string, negated bool) string {
	not := ""
	if negated {
		not = "not "
	}
	return fmt.Sprintf(`filt@%[1]s($x) :- view@%[1]s($x), %[2]slink@%[1]s($x, $x);`, peer, not)
}

func newReplayWorld(t *testing.T) *replayWorld {
	w := &replayWorld{t: t, n: NewSequentialNetwork(), hooks: map[string]*pullHook{},
		toggle: map[string]string{}, replicas: map[string]map[string]bool{}, streams: map[string]<-chan Delta{}}
	newPeer := func(cfg Config) *Peer {
		cfg.ResyncInterval = -1
		p, err := w.n.NewPeer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	w.hub = newPeer(Config{Name: "hub"})
	if err := w.hub.LoadSource(`
		relation extensional src@hub(x);
		seed@inc($x) :- src@hub($x);
		seed@reco($x) :- src@hub($x);
	`); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{Name: "inc"}, {Name: "reco", Engine: &engine.Options{Incremental: false}}} {
		s := newPeer(cfg)
		if err := s.LoadSource(fmt.Sprintf(replayProgram, cfg.Name)); err != nil {
			t.Fatal(err)
		}
		id, err := s.AddRule(toggleRule(cfg.Name, false))
		if err != nil {
			t.Fatal(err)
		}
		w.toggle[cfg.Name] = id
		w.hooks[cfg.Name] = &pullHook{}
		s.SetHooks(w.hooks[cfg.Name])
		// Subscribed before the first stage: its rebuild streams too.
		for _, rel := range replayRels {
			ch, err := s.Subscribe(context.Background(), rel)
			if err != nil {
				t.Fatal(err)
			}
			relID := rel + "@" + cfg.Name
			w.streams[relID] = ch
			w.replicas[relID] = keySet(s.Query(rel))
		}
		w.subjects = append(w.subjects, s)
	}
	return w
}

func keySet(ts []value.Tuple) map[string]bool {
	out := make(map[string]bool, len(ts))
	for _, tup := range ts {
		out[tup.Key()] = true
	}
	return out
}

// op applies one decoded operation: a maintained seed change at hub, or
// the same local change at both subjects.
func (w *replayWorld) op(kind, v byte) {
	x, y := value.Int(int64(v>>4%6)), value.Int(int64(v%6))
	kind %= 8
	if kind == 7 {
		w.negated = !w.negated
	}
	for _, s := range w.subjects {
		var err error
		switch kind {
		case 0:
			err = s.Insert(ast.NewFact("link", s.Name(), x, y))
		case 1:
			err = s.Delete(ast.NewFact("link", s.Name(), x, y))
		case 4: // a transient seed: holds until the next stage that runs
			err = w.hub.Insert(ast.NewFact("tmp", s.Name(), y))
		case 5, 6:
			op := engine.FactOp{Op: ast.Derive, Fact: ast.NewFact("pulled", s.Name(), y)}
			if kind == 6 {
				op.Op = ast.Delete
			}
			h := w.hooks[s.Name()]
			h.queued = append(h.queued, op)
			s.Poke()
		case 7:
			err = s.ReplaceRule(w.toggle[s.Name()], toggleRule(s.Name(), w.negated))
		}
		if err != nil {
			w.t.Fatal(err)
		}
	}
	var err error
	switch kind {
	case 2:
		err = w.hub.Insert(ast.NewFact("src", "hub", y))
	case 3:
		err = w.hub.Delete(ast.NewFact("src", "hub", y))
	}
	if err != nil {
		w.t.Fatal(err)
	}
}

// check quiesces the network and requires every replica, advanced by what
// its subscription streamed, to equal the relation — each delta exact (no
// insert of a present key, no delete of an absent one) — and the two
// subjects to agree.
func (w *replayWorld) check(step int) {
	w.t.Helper()
	quiesce(w.t, w.n)
	for _, s := range w.subjects {
		if got := s.Subscribers(); got != len(replayRels) {
			w.t.Fatalf("step %d: %s has %d live subscriptions, want %d", step, s.Name(), got, len(replayRels))
		}
		for _, rel := range replayRels {
			relID := rel + "@" + s.Name()
			replica := w.replicas[relID]
			for _, d := range drainDeltas(w.streams[relID]) {
				key := d.Tuple.Key()
				if replica[key] != d.Delete {
					w.t.Fatalf("step %d: %s streamed %v, not a change to replica %v", step, relID, d, replica)
				}
				if d.Delete {
					delete(replica, key)
				} else {
					replica[key] = true
				}
			}
			if want := keySet(s.Query(rel)); fmt.Sprint(replica) != fmt.Sprint(want) {
				w.t.Fatalf("step %d: %s replica %v, Query %v", step, relID, replica, want)
			}
		}
	}
	for _, rel := range replayRels {
		if a, p := tuples(w.subjects[0], rel), tuples(w.subjects[1], rel); fmt.Sprint(a) != fmt.Sprint(p) {
			w.t.Fatalf("step %d: %s differs: incremental peer %v, recomputing peer %v", step, rel, a, p)
		}
	}
}

// FuzzSubscriptionReplay: after every stage, a subscriber's baseline with
// every streamed delta applied equals Query for every subscribed relation,
// whatever produced the change — extensional inserts and deletes, maintained
// and transient seeds from another peer, wrapper-hook pulls, program
// changes flipping a rule into and out of negation (into it, every stage
// rebuilds the views; out of it, the change is a program delta that removes
// the negated rule), on a peer maintaining its views incrementally and on a
// peer with Incremental off that rebuilds them every stage. Each op is two bytes (kind, value); the kind's
// high bit ends the stage after the op, so ops also coalesce in one stage.
func FuzzSubscriptionReplay(f *testing.F) {
	f.Add([]byte{0x80, 0x01, 0x80, 0x12, 0x81, 0x01})                                     // links, then a deletion cascading through reach
	f.Add([]byte{0x82, 0x03, 0x84, 0x04, 0x80, 0x00, 0x83, 0x03})                         // maintained and transient seeds
	f.Add([]byte{0x85, 0x02, 0x05, 0x03, 0x86, 0x02, 0x80, 0x22})                         // hook pulls and a pulled delete
	f.Add([]byte{0x80, 0x11, 0x87, 0x00, 0x81, 0x11, 0x80, 0x22, 0x87, 0x00, 0x80, 0x33}) // negation on, changes, off
	f.Add([]byte{0x00, 0x01, 0x01, 0x01, 0x02, 0x05, 0x03, 0x05, 0x84, 0x05})             // ops netting out inside one stage
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			data = data[:96] // bound stage sizes under the subscription buffer
		}
		w := newReplayWorld(t)
		w.check(-1)
		for i := 0; i+1 < len(data); i += 2 {
			w.op(data[i], data[i+1])
			if data[i]&0x80 != 0 {
				w.check(i / 2)
			}
		}
		w.check(len(data) / 2)
	})
}
