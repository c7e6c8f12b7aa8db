package peer

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/value"
)

// refDeltas is the reference for a stage's net base deltas: the map-based
// netting the per-relation lists replaced. Each change the store made is
// recorded in apply order, and a change cancels an opposite one of the same
// key recorded earlier in the stage.
type refDeltas struct {
	ins, del map[string]map[string]value.Tuple
}

func (r *refDeltas) record(relID, key string, t value.Tuple, del bool) {
	if del {
		if m := r.ins[relID]; m[key] != nil {
			delete(m, key) // inserted earlier this stage: net zero
			return
		}
		putTuple(r.del, relID, key, t)
		return
	}
	if m := r.del[relID]; m[key] != nil {
		delete(m, key) // deleted earlier this stage: net zero
		return
	}
	putTuple(r.ins, relID, key, t)
}

// netOp is one update of r@p or s@p, relations of one column.
type netOp struct {
	rel string
	k   int64
	del bool
}

func (o netOp) String() string {
	sign := "+"
	if o.del {
		sign = "-"
	}
	return fmt.Sprintf("%s%s(%d)", sign, o.rel, o.k)
}

// netProgram views r@p as v@p, so a stage's base deltas also drive the
// engine's maintenance.
const netProgram = `
relation extensional r@p(x);
relation extensional s@p(x);
relation intensional v@p(x);
v@p($x) :- r@p($x);`

// runNetCase applies pre and runs a stage, then applies each of batches
// and runs one stage, on two peers alike. Of one it takes the stage's ingest
// and checks the engine input against refDeltas; of the other it runs the
// stage and checks what subscriptions to r, s and v stream against
// refDeltas too. It returns the streamed deltas, rendered, by relation.
func runNetCase(t *testing.T, pre []netOp, batches [][]netOp) map[string][]string {
	t.Helper()
	ctx := context.Background()
	peers := []*Peer{newIngestPeer(t, netProgram), newIngestPeer(t, netProgram)}
	for _, p := range peers {
		defer p.Close()
	}
	apply := func(ops []netOp) {
		for _, p := range peers {
			b := engine.NewBatch()
			for _, o := range ops {
				f := ast.NewFact(o.rel, "p", value.Int(o.k))
				if o.del {
					b.Delete(f)
				} else {
					b.Insert(f)
				}
			}
			if err := p.Apply(ctx, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(pre)
	for _, p := range peers {
		if rep := p.RunStage(); len(rep.Errors) > 0 {
			t.Fatal(rep.Errors)
		}
	}

	// The reference sees the changes the store makes: an insert of an
	// absent tuple, a delete of a present one.
	present := map[string]bool{}
	for _, o := range pre {
		present[fmt.Sprint(o.rel, o.k)] = !o.del
	}
	ref := &refDeltas{ins: map[string]map[string]value.Tuple{}, del: map[string]map[string]value.Tuple{}}
	for _, batch := range batches {
		for _, o := range batch {
			if present[fmt.Sprint(o.rel, o.k)] == o.del {
				present[fmt.Sprint(o.rel, o.k)] = !o.del
				tup := value.Tuple{value.Int(o.k)}
				ref.record(o.rel+"@p", tup.Key(), tup, o.del)
			}
		}
		apply(batch)
	}

	p := peers[0]
	p.mu.Lock()
	d := &stageDeltas{rels: map[string]*relDelta{}}
	p.ingestLocked(&StageReport{}, d)
	in := d.engineInput()
	p.mu.Unlock()
	for _, relID := range []string{"r@p", "s@p"} {
		checkNetList(t, "inserts", relID, in.Ins[relID], in.InsKeys[relID], ref.ins[relID], p.db.GetID(relID))
		checkNetList(t, "deletes", relID, in.Del[relID], in.DelKeys[relID], ref.del[relID], nil)
	}

	q := peers[1]
	chans := map[string]<-chan Delta{}
	for _, rel := range []string{"r", "s", "v"} {
		ch, err := q.Subscribe(ctx, rel)
		if err != nil {
			t.Fatal(err)
		}
		chans[rel] = ch
	}
	if rep := q.RunStage(); len(rep.Errors) > 0 {
		t.Fatal(rep.Errors)
	}
	got := map[string][]string{}
	for rel, ch := range chans {
		for _, dl := range drainDeltas(ch) {
			got[rel] = append(got[rel], dl.String())
		}
	}
	for rel, base := range map[string]string{"r": "r", "s": "s", "v": "r"} {
		if want := refStream(rel, ref, base+"@p"); !slices.Equal(got[rel], want) {
			t.Errorf("%s streamed %v, reference %v", rel, got[rel], want)
		}
	}
	if r, v := tuples(q, "r"), tuples(q, "v"); !slices.Equal(r, v) {
		t.Errorf("v = %v, want r = %v", v, r)
	}
	return got
}

// checkNetList checks one relation's list of the engine input against the
// reference set: the same keys, each once and with its tuple; with stored
// set, each tuple the very one the store holds.
func checkNetList(t *testing.T, what, relID string, ts []value.Tuple, keys []string, want map[string]value.Tuple, stored *store.Relation) {
	t.Helper()
	if len(ts) != len(keys) || len(ts) != len(want) {
		t.Errorf("%s of %s: %d tuples, %d keys, reference %d", what, relID, len(ts), len(keys), len(want))
		return
	}
	want, held := maps.Clone(want), map[string]value.Tuple{}
	if stored != nil {
		stored.Iterate(func(tp value.Tuple) bool {
			held[tp.Key()] = tp
			return true
		})
	}
	for i, key := range keys {
		w, ok := want[key]
		switch {
		case !ok || !ts[i].Equal(w) || ts[i].Key() != key:
			t.Errorf("%s of %s: %v under key %q, reference %v", what, relID, ts[i], key, w)
		case stored != nil && &held[key][0] != &ts[i][0]:
			t.Errorf("%s of %s: %v is not the tuple the store holds", what, relID, ts[i])
		}
		delete(want, key) // a key listed twice fails the next lookup
	}
}

// refStream is what a subscription to rel should stream for the reference
// changes of relID: deletions, then insertions, each sorted.
func refStream(rel string, ref *refDeltas, relID string) []string {
	var out []string
	for _, del := range []bool{true, false} {
		m := ref.ins[relID]
		if del {
			m = ref.del[relID]
		}
		var ts []value.Tuple
		for _, tp := range m {
			ts = append(ts, tp)
		}
		value.SortTuples(ts)
		for _, tp := range ts {
			out = append(out, Delta{Rel: rel, Delete: del, Tuple: tp}.String())
		}
	}
	return out
}

// TestStageDeltasNet checks the lists a stage records against the map-based
// netting they replaced: random updates of a few keys of two relations, some
// keys present before, applied in several batches and ingested by one
// stage, give the engine and every subscription what the reference gives;
// and the named cases stream what they must.
func TestStageDeltasNet(t *testing.T) {
	for seed := range int64(150) {
		rng := rand.New(rand.NewSource(seed))
		op := func() netOp {
			return netOp{rel: []string{"r", "s"}[rng.Intn(2)], k: int64(rng.Intn(4)), del: rng.Intn(2) == 0}
		}
		var pre []netOp
		for range rng.Intn(6) {
			pre = append(pre, netOp{rel: op().rel, k: int64(rng.Intn(4))})
		}
		batches := make([][]netOp, 1+rng.Intn(4))
		for i := range batches {
			for range 1 + rng.Intn(6) {
				batches[i] = append(batches[i], op())
			}
		}
		t.Run(fmt.Sprint("random/", seed), func(t *testing.T) {
			t.Logf("pre %v, batches %v", pre, batches)
			runNetCase(t, pre, batches)
		})
	}

	f, g, e := netOp{rel: "r", k: 1}, netOp{rel: "r", k: 2}, netOp{rel: "r", k: 3}
	del := func(o netOp) netOp { o.del = true; return o }
	for _, c := range []struct {
		name    string
		pre     []netOp
		batches [][]netOp
		want    []string // streamed on r, and on v, which views r
	}{
		{"insert, delete, insert another", nil, [][]netOp{{f, del(f)}, {g}}, []string{"+r(2)"}},
		{"delete and re-insert an existing fact", []netOp{e}, [][]netOp{{del(e)}, {e}}, nil},
		{"insert, delete, insert again", nil, [][]netOp{{f}, {del(f), f}}, []string{"+r(1)"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := runNetCase(t, c.pre, c.batches)
			if !slices.Equal(got["r"], c.want) {
				t.Errorf("r streamed %v, want %v", got["r"], c.want)
			}
			wantV := slices.Clone(c.want)
			for i := range wantV {
				wantV[i] = wantV[i][:1] + "v" + wantV[i][2:]
			}
			if !slices.Equal(got["v"], wantV) {
				t.Errorf("v streamed %v, want %v", got["v"], wantV)
			}
		})
	}
}
