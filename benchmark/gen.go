package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/internal/ast"
	"repro/internal/value"
)

// Everything the system under test is fed comes from the generators in this
// file, and each generator draws only on its seed: equal seeds give
// byte-identical programs and operation streams (TestGeneratorsDeterministic).

// ---- wepic ----

// The two daemons' programs: the paper's §2 delegating view rule at the
// viewer, the hub's publish rule, and the rating join.
const (
	wepicEmilien = `
relation extensional pictures@emilien(id, name, owner, data);
`
	wepicSigmod = `
relation extensional rate@sigmod(id, stars);
relation intensional hubRatings@jules(id, stars);
hubRatings@jules($id, $stars) :- rate@sigmod($id, $stars);
`
	wepicJules = `
relation extensional selectedAttendee@jules(attendee);
relation intensional attendeePictures@jules(id, name, owner, data);
relation intensional hubRatings@jules(id, stars);
relation intensional topPictures@jules(id, name);
selectedAttendee@jules("emilien");
attendeePictures@jules($id, $name, $owner, $data) :-
    selectedAttendee@jules($attendee),
    pictures@$attendee($id, $name, $owner, $data);
topPictures@jules($id, $name) :-
    attendeePictures@jules($id, $name, $owner, $data),
    hubRatings@jules($id, 5);
`
)

type wepicKind uint8

const (
	wepicInsert wepicKind = iota // a new picture at emilien
	wepicRate                    // a five-star rating at sigmod
	wepicDelete                  // a picture removed at emilien
)

// wepicOp is one fact update; it is confirmed by one delta at jules:
// insert/delete by ±attendeePictures(id,…), rate by +topPictures(id,…).
type wepicOp struct {
	kind wepicKind
	id   int64
}

// wepicGen produces the 40/20/40 insert/rate/delete stream. What an update
// costs depends on the album's size, so a stream that let it wander would
// measure a moving target: kinds come in blocks of ten — four inserts, two
// ratings, four deletes, in seeded order — which holds the album within
// four pictures of its preloaded size for any seed and any run length. The
// seed picks the order, the pictures and their contents. An op only
// names a picture whose last change (its insert, or its rating) lies at
// least horizon ops back, so with fewer than horizon facts in flight that
// change has been confirmed at jules and the two never race on their
// separate streams.
type wepicGen struct {
	rng       *rand.Rand
	seed      int64
	blobBytes int
	horizon   int

	n       int         // ops generated
	block   []wepicKind // kinds left in the current block of ten
	nextID  int64       // next picture id
	unrated agedPool
	rated   agedPool

	live     map[int64]bool // pictures present after every generated op
	ratedIDs []int64        // every rating ever made; ratings are never withdrawn
}

// agedPool hands out random members whose last change is at least horizon
// ops old.
type agedPool struct {
	ripe  []int64
	young []agedID // in order of age
}

type agedID struct {
	id  int64
	age int // index of the op that last changed it
}

func (p *agedPool) add(id int64, age int) { p.young = append(p.young, agedID{id, age}) }

// ripen moves the members changed at or before cutoff to the ripe set and
// returns its size.
func (p *agedPool) ripen(cutoff int) int {
	k := 0
	for k < len(p.young) && p.young[k].age <= cutoff {
		p.ripe = append(p.ripe, p.young[k].id)
		k++
	}
	p.young = p.young[k:]
	return len(p.ripe)
}

// take removes and returns a random ripe member; the pool must have one.
func (p *agedPool) take(rng *rand.Rand) int64 {
	i := rng.Intn(len(p.ripe))
	id := p.ripe[i]
	p.ripe[i] = p.ripe[len(p.ripe)-1]
	p.ripe = p.ripe[:len(p.ripe)-1]
	return id
}

// newWepicGen builds the stream for a driver that keeps at most inFlight
// facts unconfirmed; the horizon is twice that.
func newWepicGen(seed int64, blobBytes, inFlight int) *wepicGen {
	return &wepicGen{
		rng: rand.New(rand.NewSource(seed)), seed: seed, blobBytes: blobBytes,
		horizon: 2 * inFlight, live: map[int64]bool{},
	}
}

func (g *wepicGen) insert(age int) int64 {
	id := g.nextID
	g.nextID++
	g.live[id] = true
	g.unrated.add(id, age)
	return id
}

func (g *wepicGen) rate(age int) int64 {
	id := g.unrated.take(g.rng)
	g.rated.add(id, age)
	g.ratedIDs = append(g.ratedIDs, id)
	return id
}

// preload returns the pictures and ratings present before the first op.
func (g *wepicGen) preload(pictures, ratings int) (pics []int64, rated []int64) {
	const old = -1 << 30
	for i := 0; i < pictures; i++ {
		pics = append(pics, g.insert(old))
	}
	g.unrated.ripen(old)
	for i := 0; i < min(ratings, pictures); i++ {
		rated = append(rated, g.rate(old))
	}
	return pics, rated
}

func (g *wepicGen) next() wepicOp {
	g.n++
	cutoff := g.n - g.horizon
	nu, nr := g.unrated.ripen(cutoff), g.rated.ripen(cutoff)
	if len(g.block) == 0 {
		g.block = []wepicKind{wepicInsert, wepicInsert, wepicInsert, wepicInsert, wepicRate, wepicRate,
			wepicDelete, wepicDelete, wepicDelete, wepicDelete}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	kind := g.block[0]
	g.block = g.block[1:]
	// A rate or delete with no ripe picture to name (tiny albums only)
	// falls through to an insert.
	switch kind {
	case wepicRate:
		if nu > 0 {
			return wepicOp{wepicRate, g.rate(g.n)}
		}
	case wepicDelete:
		if nu+nr > 0 {
			pool := &g.unrated
			if g.rng.Intn(nu+nr) >= nu {
				pool = &g.rated
			}
			id := pool.take(g.rng)
			delete(g.live, id)
			return wepicOp{wepicDelete, id}
		}
	}
	return wepicOp{wepicInsert, g.insert(g.n)}
}

// pictureFact builds picture id's fact; its blob depends only on the seed
// and the id, so the reference can rebuild it.
func (g *wepicGen) pictureFact(id int64) ast.Fact {
	blob := make([]byte, g.blobBytes)
	rand.New(rand.NewSource(g.seed ^ (id+1)*0x9E3779B97F4A7C)).Read(blob)
	return ast.NewFact("pictures", "emilien", value.Int(id),
		value.Str(fmt.Sprintf("pic%06d.jpg", id)), value.Str("emilien"), value.Blob(blob))
}

func rateFact(id int64) ast.Fact {
	return ast.NewFact("rate", "sigmod", value.Int(id), value.Int(5))
}

// fact returns the base fact an op inserts or deletes.
func (g *wepicGen) fact(op wepicOp) ast.Fact {
	if op.kind == wepicRate {
		return rateFact(op.id)
	}
	return g.pictureFact(op.id)
}

// ---- view_maint ----

func viewMaintProgram() string {
	return `
relation extensional data@p(id, grp);
relation extensional meta@p(grp, label);
relation extensional link@p(a, b);
relation intensional view@p(id, grp, label);
relation intensional hot@p(id);
relation intensional reach@p(a, b);
view@p($i, $g, $l) :- data@p($i, $g), meta@p($g, $l);
hot@p($i) :- view@p($i, $g, "hot");
reach@p($a, $b) :- link@p($a, $b);
reach@p($a, $c) :- reach@p($a, $b), link@p($b, $c);
`
}

// vmOp is a one-fact update: data(id, id mod groups) or link(a, b).
type vmOp struct {
	link bool
	del  bool
	a, b int64
}

// vmGen produces the 50/50 insert/delete stream, 20 % of it on link. The
// base stays near its initial size: data inserts take fresh ids and deletes
// remove a random live row; link deletes cut a random chain edge and link
// inserts restore a cut one.
type vmGen struct {
	rng    *rand.Rand
	groups int64

	data      []int64 // live data ids
	nextData  int64
	liveLinks [][2]int64
	cutLinks  [][2]int64
}

func newVMGen(seed int64, sc scale) *vmGen {
	g := &vmGen{rng: rand.New(rand.NewSource(seed)), groups: int64(sc.vmGroups)}
	for i := 0; i < sc.vmData; i++ {
		g.data = append(g.data, g.nextData)
		g.nextData++
	}
	// Chains of vmChainLen edges; node ids are shuffled so that neighbours
	// in a chain are not neighbours in any index.
	nodes := g.rng.Perm(sc.vmChains * (sc.vmChainLen + 1))
	for c := 0; c < sc.vmChains; c++ {
		base := c * (sc.vmChainLen + 1)
		for k := 0; k < sc.vmChainLen; k++ {
			g.liveLinks = append(g.liveLinks, [2]int64{int64(nodes[base+k]), int64(nodes[base+k+1])})
		}
	}
	return g
}

func (g *vmGen) dataFact(id int64) ast.Fact {
	return ast.NewFact("data", "p", value.Int(id), value.Int(id%g.groups))
}

func linkFact(e [2]int64) ast.Fact {
	return ast.NewFact("link", "p", value.Int(e[0]), value.Int(e[1]))
}

func (g *vmGen) metaFacts() []ast.Fact {
	var out []ast.Fact
	for grp := int64(0); grp < g.groups; grp++ {
		label := "cold"
		if grp%2 == 0 {
			label = "hot"
		}
		out = append(out, ast.NewFact("meta", "p", value.Int(grp), value.Str(label)))
	}
	return out
}

// baseFacts returns every base fact currently present.
func (g *vmGen) baseFacts() []ast.Fact {
	out := g.metaFacts()
	for _, id := range g.data {
		out = append(out, g.dataFact(id))
	}
	for _, e := range g.liveLinks {
		out = append(out, linkFact(e))
	}
	return out
}

func takeEdge(rng *rand.Rand, from, to *[][2]int64) [2]int64 {
	i := rng.Intn(len(*from))
	e := (*from)[i]
	(*from)[i] = (*from)[len(*from)-1]
	*from = (*from)[:len(*from)-1]
	*to = append(*to, e)
	return e
}

func (g *vmGen) next() vmOp {
	onLink := g.rng.Intn(5) == 0
	del := g.rng.Intn(2) == 0
	if onLink {
		if len(g.cutLinks) == 0 {
			del = true
		} else if len(g.liveLinks) == 0 {
			del = false
		}
		var e [2]int64
		if del {
			e = takeEdge(g.rng, &g.liveLinks, &g.cutLinks)
		} else {
			e = takeEdge(g.rng, &g.cutLinks, &g.liveLinks)
		}
		return vmOp{link: true, del: del, a: e[0], b: e[1]}
	}
	if del && len(g.data) > 0 {
		i := g.rng.Intn(len(g.data))
		id := g.data[i]
		g.data[i] = g.data[len(g.data)-1]
		g.data = g.data[:len(g.data)-1]
		return vmOp{del: true, a: id, b: id % g.groups}
	}
	id := g.nextData
	g.nextData++
	g.data = append(g.data, id)
	return vmOp{a: id, b: id % g.groups}
}

func (g *vmGen) fact(op vmOp) ast.Fact {
	if op.link {
		return linkFact([2]int64{op.a, op.b})
	}
	return g.dataFact(op.a)
}

// ---- bulk_load ----

// bulkJob is one cold job's whole input: program text (declarations, the
// adversarially ordered four-way join, transitive closure, and the selector
// and forest facts, so the parser has real work) plus the big relations as
// Apply batches.
type bulkJob struct {
	program string
	batches [][]ast.Fact
	facts   int
}

func newBulkJob(seed int64, sc scale) *bulkJob {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString(`
relation extensional src@p(a, b);
relation extensional mid@p(b, c);
relation extensional dst@p(c, d);
relation extensional sel@p(d);
relation extensional edge@p(a, b);
relation intensional out@p(a, d);
relation intensional tc@p(a, b);
out@p($a, $d) :- src@p($a, $b), mid@p($b, $c), dst@p($c, $d), sel@p($d);
tc@p($a, $b) :- edge@p($a, $b);
tc@p($a, $c) :- tc@p($a, $b), edge@p($b, $c);
`)
	n := sc.bulkRows
	// src, mid, dst chain through three seeded permutations, so each join
	// step is one-to-one and only the selector prunes.
	p1, p2, p3 := rng.Perm(n), rng.Perm(n), rng.Perm(n)
	for _, d := range rng.Perm(n)[:min(sc.bulkSelect, n)] {
		fmt.Fprintf(&sb, "sel@p(%d);\n", d)
	}
	// A forest of complete binary trees whose node ids are a seeded
	// permutation: the closure's size is the same for every seed, only the
	// ids (and so the hash and index layout) differ.
	perTree := sc.bulkTreeN + 1
	ids := rng.Perm(sc.bulkTrees * perTree)
	for t := 0; t < sc.bulkTrees; t++ {
		for k := 1; k <= sc.bulkTreeN; k++ {
			fmt.Fprintf(&sb, "edge@p(%d, %d);\n", ids[t*perTree+(k-1)/2], ids[t*perTree+k])
		}
	}
	job := &bulkJob{program: sb.String()}
	var all []ast.Fact
	for i := 0; i < n; i++ {
		all = append(all,
			ast.NewFact("src", "p", value.Int(int64(i)), value.Int(int64(p1[i]))),
			ast.NewFact("mid", "p", value.Int(int64(p1[i])), value.Int(int64(p2[i]))),
			ast.NewFact("dst", "p", value.Int(int64(p2[i])), value.Int(int64(p3[i]))))
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	per := (len(all) + sc.bulkBatches - 1) / sc.bulkBatches
	for len(all) > 0 {
		k := min(per, len(all))
		job.batches = append(job.batches, all[:k])
		all = all[k:]
	}
	job.facts = 3 * n
	return job
}

// ---- swarm ----

// swarmPlan is the follower graph and the seed posts. Rules live at the
// author: feed@follower(author, $i) :- post@author($i).
type swarmPlan struct {
	rng       *rand.Rand
	postBytes int
	followers [][]int    // author -> followers
	posts     [][]string // author -> live post ids, in posting order
	seq       int
}

func swarmPeerName(i int) string { return fmt.Sprintf("p%05d", i) }

func newSwarmPlan(seed int64, sc scale) *swarmPlan {
	pl := &swarmPlan{rng: rand.New(rand.NewSource(seed)), postBytes: sc.swPostBytes,
		followers: make([][]int, sc.swPeers), posts: make([][]string, sc.swPeers)}
	for f := 0; f < sc.swPeers; f++ {
		seen := map[int]bool{f: true}
		for len(seen) < sc.swFollows+1 {
			a := pl.rng.Intn(sc.swPeers)
			if !seen[a] {
				seen[a] = true
				pl.followers[a] = append(pl.followers[a], f)
			}
		}
	}
	for a := range pl.posts {
		for k := 0; k < sc.swSeedPosts; k++ {
			pl.posts[a] = append(pl.posts[a], pl.newPost())
		}
	}
	return pl
}

func (pl *swarmPlan) newPost() string {
	id := fmt.Sprintf("post-%d-", pl.seq)
	pl.seq++
	if len(id) < pl.postBytes {
		id += strings.Repeat("x", pl.postBytes-len(id))
	}
	return id
}

// swarmOp is one post inserted or deleted at an author.
type swarmOp struct {
	author int
	del    bool
	post   string
}

func (op swarmOp) fact() ast.Fact {
	return ast.NewFact("post", swarmPeerName(op.author), value.Str(op.post))
}

// round returns posts new posts and deletes deletions of live posts, at
// seeded authors.
func (pl *swarmPlan) round(posts, deletes int) []swarmOp {
	ops := make([]swarmOp, 0, posts+deletes)
	for i := 0; i < posts; i++ {
		a := pl.rng.Intn(len(pl.posts))
		p := pl.newPost()
		pl.posts[a] = append(pl.posts[a], p)
		ops = append(ops, swarmOp{author: a, post: p})
	}
	for i := 0; i < deletes; i++ {
		a := pl.rng.Intn(len(pl.posts))
		if len(pl.posts[a]) == 0 {
			continue
		}
		k := pl.rng.Intn(len(pl.posts[a]))
		p := pl.posts[a][k]
		pl.posts[a] = append(pl.posts[a][:k], pl.posts[a][k+1:]...)
		ops = append(ops, swarmOp{author: a, del: true, post: p})
	}
	return ops
}

// ---- determinism ----

// streamHash hashes the generated inputs of every workload for a seed: the
// programs and the first ops of each op stream, rendered as text.
func streamHash(seed int64, sc scale, ops int) uint64 {
	h := fnv.New64a()
	put := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) }

	wg := newWepicGen(seed, sc.blobBytes, sc.satClients*sc.satWindow*sc.satBatch)
	put(wepicEmilien + wepicSigmod + wepicJules)
	pics, rated := wg.preload(sc.pictures, sc.pictures/10)
	for _, id := range pics[:min(len(pics), 8)] {
		put(wg.pictureFact(id).String())
	}
	put(fmt.Sprint(rated))
	for i := 0; i < ops; i++ {
		op := wg.next()
		put(fmt.Sprint(op.kind, op.id))
		if op.kind == wepicInsert && i%16 == 0 {
			put(wg.fact(op).String())
		}
	}

	vg := newVMGen(seed, sc)
	put(viewMaintProgram())
	for _, e := range vg.liveLinks {
		put(linkFact(e).String())
	}
	for i := 0; i < ops; i++ {
		op := vg.next()
		put(fmt.Sprint(op.del, vg.fact(op)))
	}

	job := newBulkJob(seed, sc)
	put(job.program)
	for _, b := range job.batches {
		for _, f := range b {
			put(f.String())
		}
	}

	pl := newSwarmPlan(seed, sc)
	for _, fs := range pl.followers {
		put(fmt.Sprint(fs))
	}
	for i := 0; i < ops/16+1; i++ {
		for _, op := range pl.round(sc.swRoundPosts, sc.swRoundDeletes) {
			put(fmt.Sprint(op.author, op.del, op.post))
		}
	}
	return h.Sum64()
}
