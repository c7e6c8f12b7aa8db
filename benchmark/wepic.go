package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/peer"
	"repro/internal/value"
)

// wepicInst is the two-daemon Wepic deployment shared by wepic_interactive
// and wepic_saturate. Daemon A hosts emilien (the author) and sigmod (the
// hub); daemon B hosts jules (the viewer). Each daemon reaches the other's
// peers only through a counting relay; every peer has a WAL directory, so
// the WAL and the durable outbox log are on the path.
type wepicInst struct {
	clients int // concurrent closed-loop clients
	window  int // unconfirmed batches per client
	batch   int // facts per batch

	genMu sync.Mutex
	gen   *wepicGen

	dA, dB   *daemon.Daemon
	relJules *relay // A→B: emilien's and sigmod's streams to jules
	relBack  []*relay
	cancel   context.CancelFunc
	jules    *peer.Peer
	tmp      string

	httpc    *http.Client
	applyURL string

	pendMu  sync.Mutex
	pending map[confirmKey]*flight

	consumers sync.WaitGroup
}

// confirmKey identifies the one delta at jules that confirms a fact update.
type confirmKey struct {
	top bool // topPictures rather than attendeePictures
	del bool
	id  int64
}

func keyOf(op wepicOp) confirmKey {
	return confirmKey{top: op.kind == wepicRate, del: op.kind == wepicDelete, id: op.id}
}

// flight is one batch between POST /apply and its last confirming delta.
type flight struct {
	rec      *recorder
	tr       *spanRecorder
	update   int64
	keys     []confirmKey
	start    time.Time
	httpDone atomic.Int64 // unix nanos; 0 until POST returned
	left     int          // under pendMu
	over     bool         // under pendMu: completed or expired
	timer    *time.Timer
	release  func()
}

func setupWepicInteractive(ctx context.Context, seed int64, sc scale, tmp string) (instance, error) {
	return setupWepic(ctx, seed, sc, tmp, 1, 1, 1)
}

func setupWepicSaturate(ctx context.Context, seed int64, sc scale, tmp string) (instance, error) {
	// Load comes from this one process, from at most one client per core.
	clients := min(sc.satClients, runtime.NumCPU())
	return setupWepic(ctx, seed, sc, tmp, clients, sc.satWindow, sc.satBatch)
}

func setupWepic(ctx context.Context, seed int64, sc scale, tmp string, clients, window, batch int) (_ instance, err error) {
	w := &wepicInst{clients: clients, window: window, batch: batch,
		gen: newWepicGen(seed, sc.blobBytes, clients*window*batch), tmp: tmp, pending: map[confirmKey]*flight{}}
	defer func() {
		if err != nil {
			w.close()
		}
	}()

	var rels [3]*relay // jules, emilien, sigmod
	for i := range rels {
		if rels[i], err = newRelay(); err != nil {
			return nil, err
		}
	}
	w.relJules, w.relBack = rels[0], rels[1:]

	hosted := func(name, program string) daemon.PeerConfig {
		return daemon.PeerConfig{Name: name, Program: program, WAL: filepath.Join(tmp, name)}
	}
	w.dA, err = daemon.New(&daemon.Config{
		Peers:   []daemon.PeerConfig{hosted("emilien", wepicEmilien), hosted("sigmod", wepicSigmod)},
		Remotes: map[string]string{"jules": rels[0].addr()},
	})
	if err != nil {
		return nil, err
	}
	w.dB, err = daemon.New(&daemon.Config{
		Peers:   []daemon.PeerConfig{hosted("jules", wepicJules)},
		Remotes: map[string]string{"emilien": rels[1].addr(), "sigmod": rels[2].addr()},
	})
	if err != nil {
		return nil, err
	}
	dctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	if err = w.dA.Start(dctx); err != nil {
		return nil, err
	}
	if err = w.dB.Start(dctx); err != nil {
		return nil, err
	}
	rels[0].setTarget(w.dB.PeerAddr("jules"))
	rels[1].setTarget(w.dA.PeerAddr("emilien"))
	rels[2].setTarget(w.dA.PeerAddr("sigmod"))
	w.jules = w.dB.Peer("jules")

	w.httpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	w.applyURL = "http://" + w.dA.AdminAddr() + "/apply"

	// Preload, then wait for the views to converge at jules.
	pics, rated := w.gen.preload(sc.pictures, sc.pictures/10)
	for len(pics) > 0 {
		k := min(64, len(pics))
		var facts []ast.Fact
		for _, id := range pics[:k] {
			facts = append(facts, w.gen.pictureFact(id))
		}
		if err = w.post(ctx, facts, nil); err != nil {
			return nil, err
		}
		pics = pics[k:]
	}
	var facts []ast.Fact
	for _, id := range rated {
		facts = append(facts, rateFact(id))
	}
	if err = w.post(ctx, facts, nil); err != nil {
		return nil, err
	}
	if err = waitFor(ctx, 60*time.Second, func() bool {
		return w.julesLen("attendeePictures") == sc.pictures && w.julesLen("topPictures") == len(rated)
	}); err != nil {
		return nil, fmt.Errorf("preload did not converge at jules: %w", err)
	}

	for _, sub := range []struct {
		rel string
		top bool
	}{{"attendeePictures", false}, {"topPictures", true}} {
		ch, err := w.jules.Subscribe(dctx, sub.rel)
		if err != nil {
			return nil, err
		}
		w.consumers.Add(1)
		go w.consume(sub.top, ch)
	}

	// Warm ops: first dials, index builds and rule compilations belong to
	// set-up, not to the window.
	warm := newRecorder(time.Now(), 0, nil)
	issued := 0
	w.drive(ctx, warm, func() bool { issued++; return issued > 32*clients })
	if warm.failed > 0 {
		return nil, fmt.Errorf("%d of %d warm-up operations failed", warm.failed, warm.attempted)
	}
	return w, nil
}

func (w *wepicInst) julesLen(rel string) int {
	if r := w.jules.Store().Get(rel, "jules"); r != nil {
		return r.Len()
	}
	return 0
}

// waitFor polls cond every millisecond.
func waitFor(ctx context.Context, limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", limit)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// applyBody is the admin surface's POST /apply request.
type applyBody struct {
	Peer   string   `json:"peer"`
	Insert []string `json:"insert,omitempty"`
	Delete []string `json:"delete,omitempty"`
}

func encodeApply(ins, del []ast.Fact) []byte {
	body := applyBody{Peer: "emilien"}
	for _, f := range ins {
		body.Insert = append(body.Insert, f.String())
	}
	for _, f := range del {
		body.Delete = append(body.Delete, f.String())
	}
	b, _ := json.Marshal(body) // strings only: cannot fail
	return b
}

// post sends one batch to emilien through daemon A's admin surface; rate
// facts in it are routed on to sigmod by emilien, as a rating made in
// emilien's own Wepic UI would be.
func (w *wepicInst) post(ctx context.Context, ins, del []ast.Fact) error {
	return w.postBody(ctx, encodeApply(ins, del))
}

func (w *wepicInst) postBody(ctx context.Context, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.applyURL, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.httpc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /apply: status %d", resp.StatusCode)
	}
	return nil
}

// consume turns jules' subscription deltas into confirmations.
func (w *wepicInst) consume(top bool, ch <-chan peer.Delta) {
	defer w.consumers.Done()
	for d := range ch {
		key := confirmKey{top: top, del: d.Delete, id: d.Tuple[0].IntVal()}
		w.pendMu.Lock()
		fl := w.pending[key]
		last := false
		if fl != nil {
			delete(w.pending, key)
			fl.left--
			if fl.left == 0 && !fl.over {
				fl.over, last = true, true
			}
		}
		w.pendMu.Unlock()
		if last {
			fl.confirmed(time.Now())
		}
	}
}

func (fl *flight) confirmed(end time.Time) {
	fl.timer.Stop()
	fl.rec.done(sample{start: fl.start, end: end, updates: len(fl.keys), traced: fl.tr != nil})
	if fl.tr != nil {
		posted := end
		if ns := fl.httpDone.Load(); ns != 0 && ns < end.UnixNano() {
			posted = time.Unix(0, ns)
		}
		root := fl.tr.add("update", fl.start, end, -1, fl.update)
		fl.tr.add("daemon.http_apply", fl.start, posted, root, fl.update)
		fl.tr.add("delivery.await_delta", posted, end, root, fl.update)
	}
	fl.release()
}

// abandon fails a flight that cannot complete — its POST failed, or its
// deltas did not all show in time — unless it is already over.
func (w *wepicInst) abandon(fl *flight, err error) {
	w.pendMu.Lock()
	if fl.over {
		w.pendMu.Unlock()
		return
	}
	fl.over = true
	for _, k := range fl.keys {
		if w.pending[k] == fl {
			delete(w.pending, k)
		}
	}
	w.pendMu.Unlock()
	fl.timer.Stop()
	fl.rec.fail(err)
	fl.release()
}

func (w *wepicInst) run(ctx context.Context, until time.Time, rec *recorder) {
	w.drive(ctx, rec, func() bool { return !time.Now().Before(until) })
}

// drive runs the closed-loop clients until stop says so (stop is consulted
// before every batch, under a lock), then waits for the flights in the air.
func (w *wepicInst) drive(ctx context.Context, rec *recorder, stop func() bool) {
	var stopMu sync.Mutex
	stopped := func() bool {
		stopMu.Lock()
		defer stopMu.Unlock()
		return ctx.Err() != nil || stop()
	}
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots := make(chan struct{}, w.window)
			for {
				slots <- struct{}{}
				if stopped() {
					<-slots
					break
				}
				w.submit(ctx, rec, func() { <-slots })
			}
			for i := 0; i < w.window; i++ { // every flight landed or expired
				slots <- struct{}{}
			}
		}()
	}
	wg.Wait()
}

// submit generates, registers and posts one batch.
func (w *wepicInst) submit(ctx context.Context, rec *recorder, release func()) {
	w.genMu.Lock()
	ops := make([]wepicOp, w.batch)
	for i := range ops {
		ops[i] = w.gen.next()
	}
	w.genMu.Unlock()
	var ins, del []ast.Fact
	fl := &flight{rec: rec, left: len(ops), release: release}
	for _, op := range ops {
		f := w.gen.fact(op) // pure in (seed, id): safe outside genMu
		if op.kind == wepicDelete {
			del = append(del, f)
		} else {
			ins = append(ins, f)
		}
		fl.keys = append(fl.keys, keyOf(op))
	}
	body := encodeApply(ins, del)

	fl.start = time.Now()
	fl.tr = rec.tracer(fl.start)
	if fl.tr != nil {
		fl.update = rec.nextUpdate()
	}
	w.pendMu.Lock()
	for _, k := range fl.keys {
		w.pending[k] = fl
	}
	fl.timer = time.AfterFunc(confirmTimeout, func() {
		w.abandon(fl, fmt.Errorf("not all %d deltas seen at jules within %v", len(fl.keys), confirmTimeout))
	})
	w.pendMu.Unlock()

	if err := w.postBody(ctx, body); err != nil {
		w.abandon(fl, err)
		return
	}
	fl.httpDone.Store(time.Now().UnixNano())
}

func (w *wepicInst) peers() []*peer.Peer {
	return []*peer.Peer{w.dA.Peer("emilien"), w.dA.Peer("sigmod"), w.jules}
}

func (w *wepicInst) logDirs() []string {
	var dirs []string
	for _, pp := range wepicPrograms {
		dirs = append(dirs, filepath.Join(w.tmp, pp.name))
	}
	return dirs
}

func (w *wepicInst) counters() (peer.Stats, engineCounters) { return peerSet(w.peers()).counters() }

func (w *wepicInst) wire() wireCounts {
	c := wireCounts{fwd: w.relJules.up.Load() + w.relJules.down.Load(), frames: w.relJules.frames.Load()}
	for _, r := range w.relBack {
		c.back += r.up.Load() + r.down.Load()
		c.frames += r.frames.Load()
	}
	return c
}

// finalFacts returns the base facts present after every generated op.
func (w *wepicInst) finalFacts() []ast.Fact {
	w.genMu.Lock()
	defer w.genMu.Unlock()
	ids := make([]int64, 0, len(w.gen.live))
	for id := range w.gen.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	facts := make([]ast.Fact, 0, len(ids)+len(w.gen.ratedIDs))
	for _, id := range ids {
		facts = append(facts, w.gen.pictureFact(id))
	}
	for _, id := range w.gen.ratedIDs {
		facts = append(facts, rateFact(id))
	}
	return facts
}

var wepicPrograms = []peerProgram{{"emilien", wepicEmilien}, {"sigmod", wepicSigmod}, {"jules", wepicJules}}

func (w *wepicInst) verify(ctx context.Context) (int, int, error) {
	ref, err := newReference(ctx, wepicPrograms, w.finalFacts())
	if err != nil {
		return 0, 0, err
	}
	defer ref.close()
	// The last confirmations may precede the last acks; let the daemons
	// settle so the comparison reads a quiet store.
	if err := waitFor(ctx, confirmTimeout, func() bool {
		for _, p := range w.peers() {
			if n, _ := p.OutboxPending(); n > 0 || p.HasWork() {
				return false
			}
		}
		return true
	}); err != nil {
		return 0, 0, fmt.Errorf("daemons did not settle: %w", err)
	}
	checked, bad := ref.compare(w.jules, "jules", "attendeePictures", "topPictures", "hubRatings")
	return checked, bad, nil
}

func (w *wepicInst) close() {
	if w.cancel != nil {
		w.cancel() // ends the subscriptions, hence the consumers
	}
	if w.dA != nil {
		w.dA.Close()
	}
	if w.dB != nil {
		w.dB.Close()
	}
	w.consumers.Wait()
	for _, r := range append([]*relay{w.relJules}, w.relBack...) {
		if r != nil {
			r.close()
		}
	}
	if w.httpc != nil {
		w.httpc.CloseIdleConnections()
	}
	os.RemoveAll(w.tmp)
}

// probe measures the layers on the wepic path. The stage-level numbers come
// from a replica of the three peers on a sequential network, loaded with the
// album as it stands and stepped by the benchmark through fresh ops of the
// same stream: the daemons run their own stage loops and hand no
// StageReport out.
func (w *wepicInst) probe(ctx context.Context, lm layerMetrics) error {
	if err := probePrograms(lm, wepicPrograms, 9); err != nil {
		return err
	}
	// Fresh pictures of the same shape, from ids the stream never reaches.
	var pics []ast.Fact
	var texts []string
	var tuples []value.Tuple
	for i := int64(0); i < 512; i++ {
		f := w.gen.pictureFact(1<<40 + i)
		pics = append(pics, f)
		texts = append(texts, f.String())
		tuples = append(tuples, f.Args)
	}
	probeParseFact(lm, texts[:64])
	probeStore(lm, tuples)
	probeValue(lm, tuples)
	if err := probeDurability(lm, w.tmp, pics[:64]); err != nil {
		return err
	}
	if err := probeProtocol(lm, pics); err != nil {
		return err
	}
	if err := probeTCP(ctx, lm, pics[0]); err != nil {
		return err
	}

	base := w.finalFacts()
	var album []ast.Fact
	for _, f := range base {
		if f.Rel == "pictures" {
			album = append(album, ast.Fact{Rel: "attendeePictures", Peer: "jules", Args: f.Args})
		}
	}
	probeRemoteView(lm, "jules", album)

	rep, err := newReplica(ctx, wepicPrograms, base, engine.DefaultOptions())
	if err != nil {
		return err
	}
	defer rep.close()
	lm.set("engine.full_stage_ms", fullStageMS(rep.built), len(rep.built))
	emilien := rep.net.Peer("emilien")
	var ops []probeOp
	for i := 0; i < 96; i++ {
		op := w.gen.next()
		del := op.kind == wepicDelete
		ops = append(ops, probeOp{at: emilien, batch: oneOp(w.gen.fact(op), del), del: del})
	}
	_, err = probeStages(ctx, lm, rep.net, ops, true)
	return err
}
