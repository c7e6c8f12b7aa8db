package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/engine"
	"repro/internal/errdefs"
	"repro/internal/parser"
)

// The admin surface. Read endpoints are JSON; /metrics is Prometheus text.
//
//	GET  /healthz                      liveness (503 while draining)
//	GET  /metrics                      Prometheus text exposition
//	GET  /peers                        hosted peers, addresses, queue depths
//	GET  /peers/{name}                 one peer: stats, relations, outbox
//	GET  /peers/{name}/relations/{rel} a relation's tuples
//	POST /apply                        {"peer","insert":[...],"delete":[...]}
//
// /apply parses each fact ("rel@peer(args...)"), builds one atomic batch
// and runs it through Peer.Apply with the request's context — so admission
// control applies: a full bounded queue under fail-fast (or a draining
// daemon) answers 503, and under blocking admission the request simply
// waits its turn until the client gives up.
func (d *Daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.serveHealthz)
	mux.Handle("GET /metrics", d.reg.Handler())
	mux.HandleFunc("GET /peers", d.servePeers)
	mux.HandleFunc("GET /peers/{name}", d.servePeer)
	mux.HandleFunc("GET /peers/{name}/relations/{rel}", d.serveRelation)
	mux.HandleFunc("POST /apply", d.serveApply)
	return mux
}

func (d *Daemon) serveHealthz(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	draining := d.draining
	d.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// peerSummary is one row of GET /peers.
type peerSummary struct {
	Name          string `json:"name"`
	Addr          string `json:"addr"`
	Stages        uint64 `json:"stages"`
	OutboxPending int    `json:"outbox_pending"`
	OutboxStalled int    `json:"outbox_stalled"`
	Subscriptions int    `json:"subscriptions"`
}

func (d *Daemon) servePeers(w http.ResponseWriter, r *http.Request) {
	var out []peerSummary
	for _, name := range d.peerNames() {
		d.mu.Lock()
		hp := d.peers[name]
		d.mu.Unlock()
		if hp == nil {
			continue
		}
		total, stalled := hp.p.OutboxPending()
		out = append(out, peerSummary{
			Name:          name,
			Addr:          hp.ep.Addr(),
			Stages:        hp.p.Stats().Stages,
			OutboxPending: total,
			OutboxStalled: stalled,
			Subscriptions: hp.p.Subscribers(),
		})
	}
	writeJSON(w, out)
}

// relationSummary is one relation row of GET /peers/{name}.
type relationSummary struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Tuples int    `json:"tuples"`
}

func (d *Daemon) servePeer(w http.ResponseWriter, r *http.Request) {
	p := d.Peer(r.PathValue("name"))
	if p == nil {
		http.Error(w, "unknown peer", http.StatusNotFound)
		return
	}
	var rels []relationSummary
	for _, rel := range p.Store().RelationsOf(p.Name()) {
		rels = append(rels, relationSummary{
			ID:     rel.ID(),
			Kind:   fmt.Sprint(rel.Kind()),
			Tuples: rel.Len(),
		})
	}
	total, stalled := p.OutboxPending()
	writeJSON(w, map[string]any{
		"name":           p.Name(),
		"addr":           d.PeerAddr(p.Name()),
		"stats":          p.Stats(),
		"relations":      rels,
		"outbox_pending": total,
		"outbox_stalled": stalled,
		"subscriptions":  p.Subscribers(),
		"program":        p.ProgramText(),
	})
}

func (d *Daemon) serveRelation(w http.ResponseWriter, r *http.Request) {
	p := d.Peer(r.PathValue("name"))
	if p == nil {
		http.Error(w, "unknown peer", http.StatusNotFound)
		return
	}
	rel := r.PathValue("rel")
	if p.Store().Get(rel, p.Name()) == nil {
		http.Error(w, "unknown relation", http.StatusNotFound)
		return
	}
	tuples := []string{}
	for _, t := range p.Query(rel) {
		tuples = append(tuples, t.String())
	}
	writeJSON(w, map[string]any{"relation": rel, "tuples": tuples})
}

// applyRequest is the POST /apply body.
type applyRequest struct {
	Peer   string   `json:"peer"`
	Insert []string `json:"insert,omitempty"`
	Delete []string `json:"delete,omitempty"`
}

func (d *Daemon) serveApply(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	draining := d.draining
	d.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	var req applyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p := d.Peer(req.Peer)
	if p == nil {
		http.Error(w, "unknown peer", http.StatusNotFound)
		return
	}
	b := engine.NewBatch()
	for _, src := range req.Insert {
		f, err := parser.ParseFact(src)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b.Insert(f)
	}
	for _, src := range req.Delete {
		f, err := parser.ParseFact(src)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b.Delete(f)
	}
	if err := p.Apply(r.Context(), b); err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, errdefs.ErrBackpressure):
			code = http.StatusServiceUnavailable
		case errors.Is(err, errdefs.ErrUnknownRelation), errors.Is(err, errdefs.ErrArity):
			code = http.StatusBadRequest
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, map[string]any{"applied": b.Len()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
