package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call the driver made into the system (or one wait it
// sat through). Spans of one update share its id; Parent is the index of
// the enclosing span, or -1 for a root.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the recorder's epoch
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Update  int64  `json:"update"`
}

// spanRecorder keeps spans in memory; they are aggregated (selfTimes) or
// written out (writeTo) when the run ends. A nil recorder records nothing,
// so call sites need no guard when tracing is off.
type spanRecorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// add records a finished span and returns its index, to be passed as the
// parent of its children. Spans may be added out of order.
func (r *spanRecorder) add(name string, start, end time.Time, parent int, update int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, StartNS: int64(start.Sub(r.epoch)), EndNS: int64(end.Sub(r.epoch)),
		Parent: parent, Update: update,
	})
	return len(r.spans) - 1
}

// named returns the spans called name.
func (r *spanRecorder) named(name string) []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover.
func (r *spanRecorder) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i, s := range r.spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - covered(s, children[i]))
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	at := parent.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, at), min(k.EndNS, parent.EndNS)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// writeTo writes the spans as JSON lines.
func (r *spanRecorder) writeTo(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
