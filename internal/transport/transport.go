// Package transport moves protocol envelopes between peers. There are four
// endpoint types: the in-process Bus with deterministic FIFO queues (tests,
// the examples and single-process deployments such as the demo's "run
// everything on one laptop" mode); TCP (tcp.go) for genuinely distributed
// peers, mirroring the paper's deployment on two laptops and the Webdam
// cloud; Mux (mux.go), many peers' streams over one carrier endpoint; and
// Faulty (faulty.go), a wrapper injecting drops, duplicates, reordering,
// send failures and latency into any of the others.
package transport

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/errdefs"
	"repro/internal/protocol"
)

// ErrUnknownPeer is returned when sending to a peer the transport cannot
// route to. It aliases the public taxonomy entry, so
// errors.Is(err, webdamlog.ErrUnknownPeer) works across layers.
var ErrUnknownPeer = errdefs.ErrUnknownPeer

// ErrClosed is returned after an endpoint has been closed.
var ErrClosed = errdefs.ErrClosed

// Endpoint is one peer's attachment to a transport.
//
// Send enqueues a payload for a destination peer; the context bounds
// connection establishment and the write itself (the in-process bus ignores
// it beyond an up-front cancellation check). Drain removes and returns all
// envelopes received so far (in per-sender FIFO order). Notify returns a
// channel that receives a token whenever new envelopes become available
// (edge-triggered with one-slot coalescing, so receivers never miss a wakeup
// but may see spurious ones).
type Endpoint interface {
	Name() string
	Send(ctx context.Context, to string, msg protocol.Payload) error
	Drain() []protocol.Envelope
	Pending() int
	Notify() <-chan struct{}
	Close() error
}

// WakeHooker is optionally implemented by endpoints that can synchronously
// report envelope arrival to an external scheduler. SetWakeHook installs fn
// (replacing any previous hook) to be called — outside the endpoint's locks,
// possibly from the sender's goroutine — every time envelopes are appended
// to the receive queue; it reports whether arrivals will actually invoke the
// hook (a wrapper whose inner endpoint cannot hook returns false, and the
// caller must fall back to polling). The peer network's wake-queue scheduler
// uses this to discover work in O(active peers) instead of scanning every
// peer every round.
type WakeHooker interface {
	SetWakeHook(fn func()) bool
}

// Router is optionally implemented by endpoints that can cheaply answer
// whether a destination is currently routable (attached to the bus, present
// in the TCP dial directory). The peer layer uses it to fail API-level
// updates to unknown peers synchronously instead of queueing them in the
// outbox forever. Endpoints without it are assumed to route everything.
type Router interface {
	CanRoute(to string) bool
}

// Stats aggregates transport counters for benchmarks and monitoring.
type Stats struct {
	MessagesSent      uint64
	MessagesDelivered uint64
}

// Bus is an in-process transport connecting any number of endpoints by
// name. It is safe for concurrent use and delivers in per-sender FIFO
// order. Delivery is synchronous: Send appends directly to the receiver's
// queue, so after Send returns the message is visible to the receiver's
// next Drain — which makes multi-peer unit tests deterministic.
type Bus struct {
	mu    sync.Mutex
	nodes map[string]*BusEndpoint
	stats Stats
}

// NewBus creates an empty bus.
func NewBus() *Bus {
	return &Bus{nodes: make(map[string]*BusEndpoint)}
}

// Endpoint attaches (or returns the existing) endpoint named name. A
// *closed* endpoint under that name models a crashed peer: it is replaced
// by a fresh one, so a restarted peer can re-attach under its old name (the
// way a restarted TCP peer re-listens on its address). Senders resolve the
// destination on every Send, so they reach the new incarnation as soon as
// it attaches.
func (b *Bus) Endpoint(name string) *BusEndpoint {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n, ok := b.nodes[name]; ok {
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if !closed {
			return n
		}
	}
	n := &BusEndpoint{bus: b, name: name, notify: make(chan struct{}, 1)}
	b.nodes[name] = n
	return n
}

// Peers returns the names of all attached endpoints, sorted.
func (b *Bus) Peers() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.nodes))
	for name := range b.nodes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of the bus counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Quiescent reports whether no endpoint has undelivered messages.
func (b *Bus) Quiescent() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, n := range b.nodes {
		n.mu.Lock()
		pending := len(n.queue)
		n.mu.Unlock()
		if pending > 0 {
			return false
		}
	}
	return true
}

// BusEndpoint is an endpoint attached to a Bus.
type BusEndpoint struct {
	bus  *Bus
	name string

	mu       sync.Mutex
	queue    []protocol.Envelope
	seq      uint64
	closed   bool
	notify   chan struct{}
	wakeHook func()
}

var _ Endpoint = (*BusEndpoint)(nil)
var _ WakeHooker = (*BusEndpoint)(nil)

// SetWakeHook implements WakeHooker: fn is invoked after every delivery into
// this endpoint's queue.
func (n *BusEndpoint) SetWakeHook(fn func()) bool {
	n.mu.Lock()
	n.wakeHook = fn
	n.mu.Unlock()
	return true
}

// Name returns the endpoint's peer name.
func (n *BusEndpoint) Name() string { return n.name }

// CanRoute reports whether a peer with the given name has attached to the
// bus (implements Router).
func (n *BusEndpoint) CanRoute(to string) bool {
	n.bus.mu.Lock()
	defer n.bus.mu.Unlock()
	_, ok := n.bus.nodes[to]
	return ok
}

// Send enqueues msg for peer to. It fails if to has never attached to the
// bus, so misrouted names surface as errors rather than silent drops.
// Delivery is synchronous, so ctx only gates entry.
func (n *BusEndpoint) Send(ctx context.Context, to string, msg protocol.Payload) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	n.seq++
	seq := n.seq
	n.mu.Unlock()

	n.bus.mu.Lock()
	dst, ok := n.bus.nodes[to]
	if ok {
		n.bus.stats.MessagesSent++
	}
	n.bus.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}

	env := protocol.Envelope{From: n.name, To: to, Seq: seq, Msg: msg}
	dst.mu.Lock()
	if dst.closed {
		dst.mu.Unlock()
		return fmt.Errorf("transport: peer %q is closed", to)
	}
	dst.queue = append(dst.queue, env)
	hook := dst.wakeHook
	dst.mu.Unlock()
	select {
	case dst.notify <- struct{}{}:
	default:
	}
	if hook != nil {
		hook()
	}
	return nil
}

// Drain removes and returns all pending envelopes.
func (n *BusEndpoint) Drain() []protocol.Envelope {
	n.mu.Lock()
	out := n.queue
	n.queue = nil
	n.mu.Unlock()
	if len(out) > 0 {
		n.bus.mu.Lock()
		n.bus.stats.MessagesDelivered += uint64(len(out))
		n.bus.mu.Unlock()
	}
	return out
}

// Pending returns the number of queued envelopes.
func (n *BusEndpoint) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.queue)
}

// Notify returns the wakeup channel.
func (n *BusEndpoint) Notify() <-chan struct{} { return n.notify }

// Close detaches the endpoint; subsequent sends to or from it fail.
func (n *BusEndpoint) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	n.queue = nil
	return nil
}
