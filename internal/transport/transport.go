// Package transport moves protocol envelopes between peers. There are three
// endpoint types: the in-process Bus with deterministic FIFO queues (tests,
// the examples, the swarm and single-process deployments such as the demo's
// "run everything on one laptop" mode); TCP (tcp.go) for genuinely
// distributed peers, mirroring the paper's deployment on two laptops and the
// Webdam cloud; and Faulty (faulty.go), a wrapper injecting drops,
// duplicates, reordering, send failures and latency into either of the
// others. Bus and TCP endpoints share one receive queue type, inbox.
package transport

import (
	"context"
	"fmt"
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
//
// SetWakeHook installs fn (replacing any previous hook) to be called —
// outside the endpoint's locks, possibly from the sender's goroutine — every
// time an envelope is appended to the receive queue; the peer network's
// wake-queue scheduler uses it to discover work in O(active peers) instead
// of scanning every peer every round. CanRoute reports whether a destination
// is currently routable (attached to the bus, present in the TCP dial
// directory); the peer layer uses it to fail API-level updates to unknown
// peers synchronously instead of queueing them in the outbox forever.
type Endpoint interface {
	Name() string
	Send(ctx context.Context, to string, msg protocol.Payload) error
	Drain() []protocol.Envelope
	Pending() int
	Notify() <-chan struct{}
	SetWakeHook(fn func())
	CanRoute(to string) bool
	Close() error
}

// inbox is the receive half every endpoint type embeds: a FIFO queue, the
// one-slot notify channel and the scheduler's wake hook. A closed inbox
// refuses deliveries.
type inbox struct {
	mu     sync.Mutex
	queue  []protocol.Envelope
	closed bool
	notify chan struct{}
	hook   func()
}

func newInbox() inbox { return inbox{notify: make(chan struct{}, 1)} }

// push appends env and fires the wakeups outside the lock. It reports false
// when the inbox is closed.
func (b *inbox) push(env protocol.Envelope) bool {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	b.queue = append(b.queue, env)
	hook := b.hook
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
	if hook != nil {
		hook()
	}
	return true
}

// SetWakeHook installs fn to run after every delivery into this inbox.
func (b *inbox) SetWakeHook(fn func()) {
	b.mu.Lock()
	b.hook = fn
	b.mu.Unlock()
}

// Drain removes and returns all pending envelopes.
func (b *inbox) Drain() []protocol.Envelope {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.queue
	b.queue = nil
	return out
}

// Pending returns the number of queued envelopes.
func (b *inbox) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// Notify returns the wakeup channel.
func (b *inbox) Notify() <-chan struct{} { return b.notify }

// shut closes the inbox and drops whatever it still holds.
func (b *inbox) shut() {
	b.mu.Lock()
	b.closed = true
	b.queue = nil
	b.mu.Unlock()
}

// Stats aggregates transport counters for benchmarks and monitoring.
type Stats struct {
	MessagesSent      uint64
	MessagesDelivered uint64
}

// Bus is the in-process transport connecting any number of endpoints by
// name. It is safe for concurrent use and delivers in per-sender FIFO
// order. Delivery is synchronous: Send appends directly to the receiver's
// queue, so after Send returns the message is visible to the receiver's
// next Drain — which makes multi-peer unit tests deterministic. A send holds
// the bus lock only to resolve the destination and count the message, never
// while enqueueing, so a slow receiver cannot stall other pairs.
type Bus struct {
	mu    sync.Mutex
	nodes map[string]*BusEndpoint
	stats Stats
}

// Mux and NewMux are the names the frozen benchmark/ package still uses for
// the bus, which absorbed the in-process mux.
type Mux = Bus

// NewMux creates an empty bus (see Mux).
func NewMux() *Bus { return NewBus() }

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
	n := &BusEndpoint{inbox: newInbox(), bus: b, name: name}
	b.nodes[name] = n
	return n
}

// Stats returns a snapshot of the bus counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Close closes every attached endpoint.
func (b *Bus) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, n := range b.nodes {
		n.shut()
	}
	return nil
}

// BusEndpoint is an endpoint attached to a Bus.
type BusEndpoint struct {
	inbox
	bus  *Bus
	name string
	seq  uint64 // guarded by inbox.mu
}

var _ Endpoint = (*BusEndpoint)(nil)

// Name returns the endpoint's peer name.
func (n *BusEndpoint) Name() string { return n.name }

// CanRoute reports whether a peer with the given name has attached to the
// bus.
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
	if !dst.push(protocol.Envelope{From: n.name, To: to, Seq: seq, Msg: msg}) {
		return fmt.Errorf("transport: peer %q is closed", to)
	}
	return nil
}

// Drain removes and returns all pending envelopes.
func (n *BusEndpoint) Drain() []protocol.Envelope {
	out := n.inbox.Drain()
	if len(out) > 0 {
		n.bus.mu.Lock()
		n.bus.stats.MessagesDelivered += uint64(len(out))
		n.bus.mu.Unlock()
	}
	return out
}

// Close detaches the endpoint; subsequent sends to or from it fail.
func (n *BusEndpoint) Close() error {
	n.shut()
	return nil
}
