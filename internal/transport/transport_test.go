package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/protocol"
	"repro/internal/value"
)

func factMsg(n int) protocol.FactsMsg {
	return protocol.FactsMsg{Ops: []protocol.FactDelta{{
		Fact: ast.NewFact("r", "p", value.Int(int64(n))),
	}}}
}

func TestBusDelivery(t *testing.T) {
	bus := NewBus()
	a := bus.Endpoint("a")
	b := bus.Endpoint("b")
	if err := a.Send(context.Background(), "b", factMsg(1)); err != nil {
		t.Fatal(err)
	}
	envs := b.Drain()
	if len(envs) != 1 || envs[0].From != "a" || envs[0].To != "b" {
		t.Fatalf("envs = %v", envs)
	}
	if b.Pending() != 0 {
		t.Error("queue not drained")
	}
}

func TestBusFIFOPerSender(t *testing.T) {
	bus := NewBus()
	a := bus.Endpoint("a")
	b := bus.Endpoint("b")
	for i := 0; i < 100; i++ {
		if err := a.Send(context.Background(), "b", factMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	envs := b.Drain()
	if len(envs) != 100 {
		t.Fatalf("delivered %d, want 100", len(envs))
	}
	for i, env := range envs {
		got := env.Msg.(protocol.FactsMsg).Ops[0].Fact.Args[0].IntVal()
		if got != int64(i) {
			t.Fatalf("order violated at %d: got %d", i, got)
		}
	}
}

func TestBusUnknownPeer(t *testing.T) {
	bus := NewBus()
	a := bus.Endpoint("a")
	err := a.Send(context.Background(), "ghost", factMsg(1))
	if !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("err = %v, want ErrUnknownPeer", err)
	}
	if a.CanRoute("ghost") {
		t.Error("CanRoute(ghost) = true")
	}
	if !a.CanRoute("a") {
		t.Error("CanRoute(a) = false")
	}
}

func TestBusClosedEndpoint(t *testing.T) {
	bus := NewBus()
	a := bus.Endpoint("a")
	b := bus.Endpoint("b")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "b", factMsg(1)); err == nil {
		t.Error("send to closed endpoint must fail")
	}
	if err := b.Send(context.Background(), "a", factMsg(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("send from closed endpoint: %v", err)
	}
	// Crash semantics: re-attaching under the old name replaces the closed
	// endpoint, and the new incarnation receives subsequent traffic.
	b2 := bus.Endpoint("b")
	if b2 == b {
		t.Fatal("closed endpoint was not replaced")
	}
	if err := a.Send(context.Background(), "b", factMsg(2)); err != nil {
		t.Fatal(err)
	}
	if got := len(b2.Drain()); got != 1 {
		t.Fatalf("drained %d, want 1", got)
	}
}

func TestBusNotify(t *testing.T) {
	bus := NewBus()
	a := bus.Endpoint("a")
	b := bus.Endpoint("b")
	woke := 0
	b.SetWakeHook(func() { woke++ })
	if err := a.Send(context.Background(), "b", factMsg(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Notify():
	case <-time.After(time.Second):
		t.Fatal("no wakeup after send")
	}
	if woke != 1 { // delivery is synchronous, and so is the hook
		t.Errorf("wake hook fired %d times, want 1", woke)
	}
}

func TestBusStatsAndQuiescence(t *testing.T) {
	bus := NewBus()
	a := bus.Endpoint("a")
	b := bus.Endpoint("b")
	if err := a.Send(context.Background(), "b", factMsg(1)); err != nil {
		t.Fatal(err)
	}
	if b.Pending() != 1 {
		t.Errorf("pending = %d, want 1", b.Pending())
	}
	b.Drain()
	if b.Pending() != 0 {
		t.Error("drained endpoint still pending")
	}
	st := bus.Stats()
	if st.MessagesSent != 1 || st.MessagesDelivered != 1 {
		t.Errorf("stats = %+v", st)
	}
	bus.Close()
	if err := a.Send(context.Background(), "b", factMsg(2)); !errors.Is(err, ErrClosed) {
		t.Errorf("send after bus Close: %v", err)
	}
}

func TestBusConcurrentSenders(t *testing.T) {
	bus := NewBus()
	dst := bus.Endpoint("dst")
	const senders, each = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep := bus.Endpoint(fmt.Sprintf("s%d", s))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := ep.Send(context.Background(), "dst", factMsg(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for {
		envs := dst.Drain()
		if len(envs) == 0 {
			break
		}
		total += len(envs)
	}
	if total != senders*each {
		t.Errorf("delivered %d, want %d", total, senders*each)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, err := ListenTCP(context.Background(), "a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(context.Background(), "b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("b", b.Addr())
	b.AddPeer("a", a.Addr())

	if err := a.Send(context.Background(), "b", factMsg(42)); err != nil {
		t.Fatal(err)
	}
	env := waitForOne(t, b)
	if env.From != "a" {
		t.Errorf("from = %q", env.From)
	}
	msg, ok := env.Msg.(protocol.FactsMsg)
	if !ok || msg.Ops[0].Fact.Args[0].IntVal() != 42 {
		t.Errorf("payload = %#v", env.Msg)
	}

	// And the reverse direction over a separate link.
	if err := b.Send(context.Background(), "a", factMsg(7)); err != nil {
		t.Fatal(err)
	}
	env = waitForOne(t, a)
	if env.From != "b" || env.Msg.(protocol.FactsMsg).Ops[0].Fact.Args[0].IntVal() != 7 {
		t.Errorf("reverse payload = %#v", env)
	}
}

func waitForOne(t *testing.T, ep Endpoint) protocol.Envelope {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		if envs := ep.Drain(); len(envs) > 0 {
			return envs[0]
		}
		select {
		case <-ep.Notify():
		case <-deadline:
			t.Fatal("timed out waiting for delivery")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestTCPOrderPreserved(t *testing.T) {
	a, err := ListenTCP(context.Background(), "a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(context.Background(), "b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("b", b.Addr())
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(context.Background(), "b", factMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []protocol.Envelope
	deadline := time.After(5 * time.Second)
	for len(got) < n {
		got = append(got, b.Drain()...)
		select {
		case <-deadline:
			t.Fatalf("received %d of %d", len(got), n)
		case <-time.After(time.Millisecond):
		}
	}
	for i, env := range got {
		if env.Msg.(protocol.FactsMsg).Ops[0].Fact.Args[0].IntVal() != int64(i) {
			t.Fatalf("order violated at %d", i)
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, err := ListenTCP(context.Background(), "a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(context.Background(), "ghost", factMsg(1)); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	a, err := ListenTCP(context.Background(), "a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b1, err := ListenTCP(context.Background(), "b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()
	a.AddPeer("b", addr)
	if err := a.Send(context.Background(), "b", factMsg(1)); err != nil {
		t.Fatal(err)
	}
	waitForOne(t, b1)
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart b on the same address; a's cached link is dead and must be
	// redialed. A write into the dead socket can succeed before the RST
	// arrives (plain TCP gives at-most-once delivery per send), so the
	// sender retries — exactly what the peer layer's per-stage maintenance
	// does for delegations and updates.
	b2, err := ListenTCP(context.Background(), "b", addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	deadline := time.After(10 * time.Second)
	for {
		_ = a.Send(context.Background(), "b", factMsg(2)) // may land in the dead socket once
		if envs := b2.Drain(); len(envs) > 0 {
			if envs[0].Msg.(protocol.FactsMsg).Ops[0].Fact.Args[0].IntVal() != 2 {
				t.Errorf("payload after restart = %#v", envs[0].Msg)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatal("no delivery after restart despite retries")
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// TestTCPSendFailsWhenReceiverStopsReading: a Send whose context carries no
// deadline cannot block forever on a destination that accepts the link and
// then never reads: once the endpoint's own write deadline passes, the
// write (and its one retry on a fresh link) fails with a deadline error.
func TestTCPSendFailsWhenReceiverStopsReading(t *testing.T) {
	defer func(d time.Duration) { writeTimeout = d }(writeTimeout)
	writeTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		held []net.Conn
	)
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c) // accepted, never read
			mu.Unlock()
		}
	}()
	defer func() {
		ln.Close()
		<-accepted
		for _, c := range held {
			c.Close()
		}
	}()
	a, err := ListenTCP(context.Background(), "a", "127.0.0.1:0", map[string]string{"b": ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// One frame larger than what a loopback link buffers for a reader
	// that never reads: the write cannot complete.
	big := protocol.FactsMsg{Ops: []protocol.FactDelta{{
		Fact: ast.NewFact("r", "b", value.Str(strings.Repeat("x", 16<<20))),
	}}}
	start := time.Now()
	err = a.Send(context.Background(), "b", big)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("a send to a destination that never reads succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("err = %v, want a write deadline error", err)
	}
	if elapsed < writeTimeout || elapsed > 5*time.Second {
		t.Errorf("send failed after %v, want about 2 x %v (one attempt and one retry)", elapsed, writeTimeout)
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, err := ListenTCP(context.Background(), "a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "b", factMsg(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestEnvelopeCodec(t *testing.T) {
	env := protocol.Envelope{From: "a", To: "b", Seq: 9, Msg: protocol.FactsMsg{
		Ops: []protocol.FactDelta{{Maint: true, Fact: ast.NewFact("m", "b", value.Str("v"))}},
	}}
	b, err := protocol.Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := protocol.DecodeEnvelope(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "a" || got.Seq != 9 {
		t.Errorf("metadata = %+v", got)
	}
	fm, ok := got.Msg.(protocol.FactsMsg)
	if !ok || len(fm.Ops) != 1 || !fm.Ops[0].Maint || !fm.Ops[0].Fact.Equal(env.Msg.(protocol.FactsMsg).Ops[0].Fact) {
		t.Errorf("payload = %#v", got.Msg)
	}
}

func TestDecodeCorruptEnvelope(t *testing.T) {
	for _, in := range [][]byte{nil, []byte("not an envelope"), {1, 'a', 1, 'b', 0, 99}} {
		if _, err := protocol.DecodeEnvelope(in); err == nil {
			t.Errorf("corrupt envelope %q decoded", in)
		}
	}
}
