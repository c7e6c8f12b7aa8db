package transport

import (
	"context"
	"errors"
	"testing"

	"repro/internal/protocol"
)

// The Mux tests drive the bus through the names the frozen benchmark/ uses
// (Mux, NewMux): the swarm and the mux probe depend on these semantics.

func TestMuxLocalDelivery(t *testing.T) {
	m := NewMux()
	a := m.Endpoint("a")
	b := m.Endpoint("b")
	if err := a.Send(context.Background(), "b", factMsg(1)); err != nil {
		t.Fatal(err)
	}
	envs := b.Drain()
	if len(envs) != 1 || envs[0].From != "a" || envs[0].To != "b" {
		t.Fatalf("envs = %v", envs)
	}
	st := m.Stats()
	if st.MessagesSent != 1 || st.MessagesDelivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMuxFIFOPerSender(t *testing.T) {
	m := NewMux()
	a := m.Endpoint("a")
	b := m.Endpoint("b")
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

func TestMuxUnknownPeer(t *testing.T) {
	m := NewMux()
	a := m.Endpoint("a")
	err := a.Send(context.Background(), "nope", factMsg(1))
	if !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
	if a.CanRoute("nope") {
		t.Error("CanRoute(nope) = true")
	}
	if !a.CanRoute("a") {
		t.Error("CanRoute(a) = false")
	}
}

func TestMuxClosedEndpointReplaced(t *testing.T) {
	m := NewMux()
	a := m.Endpoint("a")
	b := m.Endpoint("b")
	b.Close()
	if err := a.Send(context.Background(), "b", factMsg(1)); err == nil {
		t.Fatal("send to closed endpoint succeeded")
	}
	// Crash semantics: re-attaching under the old name replaces the closed
	// endpoint and receives subsequent traffic.
	b2 := m.Endpoint("b")
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

// TestMuxWakeHook: the hook fires once per delivery, synchronously with the
// sender's Send, from every sender on the bus.
func TestMuxWakeHook(t *testing.T) {
	m := NewMux()
	a := m.Endpoint("a")
	b := m.Endpoint("b")
	c := m.Endpoint("c")
	woke := 0
	b.SetWakeHook(func() { woke++ })
	if err := a.Send(context.Background(), "b", factMsg(1)); err != nil {
		t.Fatal(err)
	}
	if woke != 1 {
		t.Fatalf("wake hook fired %d times after one delivery, want 1", woke)
	}
	if err := c.Send(context.Background(), "b", factMsg(2)); err != nil {
		t.Fatal(err)
	}
	if woke != 2 {
		t.Fatalf("wake hook fired %d times after two deliveries, want 2", woke)
	}
}
