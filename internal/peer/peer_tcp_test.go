package peer

import (
	"context"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/value"
)

// TestDistributedDeploymentOverTCP runs the paper's delegation scenario with
// real TCP endpoints and asynchronous peer loops — the deployment mode of
// the demo (two laptops + cloud), shrunk to two peers on localhost.
func TestDistributedDeploymentOverTCP(t *testing.T) {
	epE, err := transport.ListenTCP(context.Background(), "emilien", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	epJ, err := transport.ListenTCP(context.Background(), "jules", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	epE.AddPeer("jules", epJ.Addr())
	epJ.AddPeer("emilien", epE.Addr())

	emilien, err := New(Config{Name: "emilien"}, epE)
	if err != nil {
		t.Fatal(err)
	}
	jules, err := New(Config{Name: "jules"}, epJ)
	if err != nil {
		t.Fatal(err)
	}
	defer emilien.Close()
	defer jules.Close()

	if err := emilien.LoadSource(`
		relation extensional pictures@emilien(id, name);
		pictures@emilien(1, "sea.jpg");
	`); err != nil {
		t.Fatal(err)
	}
	if err := jules.LoadSource(`
		relation extensional selectedAttendee@jules(attendee);
		relation intensional attendeePictures@jules(id, name);
		selectedAttendee@jules("emilien");
		attendeePictures@jules($id,$name) :- selectedAttendee@jules($a), pictures@$a($id,$name);
	`); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = emilien.Run(ctx) }()
	go func() { _ = jules.Run(ctx) }()

	deadline := time.After(10 * time.Second)
	for {
		if got := jules.Query("attendeePictures"); len(got) == 1 {
			if got[0][1].StringVal() != "sea.jpg" {
				t.Fatalf("attendeePictures = %v", got)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatalf("view never converged; attendeePictures = %v, delegated at emilien = %v",
				jules.Query("attendeePictures"), emilien.DelegatedRules())
		case <-time.After(10 * time.Millisecond):
		}
	}

	// Live update: a new picture at emilien reaches jules' view.
	if err := emilien.InsertString(`pictures@emilien(2, "boat.jpg");`); err != nil {
		t.Fatal(err)
	}
	deadline = time.After(10 * time.Second)
	for {
		if got := jules.Query("attendeePictures"); len(got) == 2 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("update never propagated: %v", jules.Query("attendeePictures"))
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestPeerWALRecovery checks that a peer restarted over the same WAL
// directory comes back with its extensional state.
func TestPeerWALRecovery(t *testing.T) {
	dir := t.TempDir()

	open := func() (*Peer, *Network) {
		n := closingNetwork(t)
		p, err := New(Config{Name: "alice", WAL: dir}, n.Bus().Endpoint("alice"))
		if err != nil {
			t.Fatal(err)
		}
		n.Add(p)
		return p, n
	}

	p1, n1 := open()
	if err := p1.LoadSource(`
		relation extensional pics@alice(id);
		pics@alice(1);
		pics@alice(2);
	`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n1.RunToQuiescence(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	p2, n2 := open()
	defer p2.Close()
	if got := p2.Query("pics"); len(got) != 2 {
		t.Fatalf("recovered pics = %v, want 2 tuples", got)
	}
	// Deletions after recovery are also durable.
	if err := p2.DeleteString(`pics@alice(1);`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n2.RunToQuiescence(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	p3, _ := open()
	defer p3.Close()
	got := p3.Query("pics")
	if len(got) != 1 || !got[0].Equal(value.Tuple{value.Int(2)}) {
		t.Fatalf("after delete+recover, pics = %v", got)
	}
}

// TestPeerWALSnapshotRecovery checks recovery through a checkpoint (the
// log rewritten to a snapshot of the live state) + tail.
func TestPeerWALSnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	n := closingNetwork(t)
	p, err := New(Config{Name: "alice", WAL: dir}, n.Bus().Endpoint("alice"))
	if err != nil {
		t.Fatal(err)
	}
	n.Add(p)
	if err := p.LoadSource(`
		relation extensional pics@alice(id);
		pics@alice(1);
	`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.RunToQuiescence(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	checkpoint(t, p)
	if err := p.InsertString(`pics@alice(2);`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.RunToQuiescence(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	n2 := closingNetwork(t)
	p2, err := New(Config{Name: "alice", WAL: dir}, n2.Bus().Endpoint("alice"))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.Query("pics"); len(got) != 2 {
		t.Fatalf("recovered pics = %v, want 2", got)
	}
}

// checkpoint rewrites p's log to its live state, as a stage does once the
// log has outgrown it.
func checkpoint(t *testing.T, p *Peer) {
	t.Helper()
	rep := &StageReport{}
	p.mu.Lock()
	p.checkpointLocked(rep)
	p.mu.Unlock()
	if len(rep.Errors) > 0 {
		t.Fatal(rep.Errors)
	}
}
