package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/errdefs"
	"repro/internal/value"
)

// TestRunCanceledContext: a canceled context makes Run return promptly with
// context.Canceled instead of driving stages.
func TestRunCanceledContext(t *testing.T) {
	sys := NewSystem()
	if err := sys.LoadSource(`
		peer alice;
		relation extensional a@alice(x);
		a@alice("v");
	`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, _, err := sys.Run(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
	// The work is still there: a fresh context resumes the run.
	if _, _, err := sys.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if got := sys.Peer("alice").Query("a"); len(got) != 1 {
		t.Errorf("a = %v after resumed run", got)
	}
}

// TestRunDeadlineExceeded: an already-expired deadline surfaces the
// context's error, not a quiescence error.
func TestRunDeadlineExceeded(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.AddPeer("alice"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := sys.Run(ctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestWithWALErrorSurfaces: a WAL that cannot be opened fails AddPeer with
// a typed ErrWAL instead of printing to stderr and creating a volatile peer.
func TestWithWALErrorSurfaces(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The WAL directory path runs through a regular file: MkdirAll fails.
	sys := NewSystem()
	p, err := sys.AddPeer("alice", WithWAL(filepath.Join(blocker, "wal")))
	if err == nil {
		t.Fatal("AddPeer succeeded with an unopenable WAL")
	}
	if p != nil {
		t.Error("peer returned alongside the error")
	}
	if !errors.Is(err, errdefs.ErrWAL) {
		t.Errorf("err = %v, want ErrWAL", err)
	}
	// The failed peer must not be registered.
	if sys.Peer("alice") != nil {
		t.Error("failed durable peer was registered anyway")
	}
}

// TestAddPeerClosesWALOnFailure: a WAL AddPeer opened for a peer it then
// fails to create — an empty name, a log recovery refuses — is closed
// again, not left holding the log's files.
func TestAddPeerClosesWALOnFailure(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("counting open files needs /proc/self/fd")
	}
	// openUnder counts this process's open files inside dir.
	openUnder := func(dir string) int {
		fds, _ := os.ReadDir("/proc/self/fd")
		n := 0
		for _, fd := range fds {
			if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil &&
				strings.HasPrefix(target, dir+string(filepath.Separator)) {
				n++
			}
		}
		return n
	}
	cases := map[string]struct {
		peer  string
		setup func(t *testing.T, dir string)
	}{
		"empty name": {peer: "", setup: func(*testing.T, string) {}},
		"old-format log": {peer: "alice", setup: func(t *testing.T, dir string) {
			for _, name := range []string{"wal.log", "outbox.log", "snapshot.log"} {
				b, err := os.ReadFile(filepath.Join("..", "store", "testdata", "v1", name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c.setup(t, dir)
			if _, err := NewSystem().AddPeer(c.peer, WithWAL(dir)); err == nil {
				t.Fatal("AddPeer succeeded")
			}
			if n := openUnder(dir); n != 0 {
				t.Errorf("%d files of the WAL left open after AddPeer failed", n)
			}
		})
	}
}

// TestSystemApplyRoutesBatch: a batch handed to the system lands at every
// owning peer atomically.
func TestSystemApplyRoutesBatch(t *testing.T) {
	sys := NewSystem()
	if err := sys.LoadSource(`
		peer a;
		relation extensional data@a(x);
		peer b;
		relation extensional data@b(x);
	`); err != nil {
		t.Fatal(err)
	}
	sys.MustRun()
	batch := engine.NewBatch()
	for i := 0; i < 10; i++ {
		batch.Insert(factInt("data", "a", int64(i)))
		batch.Insert(factInt("data", "b", int64(i)))
	}
	if err := sys.Apply(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	sys.MustRun()
	if got := len(sys.Peer("a").Query("data")); got != 10 {
		t.Errorf("data@a = %d tuples, want 10", got)
	}
	if got := len(sys.Peer("b").Query("data")); got != 10 {
		t.Errorf("data@b = %d tuples, want 10", got)
	}
}

// TestSystemApplyUnknownDestination: a batch naming only unknown peers is
// refused with the typed error.
func TestSystemApplyUnknownDestination(t *testing.T) {
	sys := NewSystem()
	batch := engine.NewBatch().Insert(factInt("data", "ghost", 1))
	if err := sys.Apply(context.Background(), batch); !errors.Is(err, errdefs.ErrUnknownPeer) {
		t.Errorf("err = %v, want ErrUnknownPeer", err)
	}
}

// TestLoadSourceFactForOtherPeerMidBlock: facts owned by another peer may
// appear inside a peer block; they are routed to their owner and the block
// context is kept for what follows.
func TestLoadSourceFactForOtherPeerMidBlock(t *testing.T) {
	sys := NewSystem()
	err := sys.LoadSource(`
		peer bob;
		relation extensional inbox@bob(x);

		peer alice;
		relation extensional out@alice(x);
		inbox@bob("routed");
		out@alice("local");
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys.MustRun()
	if got := sys.Peer("bob").Query("inbox"); len(got) != 1 || got[0][0].StringVal() != "routed" {
		t.Errorf("inbox@bob = %v", got)
	}
	if got := sys.Peer("alice").Query("out"); len(got) != 1 || got[0][0].StringVal() != "local" {
		t.Errorf("out@alice = %v (block context lost after cross-peer fact?)", got)
	}
}

// TestLoadSourceFactCreatesOwnerPeer: a fact whose owner was never declared
// with a `peer` statement still creates and targets that peer.
func TestLoadSourceFactCreatesOwnerPeer(t *testing.T) {
	sys := NewSystem()
	err := sys.LoadSource(`
		peer alice;
		relation extensional out@alice(x);
		inbox@carol("hello");
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys.MustRun()
	if sys.Peer("carol") == nil {
		t.Fatal("owner peer not created on first mention")
	}
	// The relation was auto-declared at ingestion with generic columns.
	if got := sys.Peer("carol").Query("inbox"); len(got) != 1 {
		t.Errorf("inbox@carol = %v", got)
	}
}

// TestLoadSourceVariableHeadWithContext: a rule with a variable head peer
// is legal inside a peer block — it runs at the block's peer (which is what
// the error message for the missing-context case points users to).
func TestLoadSourceVariableHeadWithContext(t *testing.T) {
	sys := NewSystem()
	err := sys.LoadSource(`
		peer dest;
		relation extensional inbox@dest(x);

		peer router;
		relation extensional route@router(p, x);
		route@router("dest", "payload");
		inbox@$p($x) :- route@router($p, $x);
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys.MustRun()
	dest := sys.Peer("dest")
	if dest == nil {
		t.Fatal("destination peer missing")
	}
	if got := dest.Query("inbox"); len(got) != 1 || got[0][0].StringVal() != "payload" {
		t.Errorf("inbox@dest = %v", got)
	}
}

func factInt(rel, peerName string, v int64) ast.Fact {
	return ast.NewFact(rel, peerName, value.Int(v))
}
