package peer

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/errdefs"
	"repro/internal/store"
	"repro/internal/value"
)

// openDurable starts peer alice over the WAL directory dir.
func openDurable(t *testing.T, dir string) (*Peer, *Network, error) {
	t.Helper()
	n := closingNetwork(t)
	p, err := New(Config{Name: "alice", WAL: dir}, n.Bus().Endpoint("alice"))
	if err != nil {
		return nil, nil, err
	}
	n.Add(p)
	return p, n, nil
}

// TestPeerRestartKeepsPictureBitExact: a durable peer holding a Wepic
// picture whose blob has every byte value, next to NaN, ±Inf, −0.0 and
// empty values, comes back from a restart with the same canonical key.
func TestPeerRestartKeepsPictureBitExact(t *testing.T) {
	blob := make([]byte, 256)
	for i := range blob {
		blob[i] = byte(i)
	}
	pic := ast.NewFact("pictures", "alice", value.Int(1), value.Str("sea.jpg"), value.Blob(blob),
		value.Float(math.NaN()), value.Float(math.Inf(1)), value.Float(math.Inf(-1)),
		value.Float(math.Copysign(0, -1)), value.Str(""), value.Blob(nil))
	dir := t.TempDir()
	p, n, err := openDurable(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DeclareRelation("pictures", ast.Extensional, "id", "name", "data", "nan", "inf", "ninf", "negzero", "empty", "nothing"); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(context.Background(), engine.NewBatch().Insert(pic)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.RunToQuiescence(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p, _, err = openDurable(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got := p.Query("pictures")
	if len(got) != 1 || got[0].Key() != pic.Args.Key() {
		t.Fatalf("recovered %v, want the picture bit for bit", got)
	}
}

// TestPeerRefusesOldFormatLogs: a durable peer over the JSON-lines logs of
// the JSON era, over a log whose outbox entry holds a payload in the gob
// encoding of that era or in a retired layout of the binary codec — a
// DigestMsg stamped with its stream position, as a solicited advert of the
// previous version leaves behind — or over the three files of log format
// version 1, does not start, with ErrWAL naming the file at fault and saying
// to drain or remove the log. Each setup returns that file.
func TestPeerRefusesOldFormatLogs(t *testing.T) {
	gobPayload, err := os.ReadFile(filepath.Join("..", "protocol", "testdata", "gob_payload.bin"))
	if err != nil {
		t.Fatal(err)
	}
	pendingEntry := func(t *testing.T, dir string, payload []byte) string {
		l, err := store.OpenWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		l.LogEpoch(3)
		l.LogEnqueue("bob", 1, payload)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return "outbox.log"
	}
	setups := map[string]func(t *testing.T, dir string) string{
		"json wal": func(t *testing.T, dir string) string { copyFixture(t, dir, "jsonera", "wal.log"); return "wal.log" },
		"json outbox log": func(t *testing.T, dir string) string {
			copyFixture(t, dir, "jsonera", "outbox.log")
			return "outbox.log"
		},
		"v1 logs": func(t *testing.T, dir string) string {
			for _, name := range []string{"wal.log", "outbox.log", "snapshot.log"} {
				copyFixture(t, dir, "v1", name)
			}
			return "snapshot.log"
		},
		"gob outbox entry": func(t *testing.T, dir string) string { return pendingEntry(t, dir, gobPayload) },
		// Tag 6, epoch 3, as of sequence 9, one relation "r" with hash
		// 0xBEEF and count 3, no delegations.
		"stamped advert entry": func(t *testing.T, dir string) string {
			return pendingEntry(t, dir, []byte{6, 3, 9, 1, 1, 'r', 0xEF, 0xBE, 0, 0, 0, 0, 0, 0, 3, 0})
		},
	}
	for name, setup := range setups {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			file := setup(t, dir)
			p, _, err := openDurable(t, dir)
			if err == nil {
				p.Close()
			}
			if !errors.Is(err, errdefs.ErrWAL) || !strings.Contains(err.Error(), "drain") || !strings.Contains(err.Error(), "remove it") {
				t.Fatalf("err = %v, want ErrWAL saying to drain or remove the log", err)
			}
			if !strings.Contains(err.Error(), filepath.Join(dir, file)) {
				t.Fatalf("err = %v, want it to name %s", err, file)
			}
		})
	}
}

// copyFixture copies the old-format log file name of the fixture set (a
// directory under store's testdata) into dir.
func copyFixture(t *testing.T, dir, set, name string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "store", "testdata", set, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		t.Fatal(err)
	}
}
