package store

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/errdefs"
	"repro/internal/value"
)

// extremeTuple holds the values a text log loses: a blob of every byte
// 0x00–0xff (a picture is not UTF-8), NaN (with and without a payload),
// ±Inf, −0.0, and an empty string and blob.
func extremeTuple() value.Tuple {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	return value.Tuple{
		value.Blob(all), value.Float(math.NaN()), value.Float(math.Float64frombits(0x7ff8_0000_dead_beef)),
		value.Float(math.Inf(1)), value.Float(math.Inf(-1)), value.Float(math.Copysign(0, -1)),
		value.Str(""), value.Blob(nil), value.Str("\xff\xfe not UTF-8"),
	}
}

var extremeSchema = Schema{Name: "pics", Peer: "p", Kind: ast.Extensional,
	Cols: []string{"blob", "nan", "nanp", "inf", "ninf", "negzero", "str", "empty", "bad"}}

// TestWALKeepsEveryValueBitExact: the extreme tuple survives the log and a
// checkpoint with the same canonical key — bit for bit, not merely Equal.
func TestWALKeepsEveryValueBitExact(t *testing.T) {
	want := extremeTuple()
	check := func(how string, s *Store) {
		t.Helper()
		rel := s.Get("pics", "p")
		if rel == nil || rel.Len() != 1 {
			t.Fatalf("%s: recovered %v", how, rel)
		}
		if got := rel.Tuples()[0]; got.Key() != want.Key() {
			t.Fatalf("%s: recovered %x\nwant %x", how, got.Key(), want.Key())
		}
	}

	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LogDeclare(extremeSchema); err != nil {
		t.Fatal(err)
	}
	if err := w.LogMany(false, "pics", "p", []value.Tuple{want}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, s, err := recoverWAL(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	check("log", s)

	if err := w.Checkpoint(s, "p", NewOutboxState()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, s, err = recoverWAL(t, dir)
	defer w.Close()
	if err != nil {
		t.Fatal(err)
	}
	check("checkpoint", s)
}

// TestOldFormatLogsRefused: the JSON-lines WAL and outbox log of the
// JSON era (testdata/jsonera, whose outbox entry holds a gob payload), and
// its JSON snapshot, fail recovery with ErrWAL saying what to do, and are
// left as they were.
func TestOldFormatLogsRefused(t *testing.T) {
	for _, name := range []string{logName, "outbox.log", "snapshot.json"} {
		t.Run(name, func(t *testing.T) {
			src := name
			if name == "snapshot.json" {
				src = logName // any old file will do; only the name matters
			}
			checkRefused(t, map[string]string{name: filepath.Join("testdata", "jsonera", src)}, name)
		})
	}
}

// TestV1LogsRefused: the three files of format version 1 (testdata/v1: a
// binary wal.log, outbox.log and snapshot.log, written by that version) are
// refused together, and so is each of them alone — a version-1 outbox.log or
// a snapshot.log beside a current wal.log included, since misreading or
// ignoring it would drop the pending deliveries or the snapshot it holds.
func TestV1LogsRefused(t *testing.T) {
	v1 := func(name string) string { return filepath.Join("testdata", "v1", name) }
	checkRefused(t, map[string]string{logName: v1(logName), "outbox.log": v1("outbox.log"), "snapshot.log": v1("snapshot.log")}, "")
	checkRefused(t, map[string]string{logName: v1(logName)}, logName)
	for _, stray := range []string{"outbox.log", "snapshot.log"} {
		current := t.TempDir()
		w, err := OpenWAL(current)
		if err != nil {
			t.Fatal(err)
		}
		must(t, w.LogEpoch(3))
		must(t, w.Close())
		checkRefused(t, map[string]string{logName: filepath.Join(current, logName), stray: v1(stray)}, stray)
	}
}

// checkRefused copies files (name → source) into a fresh directory and
// checks that recovering it fails with ErrWAL naming the file named (any of
// them when named is empty) and saying to drain or remove it, and that the
// files are left as they were.
func checkRefused(t *testing.T, files map[string]string, named string) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, _, err := recoverWAL(t, dir)
	w.Close()
	if !errors.Is(err, errdefs.ErrWAL) || !strings.Contains(err.Error(), "drain it") || !strings.Contains(err.Error(), "remove it") ||
		!strings.Contains(err.Error(), filepath.Join(dir, named)) {
		t.Fatalf("err = %v, want ErrWAL naming %s and saying to drain or remove it", err, filepath.Join(dir, named))
	}
	for name, src := range files {
		old, _ := os.ReadFile(src)
		if now, _ := os.ReadFile(filepath.Join(dir, name)); string(now) != string(old) {
			t.Errorf("refused %s was changed:\n%q", name, now)
		}
	}
}

// TestLogTornAtEveryByte cuts each log inside its last record at every byte
// — a crash at any point of the final append. Recovery must give the state
// before that record, and a record logged after recovery must survive the
// next restart.
func TestLogTornAtEveryByte(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		w, err := OpenWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		sch := Schema{Name: "r", Peer: "p", Kind: ast.Extensional, Cols: []string{"a", "b"}}
		w.LogDeclare(sch)
		w.LogMany(false, "r", "p", []value.Tuple{{value.Int(1), value.Str("one")}})
		w.Sync()
		before := fileSize(t, filepath.Join(dir, logName))
		w.LogMany(false, "r", "p", []value.Tuple{extremeTuple()[:2]})
		w.Close()
		full, err := os.ReadFile(filepath.Join(dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		for cut := before; cut <= int64(len(full)); cut++ {
			d := t.TempDir()
			if err := os.WriteFile(filepath.Join(d, logName), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			w, s, err := recoverWAL(t, d)
			if err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
			if want := 1 + b2i(cut == int64(len(full))); s.Get("r", "p").Len() != want {
				t.Fatalf("cut at %d: recovered %d tuples, want %d", cut, s.Get("r", "p").Len(), want)
			}
			w.LogMany(false, "r", "p", []value.Tuple{{value.Int(9), value.Str("after")}})
			w.Close()
			w, s2, err := recoverWAL(t, d)
			w.Close()
			if err != nil || !s2.Get("r", "p").Contains(value.Tuple{value.Int(9), value.Str("after")}) {
				t.Fatalf("cut at %d: second restart: %v, %v", cut, err, s2.Get("r", "p"))
			}
		}
	})
	t.Run("outbox", func(t *testing.T) {
		dir := t.TempDir()
		l, err := OpenWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		l.LogEpoch(5)
		l.LogEnqueue("bob", 1, []byte("m1"))
		l.Sync()
		before := fileSize(t, filepath.Join(dir, outboxName))
		l.LogEnqueue("bob", 2, []byte("m2"))
		l.Close()
		full, err := os.ReadFile(filepath.Join(dir, outboxName))
		if err != nil {
			t.Fatal(err)
		}
		for cut := before; cut <= int64(len(full)); cut++ {
			d := t.TempDir()
			if err := os.WriteFile(filepath.Join(d, outboxName), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			l, st, err := recoverOutboxLog(t, d)
			if err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
			if want := 1 + b2i(cut == int64(len(full))); len(st.Pending["bob"]) != want || st.Epoch != 5 {
				t.Fatalf("cut at %d: recovered %+v, want %d pending", cut, st, want)
			}
			l.LogAck("bob", 1)
			l.Close()
			l, st, err = recoverOutboxLog(t, d)
			l.Close()
			if err != nil || st.Acked["bob"] != 1 {
				t.Fatalf("cut at %d: second restart: %v, %+v", cut, err, st)
			}
		}
	})
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestLogDamageIsNotATornTail: a record that fails its checksum with more
// records after it is corruption, not a crash.
func TestLogDamageIsNotATornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.LogDeclare(Schema{Name: "r", Peer: "p", Kind: ast.Extensional, Cols: []string{"a"}})
	w.LogMany(false, "r", "p", []value.Tuple{{value.Int(1)}})
	w.LogMany(false, "r", "p", []value.Tuple{{value.Int(2)}})
	w.Close()
	path := filepath.Join(dir, logName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[headerLen+recordHdr+1] ^= 0x20 // inside the first record's body
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	w, _, err = recoverWAL(t, dir)
	w.Close()
	if !errors.Is(err, errdefs.ErrWAL) || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("damaged record: err = %v, want a checksum error", err)
	}
}

// TestLogDamagedLengthIsNotATornTail: a middle record whose length is
// damaged so that it points past the end of the file is corruption, not a
// torn tail — recovery fails with ErrWAL and cuts nothing — among the
// store's records and among the delivery records.
func TestLogDamagedLengthIsNotATornTail(t *testing.T) {
	for _, lg := range []struct {
		name  string
		write func(dir string)
		open  func(dir string) error
	}{
		{logName, func(dir string) {
			w, _ := OpenWAL(dir)
			w.LogDeclare(Schema{Name: "r", Peer: "p", Kind: ast.Extensional, Cols: []string{"a"}})
			for i := int64(1); i <= 4; i++ {
				w.LogMany(false, "r", "p", []value.Tuple{{value.Int(i)}})
			}
			w.Close()
		}, func(dir string) error {
			w, _, err := recoverWAL(t, dir)
			w.Close()
			return err
		}},
		{outboxName, func(dir string) {
			l, _ := OpenWAL(dir)
			l.LogEpoch(1)
			for seq := uint64(1); seq <= 4; seq++ {
				l.LogEnqueue("bob", seq, []byte("m"))
			}
			l.Close()
		}, func(dir string) error {
			l, _, err := recoverOutboxLog(t, dir)
			l.Close()
			return err
		}},
	} {
		t.Run(lg.name, func(t *testing.T) {
			dir := t.TempDir()
			lg.write(dir)
			path := filepath.Join(dir, lg.name)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The third of five records: skip the first two.
			at := headerLen
			for range 2 {
				at += recordHdr + int(binary.LittleEndian.Uint32(b[at:]))
			}
			b[at+3] ^= 0x40 // the length's high byte: now far past the end
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			err = lg.open(dir)
			if !errors.Is(err, errdefs.ErrWAL) || !strings.Contains(err.Error(), "record 3 has a damaged length") {
				t.Fatalf("err = %v, want ErrWAL for record 3's length", err)
			}
			if now, _ := os.ReadFile(path); string(now) != string(b) {
				t.Fatalf("damaged log was changed: %d bytes, was %d", len(now), len(b))
			}
		})
	}
}

// TestCompactKeepsPayloadBytes: payloads with every byte value survive a
// checkpoint and a restart, and empty ones come back nil.
func TestCompactKeepsPayloadBytes(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	st := &OutboxState{Epoch: 1, Epochs: map[string]uint64{}, NextSeq: map[string]uint64{"b": 2},
		Pending: map[string][]OutboxEntry{"b": {{Seq: 1, Payload: all}, {Seq: 2}}},
		Acked:   map[string]uint64{}, Applied: map[string]AppliedMark{}}
	if err := l.Checkpoint(New(), "p", st); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, got, err := recoverOutboxLog(t, dir)
	l.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("recovered %+v\nwant %+v", got, st)
	}
}
