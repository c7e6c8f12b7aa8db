package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/errdefs"
	"repro/internal/value"
)

func TestWALRecoverEmptyDir(t *testing.T) {
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := New()
	if err := w.Recover(s); err != nil {
		t.Fatal(err)
	}
	if len(s.Relations()) != 0 {
		t.Error("fresh recovery produced relations")
	}
}

func TestWALLogAndRecover(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	sch := Schema{Name: "pics", Peer: "alice", Kind: ast.Extensional, Cols: []string{"id", "name"}}
	if err := w.LogDeclare(sch); err != nil {
		t.Fatal(err)
	}
	if err := w.LogInsert("pics", "alice", value.Tuple{value.Int(1), value.Str("a.jpg")}); err != nil {
		t.Fatal(err)
	}
	if err := w.LogInsert("pics", "alice", value.Tuple{value.Int(2), value.Str("b.jpg")}); err != nil {
		t.Fatal(err)
	}
	if err := w.LogDelete("pics", "alice", value.Tuple{value.Int(1), value.Str("a.jpg")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	s := New()
	if err := w2.Recover(s); err != nil {
		t.Fatal(err)
	}
	rel := s.Get("pics", "alice")
	if rel == nil {
		t.Fatal("relation not recovered")
	}
	if rel.Len() != 1 || !rel.Contains(value.Tuple{value.Int(2), value.Str("b.jpg")}) {
		t.Errorf("recovered contents: %v", rel.Tuples())
	}
	if rel.Kind() != ast.Extensional || rel.Schema().Arity() != 2 {
		t.Errorf("recovered schema: %v", rel.Schema())
	}
}

func TestWALSnapshotCompactsLog(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	sch := Schema{Name: "r", Peer: "p", Kind: ast.Extensional, Cols: []string{"a"}}
	rel, _ := s.Declare(sch)
	if err := w.LogDeclare(sch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tp := value.Tuple{value.Int(int64(i))}
		rel.Insert(tp)
		if err := w.LogInsert("r", "p", tp); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != 11 {
		t.Errorf("records = %d, want 11", w.Records())
	}
	if err := w.Snapshot(s, "p"); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 {
		t.Errorf("records after snapshot = %d, want 0", w.Records())
	}
	// A post-snapshot mutation must still recover on top of the snapshot.
	tp := value.Tuple{value.Int(100)}
	rel.Insert(tp)
	if err := w.LogInsert("r", "p", tp); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	s2 := New()
	if err := w2.Recover(s2); err != nil {
		t.Fatal(err)
	}
	if got := s2.Get("r", "p").Len(); got != 11 {
		t.Errorf("recovered %d tuples, want 11", got)
	}
}

func TestWALTornFinalRecordTolerated(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	sch := Schema{Name: "r", Peer: "p", Kind: ast.Extensional, Cols: []string{"a"}}
	if err := w.LogDeclare(sch); err != nil {
		t.Fatal(err)
	}
	if err := w.LogInsert("r", "p", value.Tuple{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a record at the end.
	tearLog(t, dir, logName, tornWALRecord())

	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	s := New()
	if err := w2.Recover(s); err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if got := s.Get("r", "p").Len(); got != 1 {
		t.Errorf("recovered %d tuples, want 1", got)
	}
}

func TestWALInsertIntoUndeclaredFails(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LogInsert("ghost", "p", value.Tuple{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := w2.Recover(New()); err == nil {
		t.Error("recovery of insert into undeclared relation must fail")
	}
}

func TestWALClosedRejectsAppends(t *testing.T) {
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.LogInsert("r", "p", value.Tuple{value.Int(1)}); err == nil {
		t.Error("append after close must fail")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close must be a no-op: %v", err)
	}
}

func TestWALSnapshotOnlyExtensional(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := New()
	ext, _ := s.Declare(Schema{Name: "e", Peer: "p", Kind: ast.Extensional, Cols: []string{"a"}})
	idb, _ := s.Declare(Schema{Name: "i", Peer: "p", Kind: ast.Intensional, Cols: []string{"a"}})
	ext.Insert(value.Tuple{value.Int(1)})
	idb.Insert(value.Tuple{value.Int(2)})
	if err := w.Snapshot(s, "p"); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := w2.Recover(s2); err != nil {
		t.Fatal(err)
	}
	if s2.Get("i", "p") != nil {
		t.Error("intensional relation leaked into snapshot")
	}
	if got := s2.Get("e", "p"); got == nil || got.Len() != 1 {
		t.Error("extensional relation missing from snapshot")
	}
}

// tearLog appends half a record to the log file name in dir: a crash in the
// middle of an append.
func tearLog(t testing.TB, dir, name string, half []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(half); err != nil {
		t.Fatal(err)
	}
}

// framed returns a record as it lands in a log file.
func framed(body []byte) []byte { return seal(append(make([]byte, recordHdr), body...)) }

// tornWALRecord returns the first half of an insert record into r@p.
func tornWALRecord() []byte {
	rec := walRecord{Op: walIns, Rel: "r", Peer: "p", Args: value.Tuple{value.Int(3)}}
	b := framed(rec.append(nil))
	return b[:len(b)/2]
}

// recoverWAL opens the WAL in dir and recovers it into a fresh store.
func recoverWAL(t testing.TB, dir string) (*WAL, *Store, error) {
	t.Helper()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	return w, s, w.Recover(s)
}

// TestWALTornTailSurvivesSecondRestart: Recover cuts the torn tail off the
// file, so records logged after the first restart start on their own line
// and the second restart recovers them instead of failing on a record
// glued to the fragment.
func TestWALTornTailSurvivesSecondRestart(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LogDeclare(Schema{Name: "r", Peer: "p", Kind: ast.Extensional, Cols: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tearLog(t, dir, logName, tornWALRecord())

	w, _, err = recoverWAL(t, dir)
	if err != nil {
		t.Fatalf("first restart: %v", err)
	}
	for i := int64(1); i <= 2; i++ {
		if err := w.LogInsert("r", "p", value.Tuple{value.Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, s, err := recoverWAL(t, dir)
	defer w.Close()
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	if got := s.Get("r", "p").Len(); got != 2 {
		t.Errorf("recovered %d tuples, want 2", got)
	}
}

// TestWALRecoverRejectsWrongArity: a well-formed record or snapshot tuple
// that does not fit its relation fails recovery with ErrWAL naming where it
// is, instead of panicking in Relation.Insert.
func TestWALRecoverRejectsWrongArity(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LogDeclare(Schema{Name: "r", Peer: "p", Kind: ast.Extensional, Cols: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.LogInsert("r", "p", value.Tuple{value.Int(1), value.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, _, err = recoverWAL(t, dir)
	w.Close()
	if !errors.Is(err, errdefs.ErrWAL) || !strings.Contains(err.Error(), "wal record 2") {
		t.Fatalf("log: err = %v, want ErrWAL naming record 2", err)
	}

	dir = t.TempDir()
	f, err := writeLogFile(filepath.Join(dir, snapName), snapshotMagic, func(add func([]byte) error) error {
		for _, rec := range []walRecord{
			{Op: walDecl, Rel: "r", Peer: "p", Kind: ast.Extensional, Cols: []string{"a"}},
			{Op: walIns, Rel: "r", Peer: "p", Args: value.Tuple{value.Int(1)}},
			{Op: walIns, Rel: "r", Peer: "p", Args: value.Tuple{value.Int(1), value.Int(2)}},
		} {
			if err := add(rec.append(nil)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	w, _, err = recoverWAL(t, dir)
	w.Close()
	if !errors.Is(err, errdefs.ErrWAL) || !strings.Contains(err.Error(), "snapshot record 3") {
		t.Fatalf("snapshot: err = %v, want ErrWAL naming record 3", err)
	}
}

// dumpStore renders every relation's schema and contents as sorted lines.
func dumpStore(s *Store) string {
	var lines []string
	for _, r := range s.Relations() {
		lines = append(lines, fmt.Sprintf("%s %v %q", r.Schema().ID(), r.Kind(), r.Schema().Cols))
		for _, tp := range r.Tuples() {
			lines = append(lines, r.Schema().ID()+" "+tp.Key())
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// FuzzWALReplay feeds arbitrary bytes to WAL.Recover as the log file. It must
// not panic; and when it succeeds, a restarted peer that logs more and
// restarts again must recover exactly the first recovery plus what it
// logged — whatever torn tail the bytes ended in.
func FuzzWALReplay(f *testing.F) {
	dir := f.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		f.Fatal(err)
	}
	w.LogDeclare(Schema{Name: "r", Peer: "p", Kind: ast.Extensional, Cols: []string{"a", "b"}})
	w.LogMany(false, "r", "p", []value.Tuple{{value.Int(1), value.Str("x")}, {value.Int(2), value.Str("y")}})
	w.LogDelete("r", "p", value.Tuple{value.Int(1), value.Str("x")})
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	logged, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(logged)
	f.Add(append(logged, tornWALRecord()...))
	f.Add(logged[:len(logged)-3])
	f.Add([]byte(walMagic[:5]))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, first, err := recoverWAL(t, dir)
		if err != nil {
			w.Close()
			return
		}
		name := "fuzz"
		for first.Get(name, "p") != nil {
			name += "z"
		}
		sch := Schema{Name: name, Peer: "p", Kind: ast.Extensional, Cols: []string{"a"}}
		tp := value.Tuple{value.Int(7)}
		if err := w.LogDeclare(sch); err != nil {
			t.Fatal(err)
		}
		if err := w.LogInsert(name, "p", tp); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		w.Close()
		w, second, err := recoverWAL(t, dir)
		w.Close()
		if err != nil {
			t.Fatalf("second recovery failed: %v", err)
		}
		rel, err := first.Declare(sch)
		if err != nil {
			t.Fatal(err)
		}
		rel.Insert(tp)
		if got, want := dumpStore(second), dumpStore(first); got != want {
			t.Fatalf("second recovery differs\n--- got\n%s\n--- want\n%s", got, want)
		}
	})
}
