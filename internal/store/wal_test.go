package store

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
	if _, err := w.Recover(s); err != nil {
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
	if err := w.LogMany(false, "pics", "alice", []value.Tuple{{value.Int(1), value.Str("a.jpg")}}); err != nil {
		t.Fatal(err)
	}
	if err := w.LogMany(false, "pics", "alice", []value.Tuple{{value.Int(2), value.Str("b.jpg")}}); err != nil {
		t.Fatal(err)
	}
	if err := w.LogMany(true, "pics", "alice", []value.Tuple{{value.Int(1), value.Str("a.jpg")}}); err != nil {
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
	if _, err := w2.Recover(s); err != nil {
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
		if err := w.LogMany(false, "r", "p", []value.Tuple{tp}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		tp := value.Tuple{value.Int(int64(i))}
		if err := w.LogMany(true, "r", "p", []value.Tuple{tp}); err != nil {
			t.Fatal(err)
		}
		if err := w.LogMany(false, "r", "p", []value.Tuple{tp}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != 31 {
		t.Errorf("records = %d, want 31", w.Records())
	}
	if err := w.Checkpoint(s, "p", NewOutboxState()); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 11 || w.CheckpointDue() {
		t.Errorf("records after checkpoint = %d (due %v), want the 11 live ones", w.Records(), w.CheckpointDue())
	}
	// A post-checkpoint mutation must still recover on top of the checkpoint.
	tp := value.Tuple{value.Int(100)}
	rel.Insert(tp)
	if err := w.LogMany(false, "r", "p", []value.Tuple{tp}); err != nil {
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
	if _, err := w2.Recover(s2); err != nil {
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
	if err := w.LogMany(false, "r", "p", []value.Tuple{{value.Int(1)}}); err != nil {
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
	if _, err := w2.Recover(s); err != nil {
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
	if err := w.LogMany(false, "ghost", "p", []value.Tuple{{value.Int(1)}}); err != nil {
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
	if _, err := w2.Recover(New()); err == nil {
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
	if err := w.LogMany(false, "r", "p", []value.Tuple{{value.Int(1)}}); err == nil {
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
	if err := w.Checkpoint(s, "p", NewOutboxState()); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if _, err := w2.Recover(s2); err != nil {
		t.Fatal(err)
	}
	if s2.Get("i", "p") != nil {
		t.Error("intensional relation leaked into the checkpoint")
	}
	if got := s2.Get("e", "p"); got == nil || got.Len() != 1 {
		t.Error("extensional relation missing from the checkpoint")
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
	w, s, _, err := recoverBoth(t, dir)
	return w, s, err
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
		if err := w.LogMany(false, "r", "p", []value.Tuple{{value.Int(i)}}); err != nil {
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

// TestWALRecoverRejectsWrongArity: a well-formed appended or checkpointed
// tuple that does not fit its relation fails recovery with ErrWAL naming
// its record, instead of panicking in Relation.Insert.
func TestWALRecoverRejectsWrongArity(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LogDeclare(Schema{Name: "r", Peer: "p", Kind: ast.Extensional, Cols: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.LogMany(false, "r", "p", []value.Tuple{{value.Int(1), value.Int(2)}}); err != nil {
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
	f, err := writeLogFile(filepath.Join(dir, logName), func(add func([]byte) error) error {
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
	if !errors.Is(err, errdefs.ErrWAL) || !strings.Contains(err.Error(), "wal record 3") {
		t.Fatalf("checkpoint: err = %v, want ErrWAL naming record 3", err)
	}
}

// dumpStore renders every relation's schema and contents as sorted lines.
func dumpStore(s *Store) []string {
	var lines []string
	for _, r := range s.Relations() {
		lines = append(lines, fmt.Sprintf("%s %v %q", r.Schema().ID(), r.Kind(), r.Schema().Cols))
		for _, tp := range r.Tuples() {
			lines = append(lines, fmt.Sprintf("%s %q", r.Schema().ID(), tp.Key()))
		}
	}
	sort.Strings(lines)
	return lines
}

// recovery is what recovering a log gives: the store, rendered, and the
// delivery state.
type recovery struct {
	store []string
	st    *OutboxState
}

// recoverDir recovers the log in dir into a fresh store, closing it after.
func recoverDir(t testing.TB, dir string) (recovery, error) {
	t.Helper()
	w, s, st, err := recoverBoth(t, dir)
	w.Close()
	return recovery{dumpStore(s), st}, err
}

// recoverBoth opens the log in dir and recovers both record families.
func recoverBoth(t testing.TB, dir string) (*WAL, *Store, *OutboxState, error) {
	t.Helper()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	st, err := w.Recover(s)
	return w, s, st, err
}

// logMore appends the records fuzzLogReplay and TestLogCrashPoints log after
// a recovery: a fresh relation with one tuple and an entry for a fresh
// destination, neither named anywhere in before.
func logMore(t testing.TB, w *WAL, before recovery) (rel, dst string) {
	t.Helper()
	rel, dst = "more", "later"
	for slices.ContainsFunc(before.store, func(line string) bool { return strings.HasPrefix(line, rel+"@p ") }) {
		rel += "e"
	}
	for hasKey(before.st.NextSeq, dst) || before.st.Epochs[dst] != 0 || before.st.Acked[dst] != 0 {
		dst += "r"
	}
	must(t, w.LogDeclare(Schema{Name: rel, Peer: "p", Kind: ast.Extensional, Cols: []string{"a"}}))
	must(t, w.LogMany(false, rel, "p", []value.Tuple{{value.Int(7)}}))
	must(t, w.LogEnqueue(dst, 5, []byte("m")))
	must(t, w.Sync())
	return rel, dst
}

// plusMore is before with what logMore logged.
func plusMore(before recovery, rel, dst string) recovery {
	s := New()
	r, _ := s.Declare(Schema{Name: rel, Peer: "p", Kind: ast.Extensional, Cols: []string{"a"}})
	r.Insert(value.Tuple{value.Int(7)})
	st := *before.st
	st.Pending = maps.Clone(st.Pending)
	st.NextSeq = maps.Clone(st.NextSeq)
	st.Pending[dst] = []OutboxEntry{{Seq: 5, Payload: []byte("m")}}
	st.NextSeq[dst] = 5
	lines := append(slices.Clone(before.store), dumpStore(s)...)
	sort.Strings(lines)
	return recovery{lines, &st}
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func hasKey(m map[string]uint64, k string) bool {
	_, ok := m[k]
	return ok
}

// FuzzWALReplay fuzzes wal.log, the file of the store's records and the
// applied watermarks (fuzzLogReplay).
func FuzzWALReplay(f *testing.F) {
	fuzzLogReplay(f, logName, func(logged []byte) [][]byte {
		return [][]byte{logged, append(slices.Clip(logged), tornWALRecord()...), logged[:len(logged)-3], []byte(walMagic[:5])}
	})
}

// FuzzOutboxLogReplay fuzzes outbox.log, the file of the rest of the
// delivery state (fuzzLogReplay).
func FuzzOutboxLogReplay(f *testing.F) {
	fuzzLogReplay(f, outboxName, func(logged []byte) [][]byte {
		return [][]byte{logged, append(slices.Clip(logged), tornOutboxRecord()...), logged[:len(logged)-3]}
	})
}

// fuzzLogReplay feeds arbitrary bytes to WAL.Recover as the log's file name,
// seeded with what seeds makes of that file of a log holding every record
// tag. Recover must not panic; and when it succeeds, a restarted peer that
// logs more — store records and delivery records — and restarts again must
// recover exactly the first recovery plus what it logged, whatever torn tail
// the bytes ended in.
func fuzzLogReplay(f *testing.F, name string, seeds func(logged []byte) [][]byte) {
	dir := f.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		f.Fatal(err)
	}
	w.LogDeclare(Schema{Name: "r", Peer: "p", Kind: ast.Extensional, Cols: []string{"a", "b"}})
	w.LogMany(false, "r", "p", []value.Tuple{{value.Int(1), value.Str("x")}, {value.Int(2), value.Str("y")}})
	w.LogMany(true, "r", "p", []value.Tuple{{value.Int(1), value.Str("x")}})
	w.LogEpoch(9)
	w.LogEnqueue("bob", 1, []byte("m1"))
	w.LogEnqueue("bob", 2, []byte("m2"))
	w.LogAck("bob", 1)
	w.LogApplied("carol", 4, 6)
	w.LogReset("dave", 11)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	logged, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range seeds(logged) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, s, st, err := recoverBoth(t, dir)
		if err != nil {
			w.Close()
			return
		}
		first := recovery{dumpStore(s), st}
		rel, dst := logMore(t, w, first)
		w.Close()
		second, err := recoverDir(t, dir)
		if err != nil {
			t.Fatalf("second recovery failed: %v", err)
		}
		if want := plusMore(first, rel, dst); !reflect.DeepEqual(second, want) {
			t.Fatalf("second recovery differs\n got %+v\nwant %+v", second, want)
		}
	})
}

// TestLogCrashPoints cuts a log mixing every record tag: each file at every
// byte — every record boundary and every byte inside every record — with
// the other file whole, and both files at every pair of record boundaries,
// as a crash can leave them, each file synced to its own point. Every
// recovery must equal the recovery of a log that never held the records
// past the cuts, and logging more after it and recovering again must give
// that plus what was logged.
func TestLogCrashPoints(t *testing.T) {
	sch := Schema{Name: "r", Peer: "p", Kind: ast.Extensional, Cols: []string{"a", "b"}}
	one, two := value.Tuple{value.Int(1), value.Str("one")}, extremeTuple()[:2]
	// Each step appends one record.
	steps := []func(w *WAL) error{
		func(w *WAL) error { return w.LogEpoch(5) },
		func(w *WAL) error { return w.LogDeclare(sch) },
		func(w *WAL) error { return w.LogMany(false, "r", "p", []value.Tuple{one}) },
		func(w *WAL) error { return w.LogEnqueue("bob", 1, []byte("m1")) },
		func(w *WAL) error { return w.LogApplied("carol", 3, 4) },
		func(w *WAL) error { return w.LogMany(false, "r", "p", []value.Tuple{two}) },
		func(w *WAL) error { return w.LogEnqueue("bob", 2, []byte("m2")) },
		func(w *WAL) error { return w.LogMany(true, "r", "p", []value.Tuple{one}) },
		func(w *WAL) error { return w.LogAck("bob", 1) },
		func(w *WAL) error { return w.LogReset("dave", 8) },
		func(w *WAL) error { return w.LogEnqueue("dave", 1, []byte("d1")) },
		func(w *WAL) error { return w.LogAck("dave", 1) },
		func(w *WAL) error { return w.LogApplied("carol", 3, 9) },
	}
	// of[i] is the file step i appends to; ends[f][k] is the size of file f
	// holding its first k records.
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	of := make([]int, len(steps))
	ends := [2][]int64{{headerLen}, {headerLen}}
	for i, step := range steps {
		must(t, step(w))
		must(t, w.Sync())
		grew := 0
		for file, name := range logNames {
			if size := fileSize(t, filepath.Join(dir, name)); size != ends[file][len(ends[file])-1] {
				ends[file] = append(ends[file], size)
				of[i] = file
				grew++
			}
		}
		if grew != 1 {
			t.Fatalf("step %d changed %d files", i, grew)
		}
	}
	w.Close()
	var full [2][]byte
	for file, name := range logNames {
		if full[file], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	// want recovers a log that only ever held the first ks[f] records of
	// each file f.
	wants := map[[2]int]recovery{}
	want := func(ks [2]int) recovery {
		if r, ok := wants[ks]; ok {
			return r
		}
		d := t.TempDir()
		w, err := OpenWAL(d)
		if err != nil {
			t.Fatal(err)
		}
		var seen [2]int
		for i, step := range steps {
			if seen[of[i]]++; seen[of[i]] <= ks[of[i]] {
				must(t, step(w))
			}
		}
		w.Close()
		r, err := recoverDir(t, d)
		if err != nil {
			t.Fatal(err)
		}
		wants[ks] = r
		return r
	}
	// check recovers the log cut to cuts[f] bytes of each file f.
	check := func(cuts [2]int64) {
		var ks [2]int
		d := t.TempDir()
		for file, name := range logNames {
			fe := ends[file]
			for ks[file]+1 < len(fe) && fe[ks[file]+1] <= cuts[file] {
				ks[file]++
			}
			must(t, os.WriteFile(filepath.Join(d, name), full[file][:cuts[file]], 0o644))
		}
		w, s, st, err := recoverBoth(t, d)
		if err != nil {
			t.Fatalf("cut at %v: %v", cuts, err)
		}
		before := want(ks)
		if got := (recovery{dumpStore(s), st}); !reflect.DeepEqual(got, before) {
			t.Fatalf("cut at %v: recovered %+v\nwant the first %v records: %+v", cuts, got, ks, before)
		}
		rel, dst := logMore(t, w, before)
		w.Close()
		got, err := recoverDir(t, d)
		if want := plusMore(before, rel, dst); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %v: second restart: %v\n got %+v\nwant %+v", cuts, err, got, want)
		}
	}
	whole := [2]int64{int64(len(full[0])), int64(len(full[1]))}
	for file := range logNames {
		cuts := whole
		for cuts[file] = headerLen; cuts[file] <= whole[file]; cuts[file]++ {
			check(cuts)
		}
	}
	for _, a := range ends[0] {
		for _, b := range ends[1] {
			check([2]int64{a, b})
		}
	}
}
