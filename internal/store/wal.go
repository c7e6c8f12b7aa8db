package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/ast"
	"repro/internal/errdefs"
	"repro/internal/value"
)

// WAL provides durability for a peer's extensional relations: every
// declaration, insert and delete is appended to a log file, and Snapshot
// compacts the log into a full dump. Recover replays snapshot + log.
//
// The paper's system keeps peer state in the Bud runtime's persistent
// collections; this is our equivalent storage substrate.
type WAL struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	records int // appended since the last snapshot
	closed  bool
}

const (
	logName  = "wal.log"
	snapName = "snapshot.json"
	snapTmp  = "snapshot.json.tmp"
)

type walRecord struct {
	Op   string        `json:"op"` // "decl", "ins", "del"
	Rel  string        `json:"rel"`
	Peer string        `json:"peer"`
	Kind ast.RelKind   `json:"kind,omitempty"`
	Cols []string      `json:"cols,omitempty"`
	Args []value.Value `json:"args,omitempty"`
}

type snapshotFile struct {
	Relations []snapshotRelation `json:"relations"`
}

type snapshotRelation struct {
	Rel    string          `json:"rel"`
	Peer   string          `json:"peer"`
	Kind   ast.RelKind     `json:"kind"`
	Cols   []string        `json:"cols"`
	Tuples [][]value.Value `json:"tuples"`
}

// OpenWAL opens (creating if needed) the log in dir. Failures wrap
// errdefs.ErrWAL so callers can detect them with errors.Is.
func OpenWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w: opening wal dir: %w", errdefs.ErrWAL, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w: opening wal: %w", errdefs.ErrWAL, err)
	}
	return &WAL{dir: dir, f: f, w: bufio.NewWriter(f)}, nil
}

// Dir returns the directory holding the log and snapshot.
func (w *WAL) Dir() string { return w.dir }

// Records returns the number of records appended since the last snapshot.
func (w *WAL) Records() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

func (w *WAL) append(rec walRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(rec)
}

func (w *WAL) appendLocked(rec walRecord) error {
	if w.closed {
		return fmt.Errorf("store: %w: wal is closed", errdefs.ErrWAL)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: %w: encoding wal record: %w", errdefs.ErrWAL, err)
	}
	if _, err := w.w.Write(b); err != nil {
		return fmt.Errorf("store: %w: appending wal record: %w", errdefs.ErrWAL, err)
	}
	if err := w.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("store: %w: appending wal record: %w", errdefs.ErrWAL, err)
	}
	w.records++
	return nil
}

// LogMany appends one insert (or delete, when del is set) record per tuple
// under a single lock acquisition — the durability half of an atomic batch.
func (w *WAL) LogMany(del bool, rel, peer string, ts []value.Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	op := "ins"
	if del {
		op = "del"
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, t := range ts {
		if err := w.appendLocked(walRecord{Op: op, Rel: rel, Peer: peer, Args: t}); err != nil {
			return err
		}
	}
	return nil
}

// LogDeclare records a relation declaration.
func (w *WAL) LogDeclare(schema Schema) error {
	return w.append(walRecord{Op: "decl", Rel: schema.Name, Peer: schema.Peer, Kind: schema.Kind, Cols: schema.Cols})
}

// LogInsert records an insert into rel@peer.
func (w *WAL) LogInsert(rel, peer string, t value.Tuple) error {
	return w.append(walRecord{Op: "ins", Rel: rel, Peer: peer, Args: t})
}

// LogDelete records a delete from rel@peer.
func (w *WAL) LogDelete(rel, peer string, t value.Tuple) error {
	return w.append(walRecord{Op: "del", Rel: rel, Peer: peer, Args: t})
}

// Sync flushes buffered records and fsyncs the log file.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("store: %w: wal is closed", errdefs.ErrWAL)
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("store: %w: flushing wal: %w", errdefs.ErrWAL, err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: %w: syncing wal: %w", errdefs.ErrWAL, err)
	}
	return nil
}

// Snapshot writes a full dump of every extensional relation in s owned by
// peer, then truncates the log. On success the on-disk state equals s.
func (w *WAL) Snapshot(s *Store, peer string) error {
	var snap snapshotFile
	for _, r := range s.RelationsOf(peer) {
		if r.Kind() != ast.Extensional {
			continue
		}
		sr := snapshotRelation{
			Rel:  r.Schema().Name,
			Peer: r.Schema().Peer,
			Kind: r.Kind(),
			Cols: r.Schema().Cols,
		}
		for _, t := range r.Tuples() {
			sr.Tuples = append(sr.Tuples, t)
		}
		snap.Relations = append(snap.Relations, sr)
	}
	b, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: wal is closed")
	}
	tmp := filepath.Join(w.dir, snapTmp)
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, snapName)); err != nil {
		return fmt.Errorf("store: installing snapshot: %w", err)
	}
	// Truncate the log: reopen with O_TRUNC.
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("store: flushing wal before truncate: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: closing wal before truncate: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(w.dir, logName), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: truncating wal: %w", err)
	}
	w.f = f
	w.w = bufio.NewWriter(f)
	w.records = 0
	return nil
}

// Recover loads the snapshot (if any) and replays the log into s. It is
// meant to be called once, on an empty or freshly-created store, before any
// new records are appended. A record whose tuple does not fit its relation's
// arity fails recovery with an error wrapping errdefs.ErrWAL.
func (w *WAL) Recover(s *Store) error {
	snapPath := filepath.Join(w.dir, snapName)
	if b, err := os.ReadFile(snapPath); err == nil {
		var snap snapshotFile
		if err := json.Unmarshal(b, &snap); err != nil {
			return fmt.Errorf("store: decoding snapshot: %w", err)
		}
		for _, sr := range snap.Relations {
			rel, err := s.Declare(Schema{Name: sr.Rel, Peer: sr.Peer, Kind: sr.Kind, Cols: sr.Cols})
			if err != nil {
				return err
			}
			for i, t := range sr.Tuples {
				if len(t) != rel.Schema().Arity() {
					return fmt.Errorf("store: %w: snapshot tuple %d of %s has %d values, want %d",
						errdefs.ErrWAL, i+1, rel.Schema().ID(), len(t), rel.Schema().Arity())
				}
				rel.Insert(value.Tuple(t))
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: reading snapshot: %w", err)
	}

	return replayLog(filepath.Join(w.dir, logName), "wal", func(line int, rec *walRecord) error {
		if rec.Op == "decl" {
			_, err := s.Declare(Schema{Name: rec.Rel, Peer: rec.Peer, Kind: rec.Kind, Cols: rec.Cols})
			return err
		}
		if rec.Op != "ins" && rec.Op != "del" {
			return fmt.Errorf("store: %w: unknown wal op %q at line %d", errdefs.ErrWAL, rec.Op, line)
		}
		rel := s.Get(rec.Rel, rec.Peer)
		if rel == nil {
			return fmt.Errorf("store: %w: wal %s of undeclared relation %s@%s at line %d", errdefs.ErrWAL, rec.Op, rec.Rel, rec.Peer, line)
		}
		if len(rec.Args) != rel.Schema().Arity() {
			return fmt.Errorf("store: %w: wal %s at line %d has %d values, %s has arity %d",
				errdefs.ErrWAL, rec.Op, line, len(rec.Args), rel.Schema().ID(), rel.Schema().Arity())
		}
		if rec.Op == "ins" {
			rel.Insert(value.Tuple(rec.Args))
		} else {
			rel.Delete(value.Tuple(rec.Args))
		}
		return nil
	})
}

// replayLog decodes every complete record of the JSON-lines log at path, in
// order, and hands it to apply with its 1-based line number. A record is
// complete when its line ends in a newline and decodes. A final line that
// does not is a torn tail — a crash mid-append — and is cut off the file,
// so the next append starts on a line of its own instead of extending the
// fragment into a corrupt record. An undecodable line anywhere else is
// corruption. A missing file replays nothing. Shared by WAL and OutboxLog.
func replayLog[R any](path, what string, apply func(line int, rec *R) error) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w: reading %s: %w", errdefs.ErrWAL, what, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var off, good int64 // bytes read; end of the last complete record
	for line := 1; ; line++ {
		raw, err := r.ReadBytes('\n')
		off += int64(len(raw))
		if errors.Is(err, io.EOF) {
			break // an unterminated final line is torn
		}
		if err != nil {
			return fmt.Errorf("store: %w: reading %s: %w", errdefs.ErrWAL, what, err)
		}
		if len(bytes.TrimSpace(raw)) == 0 {
			good = off
			continue
		}
		var rec R
		if err := json.Unmarshal(raw, &rec); err != nil {
			if _, err := r.Peek(1); errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("store: %w: corrupt %s record at line %d: %w", errdefs.ErrWAL, what, line, err)
		}
		if err := apply(line, &rec); err != nil {
			return err
		}
		good = off
	}
	if off > good {
		if err := os.Truncate(path, good); err != nil {
			return fmt.Errorf("store: %w: cutting torn %s tail: %w", errdefs.ErrWAL, what, err)
		}
	}
	return nil
}

// Close flushes and closes the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("store: flushing wal on close: %w", err)
	}
	return w.f.Close()
}
