package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/ast"
	"repro/internal/errdefs"
	"repro/internal/value"
)

// WAL provides durability for a peer's extensional relations: every
// declaration, insert and delete is appended to a log file, and Snapshot
// compacts the log into a full dump. Recover replays snapshot + log. Both
// files hold the records of logfile.go.
//
// The paper's system keeps peer state in the Bud runtime's persistent
// collections; this is our equivalent storage substrate.
type WAL struct {
	dir string
	log *logFile
}

const (
	logName  = "wal.log"
	snapName = "snapshot.log"
	// oldSnapName is the snapshot of the JSON-era format: refused, since an
	// emptied wal.log beside it would otherwise recover as an empty store.
	oldSnapName = "snapshot.json"
)

// WAL record ops.
const (
	walDecl byte = iota + 1
	walIns
	walDel
)

// walRecord is one log record: a declaration (Rel, Peer, Kind, Cols) or an
// insert or delete (Rel, Peer, Args). Every field is written.
type walRecord struct {
	Op   byte
	Rel  string
	Peer string
	Kind ast.RelKind
	Cols []string
	Args value.Tuple
}

func (rec *walRecord) append(dst []byte) []byte {
	dst = value.AppendString(append(dst, rec.Op), rec.Rel)
	dst = value.AppendString(dst, rec.Peer)
	dst = binary.AppendUvarint(append(dst, byte(rec.Kind)), uint64(len(rec.Cols)))
	for _, c := range rec.Cols {
		dst = value.AppendString(dst, c)
	}
	return rec.Args.Encode(dst)
}

func decodeWALRecord(r *value.Reader) walRecord {
	rec := walRecord{Op: r.Byte(), Rel: r.Str(), Peer: r.Str(), Kind: ast.RelKind(r.Byte())}
	if n := r.Count(1); n > 0 {
		rec.Cols = make([]string, n)
		for i := range rec.Cols {
			rec.Cols[i] = r.Str()
		}
	}
	rec.Args = r.Tuple()
	if rec.Op < walDecl || rec.Op > walDel || rec.Kind > ast.Intensional {
		r.Fail(value.ErrCorrupt)
	}
	return rec
}

// OpenWAL opens (creating if needed) the log in dir. Failures wrap
// errdefs.ErrWAL so callers can detect them with errors.Is.
func OpenWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w: opening wal dir: %w", errdefs.ErrWAL, err)
	}
	l, err := openLogFile(filepath.Join(dir, logName), walMagic, "wal")
	if err != nil {
		return nil, err
	}
	return &WAL{dir: dir, log: l}, nil
}

// Dir returns the directory holding the log and snapshot.
func (w *WAL) Dir() string { return w.dir }

// Records returns the number of records appended since the last snapshot.
func (w *WAL) Records() int {
	w.log.mu.Lock()
	defer w.log.mu.Unlock()
	return w.log.records
}

func (w *WAL) append(rec walRecord) error {
	w.log.mu.Lock()
	defer w.log.mu.Unlock()
	return w.log.write(rec.append(w.log.record()))
}

// LogMany appends one insert (or delete, when del is set) record per tuple
// under a single lock acquisition — the durability half of an atomic batch.
func (w *WAL) LogMany(del bool, rel, peer string, ts []value.Tuple) error {
	rec := walRecord{Op: walIns, Rel: rel, Peer: peer}
	if del {
		rec.Op = walDel
	}
	w.log.mu.Lock()
	defer w.log.mu.Unlock()
	for _, t := range ts {
		rec.Args = t
		if err := w.log.write(rec.append(w.log.record())); err != nil {
			return err
		}
	}
	return nil
}

// LogDeclare records a relation declaration.
func (w *WAL) LogDeclare(schema Schema) error {
	return w.append(walRecord{Op: walDecl, Rel: schema.Name, Peer: schema.Peer, Kind: schema.Kind, Cols: schema.Cols})
}

// LogInsert records an insert into rel@peer.
func (w *WAL) LogInsert(rel, peer string, t value.Tuple) error {
	return w.append(walRecord{Op: walIns, Rel: rel, Peer: peer, Args: t})
}

// LogDelete records a delete from rel@peer.
func (w *WAL) LogDelete(rel, peer string, t value.Tuple) error {
	return w.append(walRecord{Op: walDel, Rel: rel, Peer: peer, Args: t})
}

// Sync flushes buffered records and fsyncs the log file.
func (w *WAL) Sync() error {
	w.log.mu.Lock()
	defer w.log.mu.Unlock()
	return w.log.sync()
}

// Snapshot writes a full dump of every extensional relation in s owned by
// peer — a declaration record per relation, an insert record per tuple —
// then empties the log. On success the on-disk state equals s.
func (w *WAL) Snapshot(s *Store, peer string) error {
	w.log.mu.Lock()
	defer w.log.mu.Unlock()
	if w.log.closed {
		return fmt.Errorf("store: %w: wal is closed", errdefs.ErrWAL)
	}
	f, err := writeLogFile(filepath.Join(w.dir, snapName), snapshotMagic, func(add func([]byte) error) error {
		var body []byte
		for _, r := range s.RelationsOf(peer) {
			if r.Kind() != ast.Extensional {
				continue
			}
			sch := r.Schema()
			rec := walRecord{Op: walDecl, Rel: sch.Name, Peer: sch.Peer, Kind: sch.Kind, Cols: sch.Cols}
			body = rec.append(body[:0])
			if err := add(body); err != nil {
				return err
			}
			rec.Op = walIns
			for _, t := range r.Tuples() {
				rec.Args = t
				body = rec.append(body[:0])
				if err := add(body); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: %w: writing snapshot: %w", errdefs.ErrWAL, err)
	}
	f.Close()
	// Empty the log down to its header. A crash before this point replays
	// the old records over the snapshot, which they already produced.
	if err := writeHeader(w.log.f, walMagic); err != nil {
		return fmt.Errorf("store: %w: truncating wal: %w", errdefs.ErrWAL, err)
	}
	w.log.w.Reset(w.log.f)
	w.log.records = 0
	w.log.dirty = true // the truncation itself is synced by the next Sync
	return nil
}

// Recover loads the snapshot (if any) and replays the log into s. It is
// meant to be called once, on an empty or freshly-created store, before any
// new records are appended. A record whose tuple does not fit its relation's
// arity fails recovery with an error wrapping errdefs.ErrWAL, and so does a
// log or snapshot not in this version's format.
func (w *WAL) Recover(s *Store) error {
	if _, err := os.Stat(filepath.Join(w.dir, oldSnapName)); err == nil {
		return fmt.Errorf("store: %w: %s is a snapshot written by an older version: "+
			"drain it with the version that wrote it, or remove it", errdefs.ErrWAL, filepath.Join(w.dir, oldSnapName))
	}
	if err := replayLog(filepath.Join(w.dir, snapName), snapshotMagic, "snapshot", false, decodeWALRecord, applyTo(s, "snapshot")); err != nil {
		return err
	}
	return replayLog(filepath.Join(w.dir, logName), walMagic, "wal", true, decodeWALRecord, applyTo(s, "wal"))
}

// applyTo replays WAL records into s.
func applyTo(s *Store, what string) func(n int, rec walRecord) error {
	return func(n int, rec walRecord) error {
		if rec.Op == walDecl {
			_, err := s.Declare(Schema{Name: rec.Rel, Peer: rec.Peer, Kind: rec.Kind, Cols: rec.Cols})
			return err
		}
		rel := s.Get(rec.Rel, rec.Peer)
		if rel == nil {
			return fmt.Errorf("store: %w: %s record %d changes undeclared relation %s@%s", errdefs.ErrWAL, what, n, rec.Rel, rec.Peer)
		}
		if len(rec.Args) != rel.Schema().Arity() {
			return fmt.Errorf("store: %w: %s record %d has %d values, %s has arity %d",
				errdefs.ErrWAL, what, n, len(rec.Args), rel.Schema().ID(), rel.Schema().Arity())
		}
		if rec.Op == walIns {
			rel.Insert(rec.Args)
		} else {
			rel.Delete(rec.Args)
		}
		return nil
	}
}

// Close flushes and closes the log file.
func (w *WAL) Close() error {
	w.log.mu.Lock()
	defer w.log.mu.Unlock()
	return w.log.close()
}
