package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/ast"
	"repro/internal/errdefs"
	"repro/internal/value"
)

// WAL is a peer's one durable log. It holds two kinds of record, in one
// format under one tag byte:
//
//   - the declarations, inserts and deletes of the peer's extensional
//     relations;
//   - the transitions of its delivery state: sequenced messages enqueued for
//     a destination until it acknowledges them, the per-sender watermark of
//     applied incoming messages, the default stream epoch and per-stream
//     resets. A durable peer that crashes with deltas in flight recovers the
//     pending entries and re-sends them, and recovers the watermarks so
//     retransmissions it already applied are deduplicated.
//
// The records are split over two files (fileOf): wal.log takes what a stage
// ingests — the store's records and the applied watermarks — and outbox.log
// what it sends — enqueues, acks, the epoch and resets. Appends are
// buffered, and Sync makes everything appended so far durable: a stage
// appends as it goes and syncs once, at its end. Each file replays on its
// own, so files that a crash cut at different points still recover a state
// the peer went through.
//
// Recover replays the log; Checkpoint rewrites it to the live state once the
// records appended since the last checkpoint outgrow it (CheckpointDue).
// Payloads are opaque bytes (the peer encodes them with protocol's codec),
// keeping this package free of protocol types.
//
// The paper's system keeps peer state in the Bud runtime's persistent
// collections; this is our equivalent storage substrate.
type WAL struct {
	dir  string
	logs [2]*logFile // indexed by updatesFile and outboxFile
	// written is the number of records the last checkpoint wrote; 0 after
	// recovery, when the files' history is unknown.
	written int
}

const (
	logName    = "wal.log"
	outboxName = "outbox.log"
	// checkpointMin is how many records may be appended after a checkpoint
	// before the next is due, however small it was.
	checkpointMin = 8192
)

// The log's files, as indexes of WAL.logs and logNames.
const (
	updatesFile = iota
	outboxFile
)

var logNames = [2]string{logName, outboxName}

// fileOf returns the file a record with tag op is appended to.
func fileOf(op byte) int {
	if op <= walDel || op == walApplied {
		return updatesFile
	}
	return outboxFile
}

// oldLogNames are the files older versions kept beside the log. Recovery
// refuses to start over one: ignoring it would drop the snapshot it holds.
var oldLogNames = []string{"snapshot.log", "snapshot.json"}

// Log record tags.
const (
	walDecl    byte = iota + 1 // Rel, Peer, Kind, Cols
	walIns                     // Rel, Peer, Args
	walDel                     // Rel, Peer, Args
	walEnqueue                 // Peer (the destination), Seq, Payload
	walAck                     // Peer (the destination), Seq
	walApplied                 // Peer (the sender), Epoch, Seq
	walEpoch                   // Epoch
	walReset                   // Peer (the destination), Epoch
)

// walRecord is one log record; the tag says which fields it holds.
type walRecord struct {
	Op      byte
	Rel     string
	Peer    string
	Kind    ast.RelKind
	Cols    []string
	Args    value.Tuple
	Epoch   uint64
	Seq     uint64
	Payload []byte
}

func (rec *walRecord) append(dst []byte) []byte {
	dst = append(dst, rec.Op)
	switch rec.Op {
	case walDecl, walIns, walDel:
		dst = value.AppendString(value.AppendString(dst, rec.Rel), rec.Peer)
		if rec.Op != walDecl {
			return rec.Args.Encode(dst)
		}
		dst = binary.AppendUvarint(append(dst, byte(rec.Kind)), uint64(len(rec.Cols)))
		for _, c := range rec.Cols {
			dst = value.AppendString(dst, c)
		}
		return dst
	case walEpoch:
		return binary.AppendUvarint(dst, rec.Epoch)
	}
	dst = value.AppendString(dst, rec.Peer)
	if rec.Op == walApplied || rec.Op == walReset {
		dst = binary.AppendUvarint(dst, rec.Epoch)
	}
	if rec.Op != walReset {
		dst = binary.AppendUvarint(dst, rec.Seq)
	}
	if rec.Op == walEnqueue {
		dst = append(binary.AppendUvarint(dst, uint64(len(rec.Payload))), rec.Payload...)
	}
	return dst
}

func decodeWALRecord(r *value.Reader) walRecord {
	rec := walRecord{Op: r.Byte()}
	switch rec.Op {
	case walDecl, walIns, walDel:
		rec.Rel, rec.Peer = r.Str(), r.Str()
		if rec.Op != walDecl {
			rec.Args = r.Tuple()
			break
		}
		if rec.Kind = ast.RelKind(r.Byte()); rec.Kind > ast.Intensional {
			r.Fail(value.ErrCorrupt)
		}
		if n := r.Count(1); n > 0 {
			rec.Cols = make([]string, n)
			for i := range rec.Cols {
				rec.Cols[i] = r.Str()
			}
		}
	case walEpoch:
		rec.Epoch = r.Uvarint()
	case walEnqueue, walAck, walApplied, walReset:
		rec.Peer = r.Str()
		if rec.Op == walApplied || rec.Op == walReset {
			rec.Epoch = r.Uvarint()
		}
		if rec.Op != walReset {
			rec.Seq = r.Uvarint()
		}
		if rec.Op == walEnqueue {
			rec.Payload = r.Bytes()
		}
	default:
		r.Fail(value.ErrCorrupt)
	}
	return rec
}

// OutboxEntry is one recovered pending message.
type OutboxEntry struct {
	Seq     uint64
	Payload []byte
}

// AppliedMark is a receiver-side dedup watermark: the highest applied
// sequence within the sender's stream epoch.
type AppliedMark struct {
	Epoch uint64
	Seq   uint64
}

// OutboxState is the live delivery state recovered from the log, and what a
// checkpoint writes back.
type OutboxState struct {
	// Epoch is this peer's default stream epoch (0 if never logged): the
	// epoch every outgoing stream starts in.
	Epoch uint64
	// Epochs maps destinations whose stream was reset to the per-stream
	// epoch that replaced the default (see LogReset).
	Epochs map[string]uint64
	// Pending maps destination to unacknowledged entries in sequence order.
	Pending map[string][]OutboxEntry
	// NextSeq maps destination to the highest sequence number ever assigned.
	NextSeq map[string]uint64
	// Acked maps destination to the highest acknowledged sequence number.
	Acked map[string]uint64
	// Applied maps sender to its applied watermark.
	Applied map[string]AppliedMark
}

// NewOutboxState returns an empty delivery state.
func NewOutboxState() *OutboxState {
	return &OutboxState{
		Epochs:  map[string]uint64{},
		Pending: map[string][]OutboxEntry{},
		NextSeq: map[string]uint64{},
		Acked:   map[string]uint64{},
		Applied: map[string]AppliedMark{},
	}
}

// apply replays one delivery record into st.
func (st *OutboxState) apply(rec walRecord) {
	switch rec.Op {
	case walEnqueue:
		st.Pending[rec.Peer] = append(st.Pending[rec.Peer], OutboxEntry{Seq: rec.Seq, Payload: rec.Payload})
		st.NextSeq[rec.Peer] = max(st.NextSeq[rec.Peer], rec.Seq)
	case walAck:
		st.Acked[rec.Peer] = max(st.Acked[rec.Peer], rec.Seq)
		kept := st.Pending[rec.Peer][:0]
		for _, e := range st.Pending[rec.Peer] {
			if e.Seq > rec.Seq {
				kept = append(kept, e)
			}
		}
		st.Pending[rec.Peer] = kept
	case walApplied:
		if mark := st.Applied[rec.Peer]; rec.Epoch != mark.Epoch || rec.Seq > mark.Seq {
			st.Applied[rec.Peer] = AppliedMark{Epoch: rec.Epoch, Seq: rec.Seq}
		}
	case walEpoch:
		st.Epoch = rec.Epoch
	case walReset:
		st.Epochs[rec.Peer] = rec.Epoch
		delete(st.Pending, rec.Peer)
		st.NextSeq[rec.Peer] = 0
		st.Acked[rec.Peer] = 0
	}
}

// records hands write the records that rebuild st.
func (st *OutboxState) records(write func(walRecord) error) error {
	if st.Epoch != 0 {
		if err := write(walRecord{Op: walEpoch, Epoch: st.Epoch}); err != nil {
			return err
		}
	}
	// Per-stream epochs come before the per-destination records they scope:
	// a reset record clears the destination's recovered state.
	for dst, epoch := range st.Epochs {
		if epoch != 0 && epoch != st.Epoch {
			if err := write(walRecord{Op: walReset, Peer: dst, Epoch: epoch}); err != nil {
				return err
			}
		}
	}
	for dst, acked := range st.Acked {
		if acked > 0 {
			// One payloadless enqueue+ack pair keeps the sequence floor.
			if err := write(walRecord{Op: walEnqueue, Peer: dst, Seq: acked}); err != nil {
				return err
			}
			if err := write(walRecord{Op: walAck, Peer: dst, Seq: acked}); err != nil {
				return err
			}
		}
	}
	for dst, pending := range st.Pending {
		for _, e := range pending {
			if err := write(walRecord{Op: walEnqueue, Peer: dst, Seq: e.Seq, Payload: e.Payload}); err != nil {
				return err
			}
		}
	}
	for from, mark := range st.Applied {
		if err := write(walRecord{Op: walApplied, Peer: from, Epoch: mark.Epoch, Seq: mark.Seq}); err != nil {
			return err
		}
	}
	return nil
}

// OpenWAL opens (creating if needed) the log's files in dir. Failures wrap
// errdefs.ErrWAL so callers can detect them with errors.Is.
func OpenWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w: opening wal dir: %w", errdefs.ErrWAL, err)
	}
	w := &WAL{dir: dir}
	for i, name := range logNames {
		l, err := openLogFile(filepath.Join(dir, name))
		if err != nil {
			if i > 0 {
				w.logs[0].close()
			}
			return nil, err
		}
		w.logs[i] = l
	}
	return w, nil
}

// OpenOutboxLog is OpenWAL: the delivery records, once a log of their own,
// are the log's outbox.log. benchmark/probes.go still calls it.
func OpenOutboxLog(dir string) (*WAL, error) { return OpenWAL(dir) }

// OutboxPath returns the path of the log's outbox.log, for errors about the
// delivery records it holds.
func (w *WAL) OutboxPath() string { return filepath.Join(w.dir, outboxName) }

// lock takes both files' locks, in file order, and returns their release.
func (w *WAL) lock() (unlock func()) {
	for _, l := range w.logs {
		l.mu.Lock()
	}
	return func() {
		for _, l := range w.logs {
			l.mu.Unlock()
		}
	}
}

// Records returns the number of records in the log's files: those recovered
// or written by the last checkpoint, plus those appended since.
func (w *WAL) Records() int {
	defer w.lock()()
	return w.logs[updatesFile].records + w.logs[outboxFile].records
}

// Syncs returns the number of fsyncs of the log's files so far; a sync of a
// file with nothing appended since its last one does not count.
func (w *WAL) Syncs() uint64 {
	defer w.lock()()
	return w.logs[updatesFile].syncs + w.logs[outboxFile].syncs
}

func (w *WAL) append(rec walRecord) error {
	l := w.logs[fileOf(rec.Op)]
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.write(rec.append(l.record()))
}

// LogMany appends one insert (or delete, when del is set) record per tuple
// under a single lock acquisition — the durability half of an atomic batch.
func (w *WAL) LogMany(del bool, rel, peer string, ts []value.Tuple) error {
	rec := walRecord{Op: walIns, Rel: rel, Peer: peer}
	if del {
		rec.Op = walDel
	}
	l := w.logs[updatesFile]
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, t := range ts {
		rec.Args = t
		if err := l.write(rec.append(l.record())); err != nil {
			return err
		}
	}
	return nil
}

// LogDeclare records a relation declaration.
func (w *WAL) LogDeclare(schema Schema) error {
	return w.append(walRecord{Op: walDecl, Rel: schema.Name, Peer: schema.Peer, Kind: schema.Kind, Cols: schema.Cols})
}

// LogEnqueue records a sequenced message committed for dst.
func (w *WAL) LogEnqueue(dst string, seq uint64, payload []byte) error {
	return w.append(walRecord{Op: walEnqueue, Peer: dst, Seq: seq, Payload: payload})
}

// LogAck records dst's cumulative acknowledgment of sequences <= seq.
func (w *WAL) LogAck(dst string, seq uint64) error {
	return w.append(walRecord{Op: walAck, Peer: dst, Seq: seq})
}

// LogApplied records that the incoming message from sender with the given
// stream epoch and sequence number has been applied (the receiver-side
// dedup watermark).
func (w *WAL) LogApplied(from string, epoch, seq uint64) error {
	return w.append(walRecord{Op: walApplied, Peer: from, Epoch: epoch, Seq: seq})
}

// LogEpoch records this peer's default stream epoch, once, so it stays
// stable across restarts.
func (w *WAL) LogEpoch(epoch uint64) error {
	return w.append(walRecord{Op: walEpoch, Epoch: epoch})
}

// LogReset records that the stream to dst was torn down and restarted under
// a fresh per-stream epoch: everything previously logged for dst (pending
// entries, its ack floor) is superseded. The caller re-logs the entries
// that survived the reset, renumbered, after this record.
func (w *WAL) LogReset(dst string, epoch uint64) error {
	return w.append(walRecord{Op: walReset, Peer: dst, Epoch: epoch})
}

// Sync flushes buffered records and fsyncs each of the log's files that
// something was appended to since its last sync; a no-op on a clean log,
// so callers can invoke it liberally.
func (w *WAL) Sync() error {
	var errs [2]error
	for i, l := range w.logs {
		l.mu.Lock()
		errs[i] = l.sync()
		l.mu.Unlock()
	}
	return errors.Join(errs[:]...)
}

// CheckpointDue reports whether the records appended since the last
// checkpoint exceed max(checkpointMin, the records that checkpoint wrote) —
// so the files never hold more than twice the live state plus
// checkpointMin records. After recovery every record in them counts as
// appended.
func (w *WAL) CheckpointDue() bool {
	defer w.lock()()
	records := w.logs[updatesFile].records + w.logs[outboxFile].records
	return records-w.written > max(checkpointMin, w.written)
}

// Checkpoint atomically rewrites each of the log's files to the live state:
// wal.log to a declaration per extensional relation of peer in s, an insert
// per tuple and the applied watermarks of st; outbox.log to the rest of st.
// The caller excludes every other append until it returns: a record that
// reached a superseded file would be lost with it. A crash between the two
// rewrites leaves one file rewritten and the other whole, which recovers
// the same state.
func (w *WAL) Checkpoint(s *Store, peer string, st *OutboxState) error {
	defer w.lock()()
	if w.logs[updatesFile].closed {
		return fmt.Errorf("store: %w: wal is closed", errdefs.ErrWAL)
	}
	w.written = 0
	for file, l := range w.logs {
		n := 0
		f, err := writeLogFile(filepath.Join(w.dir, logNames[file]), func(add func([]byte) error) error {
			var body []byte
			write := func(rec walRecord) error {
				if fileOf(rec.Op) != file {
					return nil
				}
				body = rec.append(body[:0])
				n++
				return add(body)
			}
			for _, r := range s.RelationsOf(peer) {
				if file != updatesFile || r.Kind() != ast.Extensional {
					continue
				}
				sch := r.Schema()
				if err := write(walRecord{Op: walDecl, Rel: sch.Name, Peer: sch.Peer, Kind: sch.Kind, Cols: sch.Cols}); err != nil {
					return err
				}
				for _, t := range r.Tuples() {
					if err := write(walRecord{Op: walIns, Rel: sch.Name, Peer: sch.Peer, Args: t}); err != nil {
						return err
					}
				}
			}
			return st.records(write)
		})
		if f != nil {
			l.swap(f, n)
			w.written += n
		}
		if err != nil {
			return fmt.Errorf("store: %w: writing checkpoint of %s: %w", errdefs.ErrWAL, logNames[file], err)
		}
	}
	return nil
}

// Recover replays the log into s and returns the delivery state it holds.
// It is meant to be called once, on an empty or freshly-created store,
// before any new records are appended. A torn final record (a crash
// mid-append) is tolerated and cut off its file. A record whose tuple does
// not fit its relation's arity fails recovery with an error wrapping
// errdefs.ErrWAL, and so does a file not in this version's format or a
// file of an older version beside the log.
func (w *WAL) Recover(s *Store) (*OutboxState, error) {
	for _, name := range oldLogNames {
		path := filepath.Join(w.dir, name)
		if _, err := os.Stat(path); err == nil {
			return nil, fmt.Errorf("store: %w: %s is a log written by an older version, which kept more than %s and %s: "+
				"drain it with the version that wrote it, or remove it", errdefs.ErrWAL, path, logName, outboxName)
		}
	}
	st := NewOutboxState()
	for file, l := range w.logs {
		n, err := replayLog(filepath.Join(w.dir, logNames[file]), func(n int, rec walRecord) error {
			if rec.Op > walDel {
				st.apply(rec)
				return nil
			}
			if rec.Op == walDecl {
				_, err := s.Declare(Schema{Name: rec.Rel, Peer: rec.Peer, Kind: rec.Kind, Cols: rec.Cols})
				return err
			}
			rel := s.Get(rec.Rel, rec.Peer)
			if rel == nil {
				return fmt.Errorf("store: %w: wal record %d changes undeclared relation %s@%s", errdefs.ErrWAL, n, rec.Rel, rec.Peer)
			}
			if len(rec.Args) != rel.Schema().Arity() {
				return fmt.Errorf("store: %w: wal record %d has %d values, %s has arity %d",
					errdefs.ErrWAL, n, len(rec.Args), rel.ID(), rel.Schema().Arity())
			}
			if rec.Op == walIns {
				rel.Insert(rec.Args)
			} else {
				rel.Delete(rec.Args)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		l.records += n
		l.mu.Unlock()
	}
	for dst, pending := range st.Pending {
		if len(pending) == 0 {
			delete(st.Pending, dst)
		}
	}
	return st, nil
}

// Close syncs and closes the log's files.
func (w *WAL) Close() error {
	defer w.lock()()
	return errors.Join(w.logs[updatesFile].close(), w.logs[outboxFile].close())
}
