package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/errdefs"
)

// OutboxLog persists a peer's delivery state alongside its WAL: outgoing
// sequenced messages until their destination acknowledges them, and the
// per-sender watermark of applied incoming messages. A durable peer that
// crashes with deltas in flight recovers the pending entries and re-sends
// them, and recovers the watermark so retransmissions that were already
// applied before the crash are deduplicated — at-least-once delivery across
// restarts, with replays suppressed.
//
// The log lives in its own append-only file (outbox.log) in the WAL
// directory, with its own compaction: acknowledged entries make the log
// garbage-heavy over time, so Compact rewrites it to just the live state.
// Payloads are opaque bytes (the peer encodes them with protocol's codec),
// keeping this package free of protocol types.
type OutboxLog struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	records int  // appended since open/compaction
	dirty   bool // appended since the last Sync
	closed  bool
}

const outboxLogName = "outbox.log"

// outboxRecord is one log line.
type outboxRecord struct {
	Op      string `json:"op"` // "enq", "ack", "app", "epoch", "reset"
	Peer    string `json:"peer,omitempty"`
	Epoch   uint64 `json:"epoch,omitempty"`
	Seq     uint64 `json:"seq"`
	Payload []byte `json:"payload,omitempty"`
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

// OutboxState is the live delivery state recovered from the log.
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

// OpenOutboxLog opens (creating if needed) the outbox log in dir. Failures
// wrap errdefs.ErrWAL, like the WAL proper.
func OpenOutboxLog(dir string) (*OutboxLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w: opening outbox log dir: %w", errdefs.ErrWAL, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, outboxLogName), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w: opening outbox log: %w", errdefs.ErrWAL, err)
	}
	return &OutboxLog{dir: dir, f: f, w: bufio.NewWriter(f)}, nil
}

// Records returns the number of records appended since open or the last
// compaction — the peer's cue to compact.
func (l *OutboxLog) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

func (l *OutboxLog) append(rec outboxRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("store: %w: outbox log is closed", errdefs.ErrWAL)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: %w: encoding outbox record: %w", errdefs.ErrWAL, err)
	}
	if _, err := l.w.Write(b); err != nil {
		return fmt.Errorf("store: %w: appending outbox record: %w", errdefs.ErrWAL, err)
	}
	if err := l.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("store: %w: appending outbox record: %w", errdefs.ErrWAL, err)
	}
	l.records++
	l.dirty = true
	return nil
}

// LogEnqueue records a sequenced message committed for dst.
func (l *OutboxLog) LogEnqueue(dst string, seq uint64, payload []byte) error {
	return l.append(outboxRecord{Op: "enq", Peer: dst, Seq: seq, Payload: payload})
}

// LogAck records dst's cumulative acknowledgment of sequences <= seq.
func (l *OutboxLog) LogAck(dst string, seq uint64) error {
	return l.append(outboxRecord{Op: "ack", Peer: dst, Seq: seq})
}

// LogApplied records that the incoming message from sender with the given
// stream epoch and sequence number has been applied (the receiver-side
// dedup watermark).
func (l *OutboxLog) LogApplied(from string, epoch, seq uint64) error {
	return l.append(outboxRecord{Op: "app", Peer: from, Epoch: epoch, Seq: seq})
}

// LogEpoch records this peer's default stream epoch, once, so it stays
// stable across restarts.
func (l *OutboxLog) LogEpoch(epoch uint64) error {
	return l.append(outboxRecord{Op: "epoch", Epoch: epoch})
}

// LogReset records that the stream to dst was torn down and restarted under
// a fresh per-stream epoch: everything previously logged for dst (pending
// entries, its ack floor) is superseded. The caller re-logs the entries
// that survived the reset, renumbered, after this record.
func (l *OutboxLog) LogReset(dst string, epoch uint64) error {
	return l.append(outboxRecord{Op: "reset", Peer: dst, Epoch: epoch})
}

// Sync flushes buffered records and fsyncs the log file. A no-op when
// nothing was appended since the last Sync, so callers can invoke it
// liberally (the outbox flushers do, before every transmit cycle).
func (l *OutboxLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("store: %w: outbox log is closed", errdefs.ErrWAL)
	}
	if !l.dirty {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("store: %w: flushing outbox log: %w", errdefs.ErrWAL, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: %w: syncing outbox log: %w", errdefs.ErrWAL, err)
	}
	l.dirty = false
	return nil
}

// Recover replays the log into its live state. Meant to be called once,
// right after OpenOutboxLog, before new records are appended. A torn final
// record (crash mid-append) is tolerated and cut off the file; corruption
// elsewhere is an error.
func (l *OutboxLog) Recover() (*OutboxState, error) {
	st := &OutboxState{
		Epochs:  map[string]uint64{},
		Pending: map[string][]OutboxEntry{},
		NextSeq: map[string]uint64{},
		Acked:   map[string]uint64{},
		Applied: map[string]AppliedMark{},
	}
	err := replayLog(filepath.Join(l.dir, outboxLogName), "outbox", func(line int, rec *outboxRecord) error {
		switch rec.Op {
		case "enq":
			st.Pending[rec.Peer] = append(st.Pending[rec.Peer], OutboxEntry{Seq: rec.Seq, Payload: rec.Payload})
			if rec.Seq > st.NextSeq[rec.Peer] {
				st.NextSeq[rec.Peer] = rec.Seq
			}
		case "ack":
			if rec.Seq > st.Acked[rec.Peer] {
				st.Acked[rec.Peer] = rec.Seq
			}
			kept := st.Pending[rec.Peer][:0]
			for _, e := range st.Pending[rec.Peer] {
				if e.Seq > rec.Seq {
					kept = append(kept, e)
				}
			}
			st.Pending[rec.Peer] = kept
		case "app":
			mark := st.Applied[rec.Peer]
			if rec.Epoch != mark.Epoch || rec.Seq > mark.Seq {
				st.Applied[rec.Peer] = AppliedMark{Epoch: rec.Epoch, Seq: rec.Seq}
			}
		case "epoch":
			st.Epoch = rec.Epoch
		case "reset":
			st.Epochs[rec.Peer] = rec.Epoch
			delete(st.Pending, rec.Peer)
			st.NextSeq[rec.Peer] = 0
			st.Acked[rec.Peer] = 0
		default:
			return fmt.Errorf("store: %w: unknown outbox op %q at line %d", errdefs.ErrWAL, rec.Op, line)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for dst, pending := range st.Pending {
		if len(pending) == 0 {
			delete(st.Pending, dst)
		}
	}
	return st, nil
}

// Compact atomically rewrites the log to contain exactly the given live
// state, discarding acknowledged history.
func (l *OutboxLog) Compact(st *OutboxState) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("store: %w: outbox log is closed", errdefs.ErrWAL)
	}
	tmp := filepath.Join(l.dir, outboxLogName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w: compacting outbox log: %w", errdefs.ErrWAL, err)
	}
	w := bufio.NewWriter(f)
	write := func(rec outboxRecord) error {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		return w.WriteByte('\n')
	}
	var werr error
	if st.Epoch != 0 {
		if err := write(outboxRecord{Op: "epoch", Epoch: st.Epoch}); err != nil {
			werr = err
		}
	}
	// Per-stream epochs (streams reset away from the default) come before
	// the per-destination records they scope — a reset record clears the
	// destination's recovered state, so nothing may precede it.
	for dst, epoch := range st.Epochs {
		if epoch != 0 && epoch != st.Epoch {
			if err := write(outboxRecord{Op: "reset", Peer: dst, Epoch: epoch}); err != nil {
				werr = err
			}
		}
	}
	for dst, acked := range st.Acked {
		if acked > 0 {
			// One synthetic enqueue+ack pair preserves the sequence floor.
			if err := write(outboxRecord{Op: "enq", Peer: dst, Seq: acked}); err != nil {
				werr = err
			}
			if err := write(outboxRecord{Op: "ack", Peer: dst, Seq: acked}); err != nil {
				werr = err
			}
		}
	}
	for dst, pending := range st.Pending {
		for _, e := range pending {
			if err := write(outboxRecord{Op: "enq", Peer: dst, Seq: e.Seq, Payload: e.Payload}); err != nil {
				werr = err
			}
		}
	}
	for from, mark := range st.Applied {
		if err := write(outboxRecord{Op: "app", Peer: from, Epoch: mark.Epoch, Seq: mark.Seq}); err != nil {
			werr = err
		}
	}
	if werr == nil {
		werr = w.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	if err := f.Close(); werr == nil {
		werr = err
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w: compacting outbox log: %w", errdefs.ErrWAL, werr)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, outboxLogName)); err != nil {
		return fmt.Errorf("store: %w: installing compacted outbox log: %w", errdefs.ErrWAL, err)
	}
	// Swap the append handle onto the compacted file. Records still
	// buffered for the old inode are superseded by the snapshot just
	// written (the caller excludes concurrent appenders), so the buffer is
	// simply discarded with it.
	l.f.Close()
	nf, err := os.OpenFile(filepath.Join(l.dir, outboxLogName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		l.closed = true
		return fmt.Errorf("store: %w: reopening outbox log: %w", errdefs.ErrWAL, err)
	}
	l.f = nf
	l.w = bufio.NewWriter(nf)
	l.records = 0
	l.dirty = false
	return nil
}

// Close flushes and closes the log file.
func (l *OutboxLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return fmt.Errorf("store: flushing outbox log on close: %w", err)
	}
	return l.f.Close()
}
