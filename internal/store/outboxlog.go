package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/errdefs"
	"repro/internal/value"
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
// directory, in the record format of logfile.go, with its own compaction:
// acknowledged entries make the log garbage-heavy over time, so Compact
// rewrites it to just the live state. Payloads are opaque bytes (the peer
// encodes them with protocol's codec), keeping this package free of
// protocol types.
type OutboxLog struct {
	dir string
	log *logFile
}

const outboxLogName = "outbox.log"

// Outbox log record ops.
const (
	obEnqueue byte = iota + 1 // Peer, Seq, Payload
	obAck                     // Peer, Seq
	obApplied                 // Peer, Epoch, Seq
	obEpoch                   // Epoch
	obReset                   // Peer, Epoch
)

// outboxRecord is one log record: every field is written, the op says which
// ones mean something.
type outboxRecord struct {
	Op      byte
	Peer    string
	Epoch   uint64
	Seq     uint64
	Payload []byte
}

func (rec *outboxRecord) append(dst []byte) []byte {
	dst = value.AppendString(append(dst, rec.Op), rec.Peer)
	dst = binary.AppendUvarint(dst, rec.Epoch)
	dst = binary.AppendUvarint(dst, rec.Seq)
	return append(binary.AppendUvarint(dst, uint64(len(rec.Payload))), rec.Payload...)
}

func decodeOutboxRecord(r *value.Reader) outboxRecord {
	rec := outboxRecord{Op: r.Byte(), Peer: r.Str(), Epoch: r.Uvarint(), Seq: r.Uvarint(), Payload: r.Bytes()}
	if rec.Op < obEnqueue || rec.Op > obReset {
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
	l, err := openLogFile(filepath.Join(dir, outboxLogName), outboxMagic, "outbox log")
	if err != nil {
		return nil, err
	}
	return &OutboxLog{dir: dir, log: l}, nil
}

// Records returns the number of records appended since open or the last
// compaction — the peer's cue to compact.
func (l *OutboxLog) Records() int {
	l.log.mu.Lock()
	defer l.log.mu.Unlock()
	return l.log.records
}

func (l *OutboxLog) append(rec outboxRecord) error {
	l.log.mu.Lock()
	defer l.log.mu.Unlock()
	return l.log.write(rec.append(l.log.record()))
}

// LogEnqueue records a sequenced message committed for dst.
func (l *OutboxLog) LogEnqueue(dst string, seq uint64, payload []byte) error {
	return l.append(outboxRecord{Op: obEnqueue, Peer: dst, Seq: seq, Payload: payload})
}

// LogAck records dst's cumulative acknowledgment of sequences <= seq.
func (l *OutboxLog) LogAck(dst string, seq uint64) error {
	return l.append(outboxRecord{Op: obAck, Peer: dst, Seq: seq})
}

// LogApplied records that the incoming message from sender with the given
// stream epoch and sequence number has been applied (the receiver-side
// dedup watermark).
func (l *OutboxLog) LogApplied(from string, epoch, seq uint64) error {
	return l.append(outboxRecord{Op: obApplied, Peer: from, Epoch: epoch, Seq: seq})
}

// LogEpoch records this peer's default stream epoch, once, so it stays
// stable across restarts.
func (l *OutboxLog) LogEpoch(epoch uint64) error {
	return l.append(outboxRecord{Op: obEpoch, Epoch: epoch})
}

// LogReset records that the stream to dst was torn down and restarted under
// a fresh per-stream epoch: everything previously logged for dst (pending
// entries, its ack floor) is superseded. The caller re-logs the entries
// that survived the reset, renumbered, after this record.
func (l *OutboxLog) LogReset(dst string, epoch uint64) error {
	return l.append(outboxRecord{Op: obReset, Peer: dst, Epoch: epoch})
}

// Sync flushes buffered records and fsyncs the log file. A no-op when
// nothing was appended since the last Sync, so callers can invoke it
// liberally (the outbox flushers do, before every transmit cycle).
func (l *OutboxLog) Sync() error {
	l.log.mu.Lock()
	defer l.log.mu.Unlock()
	return l.log.sync()
}

// Recover replays the log into its live state. Meant to be called once,
// right after OpenOutboxLog, before new records are appended. A torn final
// record (crash mid-append) is tolerated and cut off the file; corruption
// elsewhere is an error, and so is a log not in this version's format.
func (l *OutboxLog) Recover() (*OutboxState, error) {
	st := &OutboxState{
		Epochs:  map[string]uint64{},
		Pending: map[string][]OutboxEntry{},
		NextSeq: map[string]uint64{},
		Acked:   map[string]uint64{},
		Applied: map[string]AppliedMark{},
	}
	err := replayLog(filepath.Join(l.dir, outboxLogName), outboxMagic, "outbox log", true, decodeOutboxRecord, func(_ int, rec outboxRecord) error {
		switch rec.Op {
		case obEnqueue:
			st.Pending[rec.Peer] = append(st.Pending[rec.Peer], OutboxEntry{Seq: rec.Seq, Payload: rec.Payload})
			if rec.Seq > st.NextSeq[rec.Peer] {
				st.NextSeq[rec.Peer] = rec.Seq
			}
		case obAck:
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
		case obApplied:
			mark := st.Applied[rec.Peer]
			if rec.Epoch != mark.Epoch || rec.Seq > mark.Seq {
				st.Applied[rec.Peer] = AppliedMark{Epoch: rec.Epoch, Seq: rec.Seq}
			}
		case obEpoch:
			st.Epoch = rec.Epoch
		case obReset:
			st.Epochs[rec.Peer] = rec.Epoch
			delete(st.Pending, rec.Peer)
			st.NextSeq[rec.Peer] = 0
			st.Acked[rec.Peer] = 0
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
	l.log.mu.Lock()
	defer l.log.mu.Unlock()
	if l.log.closed {
		return fmt.Errorf("store: %w: outbox log is closed", errdefs.ErrWAL)
	}
	f, err := writeLogFile(filepath.Join(l.dir, outboxLogName), outboxMagic, func(add func([]byte) error) error {
		var body []byte
		write := func(rec outboxRecord) error {
			body = rec.append(body[:0])
			return add(body)
		}
		if st.Epoch != 0 {
			if err := write(outboxRecord{Op: obEpoch, Epoch: st.Epoch}); err != nil {
				return err
			}
		}
		// Per-stream epochs (streams reset away from the default) come before
		// the per-destination records they scope — a reset record clears the
		// destination's recovered state, so nothing may precede it.
		for dst, epoch := range st.Epochs {
			if epoch != 0 && epoch != st.Epoch {
				if err := write(outboxRecord{Op: obReset, Peer: dst, Epoch: epoch}); err != nil {
					return err
				}
			}
		}
		for dst, acked := range st.Acked {
			if acked > 0 {
				// One synthetic enqueue+ack pair preserves the sequence floor.
				if err := write(outboxRecord{Op: obEnqueue, Peer: dst, Seq: acked}); err != nil {
					return err
				}
				if err := write(outboxRecord{Op: obAck, Peer: dst, Seq: acked}); err != nil {
					return err
				}
			}
		}
		for dst, pending := range st.Pending {
			for _, e := range pending {
				if err := write(outboxRecord{Op: obEnqueue, Peer: dst, Seq: e.Seq, Payload: e.Payload}); err != nil {
					return err
				}
			}
		}
		for from, mark := range st.Applied {
			if err := write(outboxRecord{Op: obApplied, Peer: from, Epoch: mark.Epoch, Seq: mark.Seq}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: %w: compacting outbox log: %w", errdefs.ErrWAL, err)
	}
	// Append to the compacted file from now on. Records still buffered for
	// the old inode are superseded by the state just written (the caller
	// excludes concurrent appenders), so the buffer is dropped with it.
	l.log.swap(f)
	return nil
}

// Close flushes and closes the log file.
func (l *OutboxLog) Close() error {
	l.log.mu.Lock()
	defer l.log.mu.Unlock()
	return l.log.close()
}
