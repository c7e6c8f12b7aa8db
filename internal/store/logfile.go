package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/errdefs"
	"repro/internal/value"
)

// Each file of the log (wal.log, outbox.log) is an 8-byte header — six magic bytes naming the
// file kind and a big-endian format version — and then records, each a
// 4-byte little-endian body length, that length's 4-byte CRC-32C, the body's
// 4-byte CRC-32C and the body. The length has its own checksum so that a
// damaged length is told apart from a torn tail: it cannot be mistaken for a
// record running past the end of the file. A body is a tag byte and the
// tag's fields in the value package's codec (uvarints, length-prefixed
// strings, tuples in Tuple.Encode form), so every value a peer stores — a
// blob holding any bytes, NaN, ±Inf, −0.0 — comes back bit for bit.
//
// A file that does not start with this version's header was written by an
// older version (version 1 wrote outbox.log under a magic of its own and
// kept snapshots in snapshot.log; before it, the logs were JSON lines) or is
// not a log at all: it is refused, never misread.
const (
	walMagic = "WDLWAL\x00\x02"

	headerLen = 8  // magic + version
	recordHdr = 12 // body length + its CRC-32C + the body's CRC-32C

	keepRecord = 16 << 10 // a log keeps its record buffer up to this size for the next record
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// logFile is the append side of the log: records framed into a reused
// buffer and buffered for the next Sync. The owner holds mu around every
// call.
type logFile struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	rec     []byte // the record being framed
	records int    // in the file: recovered or written by a rewrite, then appended
	syncs   uint64 // fsyncs so far
	dirty   bool   // appended since the last sync
	closed  bool
}

// openLogFile opens (creating if needed) the log at path for appending. A
// new file gets its header; so does one holding only a prefix of it (a crash
// while the header was written). Any other content is left for replayLog to
// accept or refuse.
func openLogFile(path string) (*logFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w: opening wal: %w", errdefs.ErrWAL, err)
	}
	head := make([]byte, headerLen)
	n, err := io.ReadFull(f, head)
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		f.Close()
		return nil, fmt.Errorf("store: %w: reading wal header: %w", errdefs.ErrWAL, err)
	}
	if n < headerLen && string(head[:n]) == walMagic[:n] {
		err := f.Truncate(0)
		if err == nil {
			_, err = f.WriteString(walMagic)
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w: writing wal header: %w", errdefs.ErrWAL, err)
		}
	}
	return &logFile{f: f, w: bufio.NewWriter(f)}, nil
}

// record returns the scratch buffer with room for the frame header; the
// caller appends the body and passes the result to write.
func (l *logFile) record() []byte { return append(l.rec[:0], make([]byte, recordHdr)...) }

// write frames and buffers one record built on record().
func (l *logFile) write(rec []byte) error {
	if l.closed {
		return fmt.Errorf("store: %w: wal is closed", errdefs.ErrWAL)
	}
	seal(rec)
	if cap(rec) <= keepRecord {
		l.rec = rec
	}
	if _, err := l.w.Write(rec); err != nil {
		return fmt.Errorf("store: %w: appending wal record: %w", errdefs.ErrWAL, err)
	}
	l.records++
	l.dirty = true
	return nil
}

// seal fills in the frame header reserved at the start of rec.
func seal(rec []byte) []byte {
	body := rec[recordHdr:]
	binary.LittleEndian.PutUint32(rec, uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[:4], castagnoli))
	binary.LittleEndian.PutUint32(rec[8:], crc32.Checksum(body, castagnoli))
	return rec
}

// sync flushes buffered records and fsyncs the file; a no-op when nothing
// was appended since the last sync.
func (l *logFile) sync() error {
	if l.closed {
		return fmt.Errorf("store: %w: wal is closed", errdefs.ErrWAL)
	}
	if !l.dirty {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("store: %w: flushing wal: %w", errdefs.ErrWAL, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: %w: syncing wal: %w", errdefs.ErrWAL, err)
	}
	l.syncs++
	l.dirty = false
	return nil
}

// swap replaces the file being appended to with f, which holds records
// records, dropping whatever is buffered for the old one: the caller has just
// superseded it.
func (l *logFile) swap(f *os.File, records int) {
	l.f.Close()
	l.f = f
	l.w.Reset(f)
	l.records = records
	l.dirty = false
}

func (l *logFile) close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return fmt.Errorf("store: flushing wal on close: %w", err)
	}
	return l.f.Close()
}

// writeLogFile atomically replaces path with a log of the given records:
// written to a temporary file, synced, then renamed over path. It returns
// the new file open for appending.
func writeLogFile(path string, recs func(add func(body []byte) error) error) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	_, err = w.WriteString(walMagic)
	var rec []byte
	if err == nil {
		err = recs(func(body []byte) error {
			rec = seal(append(append(rec[:0], make([]byte, recordHdr)...), body...))
			_, err := w.Write(rec)
			return err
		})
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	return f, nil
}

// replayLog decodes every record of the log at path, in order, hands it to
// apply with its 1-based number, and returns how many it applied. A record
// is applied only once its whole body decoded. A missing file, or one
// holding no more than a prefix of its header, replays nothing; a file that
// starts with anything else is refused with ErrWAL.
//
// A final record that is incomplete — a short header, or a length that
// passes its checksum but runs past the end of the file — or whose body
// fails its checksum is a torn tail (a crash mid-append) and is cut off the
// file, so the next append does not extend the fragment into a corrupt
// record. A length that fails its checksum, or a bad record anywhere else,
// is corruption.
func replayLog(path string, apply func(n int, rec walRecord) error) (int, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w: reading wal: %w", errdefs.ErrWAL, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: %w: reading wal: %w", errdefs.ErrWAL, err)
	}
	size := st.Size()
	r := bufio.NewReader(f)
	head := make([]byte, headerLen)
	if n, _ := io.ReadFull(r, head); n < headerLen && string(head[:n]) == walMagic[:n] {
		return 0, nil
	} else if string(head) != walMagic {
		return 0, fmt.Errorf("store: %w: %s is not a log in this version's format (written by an older version?): "+
			"drain it with the version that wrote it, or remove it", errdefs.ErrWAL, path)
	}
	good := int64(headerLen) // end of the last good record
	var hdr [recordHdr]byte
	var body []byte
	n := 0
	for good < size {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if torn(err) {
				break
			}
			return n, fmt.Errorf("store: %w: reading wal: %w", errdefs.ErrWAL, err)
		}
		if crc32.Checksum(hdr[:4], castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
			return n, fmt.Errorf("store: %w: wal record %d has a damaged length", errdefs.ErrWAL, n+1)
		}
		end := good + recordHdr + int64(binary.LittleEndian.Uint32(hdr[:]))
		if end > size {
			break // torn body: checked before the buffer grows
		}
		body = append(body[:0], make([]byte, end-good-recordHdr)...)
		if _, err := io.ReadFull(r, body); err != nil {
			if torn(err) {
				break
			}
			return n, fmt.Errorf("store: %w: reading wal: %w", errdefs.ErrWAL, err)
		}
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(hdr[8:]) {
			if end == size {
				break // torn final record
			}
			return n, fmt.Errorf("store: %w: wal record %d fails its checksum", errdefs.ErrWAL, n+1)
		}
		rd := value.NewReader(body)
		rec := decodeWALRecord(&rd)
		if rd.Err() != nil || rd.Len() > 0 {
			return n, fmt.Errorf("store: %w: corrupt wal record %d", errdefs.ErrWAL, n+1)
		}
		if err := apply(n+1, rec); err != nil {
			return n, err
		}
		n++
		good = end
	}
	if good < size {
		if err := os.Truncate(path, good); err != nil {
			return n, fmt.Errorf("store: %w: cutting torn wal tail: %w", errdefs.ErrWAL, err)
		}
	}
	return n, nil
}

// torn reports whether a read ran into the end of the file.
func torn(err error) bool { return err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) }
