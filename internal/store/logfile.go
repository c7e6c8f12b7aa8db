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

// Log files. The WAL (wal.log), its snapshot (snapshot.log) and the outbox
// log (outbox.log) share one layout: an 8-byte header — six magic bytes
// naming the file kind and a big-endian format version — and then records,
// each a 4-byte little-endian body length, that length's 4-byte CRC-32C, the
// body's 4-byte CRC-32C and the body. The length has its own checksum so
// that a damaged length is told apart from a torn tail: it cannot be
// mistaken for a record running past the end of the file. A body is an op
// byte and the op's fields in the value package's codec (uvarints,
// length-prefixed strings, tuples in Tuple.Encode form), so every value a
// peer stores — a blob holding any bytes, NaN, ±Inf, −0.0 — comes back bit
// for bit.
//
// A file that does not start with its header was written by an older
// version (the JSON-lines logs) or is not a log at all: it is refused, never
// misread.
const (
	walMagic      = "WDLWAL\x00\x01"
	snapshotMagic = "WDLSNP\x00\x01"
	outboxMagic   = "WDLOBX\x00\x01"

	headerLen = 8  // magic + version
	recordHdr = 12 // body length + its CRC-32C + the body's CRC-32C

	keepRecord = 16 << 10 // a log keeps its record buffer up to this size for the next record
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// logFile is the append side of a log: records framed into a reused buffer
// and buffered for the next Sync. The owner holds mu around every call.
type logFile struct {
	mu      sync.Mutex
	what    string // "wal", "outbox log": for errors
	f       *os.File
	w       *bufio.Writer
	rec     []byte // the record being framed
	records int    // appended since open or the last rewrite
	dirty   bool   // appended since the last sync
	closed  bool
}

// openLogFile opens (creating if needed) the log at path for appending. A
// new file gets its header; so does one holding only a prefix of it (a crash
// while the header was written). Any other content is left for replayLog to
// accept or refuse.
func openLogFile(path, magic, what string) (*logFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w: opening %s: %w", errdefs.ErrWAL, what, err)
	}
	head := make([]byte, headerLen)
	n, err := io.ReadFull(f, head)
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		f.Close()
		return nil, fmt.Errorf("store: %w: reading %s header: %w", errdefs.ErrWAL, what, err)
	}
	if n < headerLen && string(head[:n]) == magic[:n] {
		if err := writeHeader(f, magic); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w: writing %s header: %w", errdefs.ErrWAL, what, err)
		}
	}
	return &logFile{what: what, f: f, w: bufio.NewWriter(f)}, nil
}

// writeHeader empties f and writes the header.
func writeHeader(f *os.File, magic string) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	_, err := f.WriteString(magic)
	return err
}

// record returns the scratch buffer with room for the frame header; the
// caller appends the body and passes the result to write.
func (l *logFile) record() []byte { return append(l.rec[:0], make([]byte, recordHdr)...) }

// write frames and buffers one record built on record().
func (l *logFile) write(rec []byte) error {
	if l.closed {
		return fmt.Errorf("store: %w: %s is closed", errdefs.ErrWAL, l.what)
	}
	seal(rec)
	if cap(rec) <= keepRecord {
		l.rec = rec
	}
	if _, err := l.w.Write(rec); err != nil {
		return fmt.Errorf("store: %w: appending %s record: %w", errdefs.ErrWAL, l.what, err)
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
		return fmt.Errorf("store: %w: %s is closed", errdefs.ErrWAL, l.what)
	}
	if !l.dirty {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("store: %w: flushing %s: %w", errdefs.ErrWAL, l.what, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: %w: syncing %s: %w", errdefs.ErrWAL, l.what, err)
	}
	l.dirty = false
	return nil
}

// swap replaces the file being appended to, dropping whatever is buffered
// for the old one: the caller has just superseded it.
func (l *logFile) swap(f *os.File) {
	l.f.Close()
	l.f = f
	l.w.Reset(f)
	l.records = 0
	l.dirty = false
}

func (l *logFile) close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return fmt.Errorf("store: flushing %s on close: %w", l.what, err)
	}
	return l.f.Close()
}

// writeLogFile atomically replaces path with a log of the given records:
// written to a temporary file, synced, then renamed over path. It returns
// the new file open for appending.
func writeLogFile(path, magic string, recs func(add func(body []byte) error) error) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	_, err = w.WriteString(magic)
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

// replayLog decodes every record of the log at path, in order, and hands
// it to apply with its 1-based number. A record is applied only once its
// whole body decoded. A missing file, or one holding no more than a prefix
// of its header, replays nothing; a file that starts with anything else is
// refused with ErrWAL.
//
// With cut set (an append-only log), a final record that is incomplete — a
// short header, or a length that passes its checksum but runs past the end
// of the file — or whose body fails its checksum is a torn tail (a crash
// mid-append) and is cut off the file, so the next append does not extend
// the fragment into a corrupt record. A length that fails its checksum, a
// bad record anywhere else, or any bad record in a file that is only ever
// replaced whole (cut unset: a snapshot) is corruption.
func replayLog[R any](path, magic, what string, cut bool, decode func(*value.Reader) R, apply func(n int, rec R) error) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w: reading %s: %w", errdefs.ErrWAL, what, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w: reading %s: %w", errdefs.ErrWAL, what, err)
	}
	size := st.Size()
	r := bufio.NewReader(f)
	head := make([]byte, headerLen)
	if n, _ := io.ReadFull(r, head); n < headerLen && string(head[:n]) == magic[:n] {
		return nil
	} else if string(head) != magic {
		return fmt.Errorf("store: %w: %s is not a %s in this version's format (written by an older version?): "+
			"drain it with the version that wrote it, or remove it", errdefs.ErrWAL, path, what)
	}
	good := int64(headerLen) // end of the last good record
	var hdr [recordHdr]byte
	var body []byte
	for n := 1; good < size; n++ {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if torn(err) {
				break
			}
			return fmt.Errorf("store: %w: reading %s: %w", errdefs.ErrWAL, what, err)
		}
		if crc32.Checksum(hdr[:4], castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
			return fmt.Errorf("store: %w: %s record %d has a damaged length", errdefs.ErrWAL, what, n)
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
			return fmt.Errorf("store: %w: reading %s: %w", errdefs.ErrWAL, what, err)
		}
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(hdr[8:]) {
			if end == size {
				break // torn final record
			}
			return fmt.Errorf("store: %w: %s record %d fails its checksum", errdefs.ErrWAL, what, n)
		}
		rd := value.NewReader(body)
		rec := decode(&rd)
		if rd.Err() != nil || rd.Len() > 0 {
			return fmt.Errorf("store: %w: corrupt %s record %d", errdefs.ErrWAL, what, n)
		}
		if err := apply(n, rec); err != nil {
			return err
		}
		good = end
	}
	if good < size {
		if !cut {
			return fmt.Errorf("store: %w: %s ends in an incomplete or damaged record", errdefs.ErrWAL, what)
		}
		if err := os.Truncate(path, good); err != nil {
			return fmt.Errorf("store: %w: cutting torn %s tail: %w", errdefs.ErrWAL, what, err)
		}
	}
	return nil
}

// torn reports whether a read ran into the end of the file.
func torn(err error) bool { return err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) }
