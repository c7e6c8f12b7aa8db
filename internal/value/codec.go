package value

import (
	"encoding/binary"
	"strings"
)

// The primitives below are what the wire protocol's frames and the store's
// log records are made of: uvarint counts, lengths and sequence numbers
// (binary.AppendUvarint), 8-byte little-endian hashes, length-prefixed
// strings, and tuples in Tuple.Encode form. Reader decodes them.

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Encode appends the tuple's encoding to dst: its arity as a uvarint, then
// every value in Value.Encode form.
func (t Tuple) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = v.Encode(dst)
	}
	return dst
}

// DecodeTuple reads one tuple in Tuple.Encode form from b, returning the
// tuple and the remaining bytes.
func DecodeTuple(b []byte) (Tuple, []byte, error) {
	r := NewReader(b)
	t := r.Tuple()
	if r.err != nil {
		return nil, nil, r.err
	}
	return t, r.b, nil
}

// Reader decodes the primitives above from a byte slice. The first malformed
// read records a sticky error and empties the reader, after which every read
// returns a zero value: a caller decodes a whole record and checks Err once.
// Every count and length is checked against the bytes left before anything
// is allocated, and only the canonical form is accepted (minimal uvarints,
// bools 0 or 1), so whatever decodes re-encodes to the same bytes. Decoded
// strings never alias the input.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Fail records err (if no error is recorded yet) and drops the unread bytes.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) < 1 {
		r.Fail(ErrCorrupt)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	c := r.Byte()
	if c > 1 {
		r.Fail(ErrCorrupt)
	}
	return c == 1
}

// Uint64 reads 8 little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if len(r.b) < 8 {
		r.Fail(ErrCorrupt)
		return 0
	}
	x := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return x
}

// Uvarint reads a minimally encoded uvarint.
func (r *Reader) Uvarint() uint64 {
	var x uint64
	for i, c := range r.b {
		if i == binary.MaxVarintLen64 || (i == binary.MaxVarintLen64-1 && c > 1) {
			break // overflows 64 bits
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if c == 0 && i > 0 {
				break // a trailing zero byte: not minimal
			}
			r.b = r.b[i+1:]
			return x
		}
	}
	r.Fail(ErrCorrupt)
	return 0
}

// Count reads a uvarint count of items that take at least min bytes each,
// failing unless that many could fit in what is left.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/min) {
		r.Fail(ErrCorrupt)
		return 0
	}
	return int(n)
}

// Raw reads a uvarint length and returns that many bytes, aliasing the
// input; the caller copies what it keeps.
func (r *Reader) Raw() []byte {
	n := r.Count(1)
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

// Str reads a string written by AppendString.
func (r *Reader) Str() string { return string(r.Raw()) }

// Bytes reads a byte string written by AppendString into a fresh slice,
// nil when it is empty.
func (r *Reader) Bytes() []byte {
	if b := r.Raw(); len(b) > 0 {
		return append([]byte(nil), b...)
	}
	return nil
}

// Value reads one value in Value.Encode form.
func (r *Reader) Value() Value {
	k, size, n, ok := extent(r.b)
	if !ok {
		r.Fail(ErrCorrupt)
		return Value{}
	}
	v := decodeAt(r.b, k, string(r.b[size-n:size]))
	r.b = r.b[size:]
	return v
}

// minValueSize is the smallest encoded value (a bool).
const minValueSize = 2

// Tuple reads a tuple in Tuple.Encode form. The whole tuple is checked before
// anything is allocated; then the string payloads of all its values are
// copied into one allocation the values slice into, so a decoded tuple costs
// two allocations (that one and the slice) and pins nothing but itself.
func (r *Reader) Tuple() Tuple {
	n := r.Count(minValueSize)
	if n == 0 {
		return nil
	}
	total, p := 0, r.b
	for i := 0; i < n; i++ {
		_, size, sn, ok := extent(p)
		if !ok {
			r.Fail(ErrCorrupt)
			return nil
		}
		total += sn
		p = p[size:]
	}
	var sb strings.Builder
	sb.Grow(total)
	p = r.b
	for i := 0; i < n; i++ {
		_, size, sn, _ := extent(p)
		sb.Write(p[size-sn : size])
		p = p[size:]
	}
	all, off := sb.String(), 0
	t := make(Tuple, n)
	for i := range t {
		k, size, sn, _ := extent(r.b)
		t[i] = decodeAt(r.b, k, all[off:off+sn])
		off += sn
		r.b = r.b[size:]
	}
	return t
}
