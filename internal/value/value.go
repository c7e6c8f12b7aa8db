// Package value defines the typed data values that WebdamLog facts carry,
// and tuples (ordered sequences of values) as stored in relations.
//
// Values are small immutable scalars: strings, 64-bit integers, 64-bit
// floats, booleans and binary blobs (used for picture payloads in the Wepic
// application). The package provides total ordering, hashing, and the
// compact binary codec (codec.go) that the wire protocol's frames and the
// store's log records are built from.
package value

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The possible kinds of a Value.
const (
	KindString Kind = iota
	KindInt
	KindFloat
	KindBool
	KindBlob
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindBlob:
		return "blob"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single immutable WebdamLog data value. The zero Value is the
// empty string. Construct values with Str, Int, Float, Bool and Blob and read
// them with the accessors; they travel and persist in their Encode form. A
// value is 32 bytes: the string payload of strings and blobs, or the 64 bits
// of an int, a float or a bool, and the kind.
type Value struct {
	s string // KindString and KindBlob payload
	n uint64 // int64 bits, float64 bits, or 0/1 for a bool
	k Kind
}

// Str returns a string value.
func Str(s string) Value { return Value{k: KindString, s: s} }

// Int returns an integer value.
func Int(i int64) Value { return Value{k: KindInt, n: uint64(i)} }

// Float returns a float value. Its bits are kept as they are: NaN payloads
// and −0.0 survive every copy and encoding.
func Float(f float64) Value { return Value{k: KindFloat, n: math.Float64bits(f)} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{k: KindBool, n: 1}
	}
	return Value{k: KindBool}
}

// Blob returns a binary value. The bytes are copied.
func Blob(b []byte) Value { return Value{k: KindBlob, s: string(b)} }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.k }

// StringVal returns the string payload (valid for KindString).
func (v Value) StringVal() string { return v.s }

// IntVal returns the integer payload (valid for KindInt).
func (v Value) IntVal() int64 { return int64(v.n) }

// FloatVal returns the float payload (valid for KindFloat).
func (v Value) FloatVal() float64 { return math.Float64frombits(v.n) }

// BoolVal returns the boolean payload (valid for KindBool).
func (v Value) BoolVal() bool { return v.n != 0 }

// BlobVal returns a copy of the binary payload (valid for KindBlob).
func (v Value) BlobVal() []byte { return []byte(v.s) }

// IsZero reports whether v is the zero value (the empty string).
func (v Value) IsZero() bool { return v == Value{} }

// Equal reports whether two values are identical in kind and payload. Floats
// compare as numbers (−0.0 equals 0.0), except that NaN equals NaN.
func (v Value) Equal(w Value) bool {
	if v.k != w.k {
		return false
	}
	switch v.k {
	case KindString, KindBlob:
		return v.s == w.s
	case KindFloat:
		vf, wf := v.FloatVal(), w.FloatVal()
		return vf == wf || (math.IsNaN(vf) && math.IsNaN(wf))
	}
	return v.n == w.n
}

// Compare imposes a total order over values: first by kind, then by payload.
// It returns -1, 0 or +1.
func (v Value) Compare(w Value) int {
	if v.k != w.k {
		if v.k < w.k {
			return -1
		}
		return 1
	}
	switch v.k {
	case KindString, KindBlob:
		return strings.Compare(v.s, w.s)
	case KindInt:
		return cmp.Compare(v.IntVal(), w.IntVal())
	case KindFloat:
		// cmp.Compare orders NaN first and treats NaNs as equal.
		return cmp.Compare(v.FloatVal(), w.FloatVal())
	}
	return cmp.Compare(v.n, w.n)
}

// String renders the value for display: strings unquoted, blobs summarized.
func (v Value) String() string {
	switch v.k {
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.IntVal(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.FloatVal(), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.BoolVal())
	case KindBlob:
		if len(v.s) <= 8 {
			return fmt.Sprintf("0x%x", v.s)
		}
		return fmt.Sprintf("blob(%dB)", len(v.s))
	}
	return "?"
}

// Literal renders the value in WebdamLog concrete syntax so that parsing the
// result yields the value back (strings quoted with escapes, blobs hex).
func (v Value) Literal() string {
	switch v.k {
	case KindString:
		return strconv.Quote(v.s)
	case KindFloat:
		s := v.String()
		// Force a float marker so the parser does not read it back as int.
		if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") && !strings.Contains(s, "NaN") {
			s += ".0"
		}
		return s
	case KindBlob:
		return fmt.Sprintf("0x%x", v.s)
	}
	return v.String()
}

// Hash64 is FNV-64a over s: the hash of canonical keys behind the store's
// fingerprints and digests and the intern table's shards.
func Hash64(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// appendHead appends v's canonical key up to its string payload: the kind
// byte, then the payload length (strings, blobs), the 8 bits' bytes (ints,
// floats) or one byte 0/1 (bools).
func (v Value) appendHead(dst []byte) []byte {
	dst = append(dst, byte(v.k))
	switch v.k {
	case KindString, KindBlob:
		return binary.LittleEndian.AppendUint64(dst, uint64(len(v.s)))
	case KindBool:
		return append(dst, byte(v.n))
	}
	return binary.LittleEndian.AppendUint64(dst, v.n)
}

// AppendKey appends a canonical, order-insensitive byte encoding of v to dst.
// Distinct values have distinct encodings, making it usable as a map key.
func (v Value) AppendKey(dst []byte) []byte {
	return append(v.appendHead(dst), v.s...)
}

// Key returns the canonical byte encoding of v as a string (usable as a map key).
func (v Value) Key() string { return string(v.AppendKey(nil)) }

// KeyLen returns the length of v's canonical key, len(v.AppendKey(nil)).
func (v Value) KeyLen() int {
	if v.k == KindBool {
		return 2
	}
	return 9 + len(v.s)
}

// WriteKey writes v's canonical key (AppendKey) to sb, so a caller that sized
// sb with KeyLen builds a key in one allocation.
func (v Value) WriteKey(sb *strings.Builder) {
	var head [9]byte
	sb.Write(v.appendHead(head[:0]))
	sb.WriteString(v.s)
}

// Encode appends the wire encoding of v to dst: the canonical key form, a
// kind byte then 8 little-endian bytes (int, float bits, string and blob
// length, the payload after it) or one byte 0/1 (bool). Float bits are kept
// as they are, so NaN payloads, ±Inf and −0.0 survive. Decode reverses it.
func (v Value) Encode(dst []byte) []byte { return v.AppendKey(dst) }

// ErrCorrupt reports a malformed value or tuple encoding.
var ErrCorrupt = errors.New("value: corrupt encoding")

// extent checks the value encoded at the start of b and returns its kind,
// its encoded size and the length of its string payload (0 for scalars). It
// accepts exactly what Encode writes: a known kind, enough bytes, and a bool
// byte of 0 or 1.
func extent(b []byte) (k Kind, size, n int, ok bool) {
	if len(b) < 1 {
		return 0, 0, 0, false
	}
	k = Kind(b[0])
	switch k {
	case KindString, KindBlob:
		if len(b) < 9 {
			return 0, 0, 0, false
		}
		l := binary.LittleEndian.Uint64(b[1:9])
		if l > uint64(len(b)-9) {
			return 0, 0, 0, false
		}
		return k, 9 + int(l), int(l), true
	case KindInt, KindFloat:
		return k, 9, 0, len(b) >= 9
	case KindBool:
		return k, 2, 0, len(b) >= 2 && b[1] <= 1
	}
	return 0, 0, 0, false
}

// decodeAt builds the value whose extent starts b, with s as its string
// payload.
func decodeAt(b []byte, k Kind, s string) Value {
	switch k {
	case KindString, KindBlob:
		return Value{k: k, s: s}
	case KindBool:
		return Value{k: k, n: uint64(b[1])}
	}
	return Value{k: k, n: binary.LittleEndian.Uint64(b[1:9])}
}

// Decode reads one value from b, returning the value and the remaining bytes.
func Decode(b []byte) (Value, []byte, error) {
	r := NewReader(b)
	v := r.Value()
	if r.err != nil {
		return Value{}, nil, r.err
	}
	return v, r.b, nil
}

// Tuple is an ordered sequence of values — one stored fact's arguments.
type Tuple []Value

// NewTuple builds a tuple from its arguments.
func NewTuple(vs ...Value) Tuple { return Tuple(vs) }

// InKey returns a copy of the tuple whose string and blob payloads are
// substrings of key, which must be t.Key(): a holder that keeps a tuple and
// its key stores the payload bytes once, and pins nothing of wherever t's
// strings came from (a decoded frame, a parsed request).
func (t Tuple) InKey(key string) Tuple {
	if t == nil {
		return nil
	}
	out := make(Tuple, len(t))
	off := 0
	for i, v := range t {
		switch v.k {
		case KindString, KindBlob:
			off += 9 // kind, length
			v.s = key[off : off+len(v.s)]
			off += len(v.s)
		case KindBool:
			off += 2
		default:
			off += 9
		}
		out[i] = v
	}
	return out
}

// Clone returns a copy of the tuple (values themselves are immutable).
func (t Tuple) Clone() Tuple {
	if t == nil {
		return nil
	}
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports element-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically (shorter tuples first on ties).
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Key returns a canonical byte-string encoding of the whole tuple, suitable
// for use as a map key. Distinct tuples have distinct keys. The key is built
// in one exact-size allocation.
func (t Tuple) Key() string {
	n := 0
	for _, v := range t {
		n += v.KeyLen()
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, v := range t {
		v.WriteKey(&sb)
	}
	return sb.String()
}

// DecodeKey reverses Tuple.Key: it parses the canonical key encoding back
// into the tuple it was built from. Together with Key it makes the canonical
// encoding a full codec, so a tuple held as its compact interned key (the
// store's interned representation) can always be reconstituted.
func DecodeKey(key string) (Tuple, error) {
	b := []byte(key)
	var t Tuple
	for len(b) > 0 {
		v, rest, err := Decode(b)
		if err != nil {
			return nil, err
		}
		t = append(t, v)
		b = rest
	}
	return t, nil
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// SortTuples sorts a slice of tuples in place in lexicographic order.
// Useful for deterministic test output and display.
func SortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}
