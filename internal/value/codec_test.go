package value

import (
	"math"
	"testing"
	"unsafe"
)

// TestInKeySharesKeyBytes: a tuple moved onto its key is equal to the
// original, encodes to the same key, and its string payloads point into the
// key's bytes.
func TestInKeySharesKeyBytes(t *testing.T) {
	tp := Tuple{Str("name"), Int(-3), Blob([]byte{0, 0xff}), Bool(true), Float(math.Copysign(0, -1)), Str("")}
	key := tp.Key()
	in := tp.InKey(key)
	if !in.Equal(tp) || in.Key() != key {
		t.Fatalf("InKey changed the tuple: %v", in)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(key)))
	for i, v := range in {
		if s := v.s; len(s) > 0 {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p < lo || p+uintptr(len(s)) > lo+uintptr(len(key)) {
				t.Errorf("value %d does not live in the key", i)
			}
		}
	}
}

// TestReaderCanonicalOnly: the reader refuses what the writers never
// produce — overlong or overflowing uvarints, bools other than 0 and 1 —
// and counts or lengths larger than the bytes left.
func TestReaderCanonicalOnly(t *testing.T) {
	bad := map[string]func(r *Reader){
		"overlong uvarint":  func(r *Reader) { r.Uvarint() },
		"overflow uvarint":  func(r *Reader) { r.Uvarint() },
		"bool 2":            func(r *Reader) { r.Bool() },
		"count past end":    func(r *Reader) { r.Count(1) },
		"string past end":   func(r *Reader) { r.Str() },
		"tuple bool 2":      func(r *Reader) { r.Tuple() },
		"tuple arity large": func(r *Reader) { r.Tuple() },
	}
	in := map[string][]byte{
		"overlong uvarint":  {0x80, 0x00},
		"overflow uvarint":  {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"bool 2":            {2},
		"count past end":    {3, 'a', 'b'},
		"string past end":   {3, 'a', 'b'},
		"tuple bool 2":      {1, byte(KindBool), 2},
		"tuple arity large": {5, byte(KindBool), 1, byte(KindBool), 0},
	}
	for name, read := range bad {
		r := NewReader(in[name])
		read(&r)
		if r.Err() == nil {
			t.Errorf("%s: read without error", name)
		}
	}
	r := NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0})
	if x := r.Uvarint(); x != math.MaxUint64 || r.Err() != nil || r.Len() != 1 {
		t.Fatalf("max uvarint read as %d, %v", x, r.Err())
	}
}
