package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/ast"
	"repro/internal/value"
)

// Wire format. Encode writes an Envelope as From and To (strings), Seq
// (uvarint) and its payload; EncodePayload writes a bare payload. A payload
// is a one-byte kind tag followed by its fields in declaration order, built
// from the value package's primitives:
//
//   - counts, lengths, sequence numbers, epochs and tokens are uvarints;
//   - hashes (hash-range bounds, digests) are 8 little-endian bytes;
//   - strings are a uvarint length and the bytes;
//   - the bools of a message or fact delta form one flags byte;
//   - a fact is its relation, its peer and its tuple in value.Tuple.Encode
//     form;
//   - a slice is a count and its elements, a map a count and its entries in
//     increasing key order.
//
// The codec keeps no state between frames. Decoding accepts exactly what
// encoding writes — an unknown tag or flag bit, an overlong uvarint, an
// unsorted or repeated map key, a DataMsg inside a DataMsg or a trailing
// byte is an error — so whatever decodes re-encodes to the same bytes, and
// every count and length is checked against the bytes left before anything
// is allocated. Nil and empty slices and maps both encode as count 0 and
// decode as nil.

// Payload kind tags. A tag whose layout changes gets a fresh number and the
// old one stays reserved, so a payload of an older layout — on the wire or in
// a log — fails to decode instead of being misread.
const (
	tagFacts      byte = iota + 1
	tagDelegation      // retired: the set-replacement delegation message
	tagControl
	tagData
	tagAck
	tagDigest             // retired: a DigestMsg stamped with Epoch and AsOfSeq
	tagResync             // retired: a ResyncRequestMsg with Reset and Advert flags
	tagRangeDigestRequest // retired
	tagRangeDigest        // retired
	tagRangeRepairRequest // retired
	tagRangeRepair
	tagDigestV2 // retired: a DigestMsg with delegation fingerprints
	tagRangeRequest
	tagDigestV3
	tagResyncV2
)

// Flag bits: FactDelta's, then ResyncRequestMsg's (DigestMsg's Advert is
// flagAdvert).
const (
	flagDelete byte = 1 << iota
	flagMaint
)

const (
	flagReset byte = 1 << iota
	flagAdvert
)

// Smallest encodings, for checking counts against the bytes left.
const (
	minOpSize    = 4 // flags, empty relation, empty peer, arity 0
	minRangeSize = 16
)

var (
	errUnknownTag   = errors.New("unknown payload tag")
	errNotCanonical = errors.New("not in canonical form")
	errTrailing     = errors.New("trailing bytes")
	errNested       = errors.New("DataMsg inside a DataMsg")
)

// Encode serializes an envelope.
func Encode(env Envelope) ([]byte, error) {
	return exact(func(b []byte) ([]byte, error) { return AppendEnvelope(b, env) })
}

// AppendEnvelope appends env's encoding to dst, for a caller that reuses
// its buffer.
func AppendEnvelope(dst []byte, env Envelope) ([]byte, error) {
	dst = value.AppendString(dst, env.From)
	dst = value.AppendString(dst, env.To)
	dst = binary.AppendUvarint(dst, env.Seq)
	dst, err := appendPayload(dst, env.Msg, true)
	if err != nil {
		return nil, fmt.Errorf("protocol: encoding envelope: %w", err)
	}
	return dst, nil
}

// EncodePayload serializes a bare payload (outbox persistence).
func EncodePayload(p Payload) ([]byte, error) {
	return exact(func(b []byte) ([]byte, error) {
		b, err := appendPayload(b, p, true)
		if err != nil {
			return nil, fmt.Errorf("protocol: encoding payload: %w", err)
		}
		return b, nil
	})
}

// DecodeEnvelope deserializes an envelope produced by Encode.
func DecodeEnvelope(b []byte) (Envelope, error) {
	d := decoder{Reader: value.NewReader(b)}
	env := Envelope{From: d.Str(), To: d.Str(), Seq: d.Uvarint()}
	env.Msg = d.payload(true)
	if err := d.finish(); err != nil {
		return Envelope{}, fmt.Errorf("protocol: decoding envelope: %w", err)
	}
	return env, nil
}

// DecodePayload deserializes a payload produced by EncodePayload.
func DecodePayload(b []byte) (Payload, error) {
	d := decoder{Reader: value.NewReader(b)}
	p := d.payload(true)
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("protocol: decoding payload: %w", err)
	}
	return p, nil
}

// scratch recycles encoding buffers, so Encode and EncodePayload allocate
// only their exact-size result. Buffers past maxScratch are not kept.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

const maxScratch = 64 << 10

func exact(enc func([]byte) ([]byte, error)) ([]byte, error) {
	buf := scratch.Get().(*[]byte)
	b, err := enc((*buf)[:0])
	var out []byte
	if err == nil {
		out = slices.Clone(b)
	}
	if cap(b) <= maxScratch {
		*buf = b[:0]
		scratch.Put(buf)
	}
	return out, err
}

func appendPayload(dst []byte, p Payload, top bool) ([]byte, error) {
	switch m := p.(type) {
	case FactsMsg:
		dst = appendOps(append(dst, tagFacts), m.Ops)
	case ControlMsg:
		dst = binary.AppendUvarint(append(dst, tagControl, byte(m.Kind)), m.Token)
	case DataMsg:
		if !top {
			return nil, errNested
		}
		dst = binary.AppendUvarint(append(dst, tagData), m.Epoch)
		dst = binary.AppendUvarint(dst, m.Seq)
		return appendPayload(dst, m.Msg, false)
	case AckMsg:
		dst = binary.AppendUvarint(append(dst, tagAck), m.Epoch)
		dst = binary.AppendUvarint(dst, m.Seq)
	case DigestMsg:
		dst = binary.AppendUvarint(append(dst, tagDigestV3), uint64(len(m.Rels)))
		for _, k := range slices.Sorted(maps.Keys(m.Rels)) {
			dst = binary.AppendUvarint(value.AppendString(dst, k), uint64(len(m.Rels[k])))
			for _, r := range m.Rels[k] {
				dst = binary.LittleEndian.AppendUint64(dst, r.Lo)
				dst = binary.LittleEndian.AppendUint64(dst, r.Hi)
				dst = binary.LittleEndian.AppendUint64(dst, r.Hash)
				dst = binary.AppendUvarint(dst, r.Count)
			}
		}
		var f byte
		if m.Advert {
			f = flagAdvert
		}
		dst = append(dst, f)
	case ResyncRequestMsg:
		var f byte
		if m.Reset {
			f = flagReset
		}
		dst = append(dst, tagResyncV2, f)
	case RangeRequestMsg:
		dst = appendRanges(value.AppendString(append(dst, tagRangeRequest), m.RelID), m.Digest)
		dst = appendRanges(dst, m.Repair)
	case RangeRepairMsg:
		dst = appendRanges(value.AppendString(append(dst, tagRangeRepair), m.RelID), m.Ranges)
		dst = appendOps(dst, m.Ops)
	default:
		return nil, fmt.Errorf("cannot encode payload of type %T", p)
	}
	return dst, nil
}

func appendOps(dst []byte, ops []FactDelta) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for _, op := range ops {
		var f byte
		if op.Delete {
			f |= flagDelete
		}
		if op.Maint {
			f |= flagMaint
		}
		dst = value.AppendString(append(dst, f), op.Fact.Rel)
		dst = value.AppendString(dst, op.Fact.Peer)
		dst = op.Fact.Args.Encode(dst)
	}
	return dst
}

func appendRanges(dst []byte, rs []HashRange) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rs)))
	for _, r := range rs {
		dst = binary.LittleEndian.AppendUint64(dst, r.Lo)
		dst = binary.LittleEndian.AppendUint64(dst, r.Hi)
	}
	return dst
}

// decoder reads one frame or payload.
type decoder struct {
	value.Reader
	names [4]string // recent fact relation and peer names: a frame's facts share a few
	next  int
}

func (d *decoder) finish() error {
	if d.Err() == nil && d.Len() > 0 {
		d.Fail(errTrailing)
	}
	return d.Err()
}

// name reads a fact's relation or peer name, reusing the string of an equal
// recent name instead of allocating another.
func (d *decoder) name() string {
	b := d.Raw()
	for _, s := range d.names {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	d.names[d.next%len(d.names)] = s
	d.next++
	return s
}

// flags reads a flags byte with no bits outside mask.
func (d *decoder) flags(mask byte) byte {
	f := d.Byte()
	if f&^mask != 0 {
		d.Fail(errNotCanonical)
	}
	return f
}

func (d *decoder) payload(top bool) Payload {
	switch d.Byte() {
	case tagFacts:
		return FactsMsg{Ops: d.ops()}
	case tagControl:
		return ControlMsg{Kind: ControlKind(d.Byte()), Token: d.Uvarint()}
	case tagData:
		if !top {
			d.Fail(errNested)
			return nil
		}
		return DataMsg{Epoch: d.Uvarint(), Seq: d.Uvarint(), Msg: d.payload(false)}
	case tagAck:
		return AckMsg{Epoch: d.Uvarint(), Seq: d.Uvarint()}
	case tagDigestV3:
		var m DigestMsg
		var prev string
		if n := d.Count(2); n > 0 {
			m.Rels = make(map[string][]RangeDigest, n)
			for i := 0; i < n; i++ {
				k := d.mapKey(&prev, i)
				var rs []RangeDigest
				if n := d.Count(minRangeSize + 9); n > 0 {
					rs = make([]RangeDigest, n)
					for i := range rs {
						rs[i] = RangeDigest{Lo: d.Uint64(), Hi: d.Uint64(), Hash: d.Uint64(), Count: d.Uvarint()}
					}
				}
				m.Rels[k] = rs
			}
		}
		m.Advert = d.flags(flagAdvert) != 0
		return m
	case tagResyncV2:
		return ResyncRequestMsg{Reset: d.flags(flagReset) != 0}
	case tagRangeRequest:
		return RangeRequestMsg{RelID: d.Str(), Digest: d.ranges(), Repair: d.ranges()}
	case tagRangeRepair:
		return RangeRepairMsg{RelID: d.Str(), Ranges: d.ranges(), Ops: d.ops()}
	}
	d.Fail(errUnknownTag)
	return nil
}

// mapKey reads the i-th key of a map, which must sort after the one before
// it (*prev).
func (d *decoder) mapKey(prev *string, i int) string {
	k := d.Str()
	if i > 0 && k <= *prev {
		d.Fail(errNotCanonical)
	}
	*prev = k
	return k
}

func (d *decoder) ops() []FactDelta {
	n := d.Count(minOpSize)
	if n == 0 {
		return nil
	}
	ops := make([]FactDelta, n)
	for i := range ops {
		f := d.flags(flagDelete | flagMaint)
		ops[i] = FactDelta{Delete: f&flagDelete != 0, Maint: f&flagMaint != 0,
			Fact: ast.Fact{Rel: d.name(), Peer: d.name(), Args: d.Tuple()}}
	}
	return ops
}

func (d *decoder) ranges() []HashRange {
	n := d.Count(minRangeSize)
	if n == 0 {
		return nil
	}
	rs := make([]HashRange, n)
	for i := range rs {
		rs[i] = HashRange{Lo: d.Uint64(), Hi: d.Uint64()}
	}
	return rs
}
