package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/ast"
	"repro/internal/value"
)

// gen draws random messages. Zero-length slices and maps are nil: that is
// how they decode.
type gen struct{ *rand.Rand }

func (g gen) str() string {
	b := make([]byte, g.Intn(6))
	g.Read(b) // any bytes: names need not be UTF-8 on the wire
	return string(b)
}

func (g gen) u64() uint64 {
	if g.Intn(2) == 0 {
		return uint64(g.Intn(300))
	}
	return g.Uint64()
}

var specialFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.MaxFloat64, math.SmallestNonzeroFloat64}

func (g gen) value() value.Value {
	switch g.Intn(5) {
	case 0:
		return value.Str(g.str())
	case 1:
		return value.Int(g.Int63() - g.Int63())
	case 2:
		if g.Intn(2) == 0 {
			return value.Float(specialFloats[g.Intn(len(specialFloats))])
		}
		return value.Float(g.NormFloat64())
	case 3:
		return value.Bool(g.Intn(2) == 0)
	}
	b := make([]byte, g.Intn(40))
	g.Read(b)
	return value.Blob(b)
}

func (g gen) ops() []FactDelta {
	var ops []FactDelta
	for i := g.Intn(4); i > 0; i-- {
		f := ast.Fact{Rel: g.str(), Peer: g.str()}
		for j := g.Intn(4); j > 0; j-- {
			f.Args = append(f.Args, g.value())
		}
		ops = append(ops, FactDelta{Delete: g.Intn(2) == 0, Maint: g.Intn(2) == 0, Fact: f})
	}
	return ops
}

func (g gen) term() ast.Term {
	if g.Intn(2) == 0 {
		return ast.V("v" + g.str())
	}
	return ast.C(g.value())
}

func (g gen) atom() ast.Atom {
	a := ast.Atom{Neg: g.Intn(2) == 0, Rel: g.term(), Peer: g.term()}
	for i := g.Intn(3); i > 0; i-- {
		a.Args = append(a.Args, g.term())
	}
	return a
}

func (g gen) rules() []ast.Rule {
	var rs []ast.Rule
	for i := g.Intn(3); i > 0; i-- {
		r := ast.Rule{ID: g.str(), Origin: g.str(), Op: ast.UpdateOp(g.Intn(2)), Head: g.atom()}
		for j := g.Intn(3); j > 0; j-- {
			r.Body = append(r.Body, g.atom())
		}
		rs = append(rs, r)
	}
	return rs
}

func (g gen) ranges() []HashRange {
	var rs []HashRange
	for i := g.Intn(3); i > 0; i-- {
		rs = append(rs, HashRange{Lo: g.u64(), Hi: g.u64()})
	}
	return rs
}

// payload draws one of the nine kinds (kind < 0: any); a DataMsg wraps any
// other kind.
func (g gen) payload(kind int) Payload {
	if kind < 0 {
		kind = g.Intn(payloadKinds)
	}
	switch kind {
	case 0:
		return FactsMsg{Ops: g.ops()}
	case 1:
		return DelegationMsg{RuleID: g.str(), Rules: g.rules()}
	case 2:
		return ControlMsg{Kind: ControlKind(g.Intn(3)), Token: g.u64()}
	case 3:
		inner := 3
		for inner == 3 {
			inner = g.Intn(payloadKinds)
		}
		return DataMsg{Epoch: g.u64(), Seq: g.u64(), Msg: g.payload(inner)}
	case 4:
		return AckMsg{Epoch: g.u64(), Seq: g.u64()}
	case 5:
		m := DigestMsg{Advert: g.Intn(2) == 0}
		for i := g.Intn(3); i > 0; i-- {
			if m.Rels == nil {
				m.Rels = map[string][]RangeDigest{}
			}
			var rs []RangeDigest
			for j := g.Intn(3); j > 0; j-- {
				rs = append(rs, RangeDigest{Lo: g.u64(), Hi: g.u64(), Hash: g.u64(), Count: g.u64()})
			}
			m.Rels[g.str()] = rs
		}
		for i := g.Intn(3); i > 0; i-- {
			if m.Deleg == nil {
				m.Deleg = map[string]uint64{}
			}
			m.Deleg[g.str()] = g.u64()
		}
		return m
	case 6:
		return ResyncRequestMsg{Reset: g.Intn(2) == 0, Advert: g.Intn(2) == 0}
	case 7:
		return RangeRequestMsg{RelID: g.str(), Digest: g.ranges(), Repair: g.ranges()}
	}
	return RangeRepairMsg{RelID: g.str(), Ranges: g.ranges(), Ops: g.ops()}
}

// payloadKinds is the number of payload types.
const payloadKinds = 9

// retiredPayloads are payloads of the retired layouts — an advert stamped
// with Epoch and AsOfSeq, a range-digest request, a stamped range-digest
// reply and a range-repair request — as older versions wrote them to the
// wire and to outbox logs. Their tags stay reserved: each must fail to
// decode.
var retiredPayloads = [][]byte{
	{tagDigest, 3, 9, 1, 1, 'r', 0xEF, 0xBE, 0, 0, 0, 0, 0, 0, 3, 0},
	{tagRangeDigestRequest, 1, 'r', 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
	{tagRangeDigest, 3, 9, 1, 'r', 0},
	{tagRangeRepairRequest, 1, 'r', 0},
}

// same compares two decoded structures by their Go syntax, which (unlike
// reflect.DeepEqual) counts NaN equal to NaN and tells nil from empty.
func same(a, b any) bool { return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) }

// TestCodecRoundTripProperty: random envelopes of every payload kind, with
// random routing fields, decode to what was encoded and re-encode to the
// same bytes; so do the bare payloads.
func TestCodecRoundTripProperty(t *testing.T) {
	g := gen{rand.New(rand.NewSource(7))}
	kinds := map[string]int{}
	for i := 0; i < 3000; i++ {
		env := Envelope{From: g.str(), To: g.str(), Seq: g.u64(), Msg: g.payload(-1)}
		kinds[fmt.Sprintf("%T", env.Msg)]++
		b, err := Encode(env)
		if err != nil {
			t.Fatalf("encoding %#v: %v", env, err)
		}
		got, err := DecodeEnvelope(b)
		if err != nil {
			t.Fatalf("decoding %#v: %v", env, err)
		}
		if !same(got, env) {
			t.Fatalf("round trip changed\n%#v\ninto\n%#v", env, got)
		}
		if again, _ := Encode(got); !bytes.Equal(again, b) {
			t.Fatalf("%#v re-encodes differently", env)
		}
		pb, err := EncodePayload(env.Msg)
		if err != nil {
			t.Fatal(err)
		}
		if p, err := DecodePayload(pb); err != nil || !same(p, env.Msg) {
			t.Fatalf("bare payload %#v decoded as %#v, %v", env.Msg, p, err)
		}
	}
	if len(kinds) != payloadKinds {
		t.Fatalf("covered %d payload kinds, want %d: %v", len(kinds), payloadKinds, kinds)
	}
}

// TestNilAndEmptyDecodeAsNil pins the one thing a round trip does not keep:
// empty slices and maps encode like nil ones and decode as nil.
func TestNilAndEmptyDecodeAsNil(t *testing.T) {
	in := []Payload{
		FactsMsg{Ops: []FactDelta{{Fact: ast.Fact{Rel: "r", Peer: "p", Args: value.Tuple{}}}}},
		DelegationMsg{RuleID: "r1", Rules: []ast.Rule{{Head: ast.Atom{Args: []ast.Term{}}, Body: []ast.Atom{}}}},
		DigestMsg{Rels: map[string][]RangeDigest{}, Deleg: map[string]uint64{}},
		DigestMsg{Rels: map[string][]RangeDigest{"r": {}}},
		RangeRepairMsg{Ranges: []HashRange{}, Ops: []FactDelta{}},
	}
	want := []Payload{
		FactsMsg{Ops: []FactDelta{{Fact: ast.Fact{Rel: "r", Peer: "p"}}}},
		DelegationMsg{RuleID: "r1", Rules: []ast.Rule{{}}},
		DigestMsg{},
		DigestMsg{Rels: map[string][]RangeDigest{"r": nil}},
		RangeRepairMsg{},
	}
	for i, p := range in {
		b, err := EncodePayload(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodePayload(b)
		if err != nil || !same(got, want[i]) {
			t.Errorf("%#v decoded as %#v, %v; want %#v", p, got, err, want[i])
		}
	}
}

// picture is a Wepic picture fact as the benchmark's album holds them.
func picture() ast.Fact {
	blob := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(blob)
	return ast.NewFact("pictures", "emilien", value.Int(123), value.Str("pic000123.jpg"), value.Str("emilien"), value.Blob(blob))
}

func pictureEnvelope() Envelope {
	return Envelope{From: "emilien", To: "jules", Seq: 7, Msg: DataMsg{Epoch: 0x9e3779b97f4a7c15, Seq: 7,
		Msg: FactsMsg{Ops: []FactDelta{{Maint: true, Fact: picture()}}}}}
}

// TestPictureFrameSize: a DataMsg carrying one picture with a 1 KiB blob
// costs at most 1 150 bytes on the wire (gob needed 1 591).
func TestPictureFrameSize(t *testing.T) {
	b, err := Encode(pictureEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 1150 {
		t.Fatalf("picture envelope encodes in %d bytes, want <= 1150", len(b))
	}
	t.Logf("picture envelope: %d bytes", len(b))
}

// TestDecodeAllocations: decoding that envelope allocates the routing
// names, the two boxed payloads, the ops slice, the fact's two names, and
// the tuple with its one string allocation — nine in all (gob: 342).
func TestDecodeAllocations(t *testing.T) {
	b, err := Encode(pictureEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { DecodeEnvelope(b) }); n > 10 {
		t.Errorf("decoding allocates %v times, want <= 10", n)
	}
}

// TestForgedCountsAllocateNothing: frames announcing 2^32 ops, rules, digest
// entries or tuple values, or a 2^40-byte string, fail without allocating
// what they announce.
func TestForgedCountsAllocateNothing(t *testing.T) {
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	route := cat(uv(1), []byte("a"), uv(1), []byte("b"), uv(1)) // From, To, Seq
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint64(huge, 1<<40)
	forged := map[string][]byte{
		"2^32 ops":          cat(route, []byte{tagFacts}, uv(1<<32), []byte{0, 1, 'r', 1, 'p', 0}),
		"2^32 rules":        cat(route, []byte{tagDelegation}, uv(0), uv(1<<32), make([]byte, 40)),
		"2^32 digests":      cat(route, []byte{tagDigestV2}, uv(1), uv(1), []byte("r"), uv(1<<32), make([]byte, 40)),
		"2^32 values":       cat(route, []byte{tagFacts}, uv(1), []byte{0}, uv(1), []byte("r"), uv(1), []byte("p"), uv(1<<32), make([]byte, 40)),
		"2^40-byte name":    cat(uv(1<<40), []byte("abc")),
		"2^40-byte value":   cat(route, []byte{tagFacts}, uv(1), []byte{0}, uv(1), []byte("r"), uv(1), []byte("p"), uv(1), []byte{byte(value.KindBlob)}, huge, []byte("xyz")),
		"2^32 ranges":       cat(route, []byte{tagRangeRequest}, uv(0), uv(1<<32), make([]byte, 40)),
		"2^40-byte rule id": cat(route, []byte{tagDelegation}, uv(1<<40), make([]byte, 40)),
	}
	for name, b := range forged {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeEnvelope(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("%s: allocated %d bytes, want < 64 KiB", name, got)
		}
	}
}

// TestGobPayloadRefused: a payload in the previous (gob) encoding, as an
// outbox log of that version holds them, is refused, not misread.
func TestGobPayloadRefused(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "gob_payload.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if p, err := DecodePayload(b); err == nil {
		t.Fatalf("gob payload decoded as %#v", p)
	}
}

// TestEncodeRefusesWhatCannotDecode: payloads the decoder would refuse are
// refused when encoding too.
func TestEncodeRefusesWhatCannotDecode(t *testing.T) {
	for _, p := range []Payload{nil, &FactsMsg{}, DataMsg{Msg: DataMsg{Msg: AckMsg{}}}, DataMsg{}} {
		if b, err := EncodePayload(p); err == nil {
			t.Errorf("%#v encoded as %x", p, b)
		}
	}
}

// TestRetiredTagsRefused: a payload of a retired layout is refused, not
// misread, whether it arrives bare or inside a DataMsg.
func TestRetiredTagsRefused(t *testing.T) {
	for _, b := range retiredPayloads {
		if p, err := DecodePayload(b); err == nil {
			t.Errorf("retired tag %d decoded as %#v", b[0], p)
		}
		if p, err := DecodePayload(append([]byte{tagData, 1, 1}, b...)); err == nil {
			t.Errorf("retired tag %d inside a DataMsg decoded as %#v", b[0], p)
		}
	}
}

// FuzzDecodePayload: any input either fails to decode or decodes to a
// payload whose encoding is exactly the input; a retired tag never decodes.
func FuzzDecodePayload(f *testing.F) {
	g := gen{rand.New(rand.NewSource(1))}
	full := RangeDigest{Lo: 0, Hi: ^uint64(0), Hash: 0xBEEF, Count: 3}
	seeds := []Payload{
		DigestMsg{Rels: map[string][]RangeDigest{"r@b": {full}}, Deleg: map[string]uint64{"rule1": 9}, Advert: true},
		DigestMsg{Rels: map[string][]RangeDigest{"r@b": {{Lo: 1, Hi: 2, Hash: 5, Count: 1}, {Lo: 3, Hi: 4}}}},
		RangeRequestMsg{RelID: "r@b", Digest: []HashRange{{Lo: 0, Hi: 1 << 60}}, Repair: []HashRange{{Lo: 7, Hi: 7}}},
	}
	for kind := 0; kind < payloadKinds; kind++ {
		seeds = append(seeds, g.payload(kind))
	}
	for _, p := range seeds {
		b, err := EncodePayload(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, b := range retiredPayloads {
		f.Add(b)
	}
	if b, err := os.ReadFile(filepath.Join("testdata", "gob_payload.bin")); err == nil {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePayload(data)
		if err != nil {
			return
		}
		switch data[0] {
		case tagDigest, tagRangeDigestRequest, tagRangeDigest, tagRangeRepairRequest:
			t.Fatalf("retired tag %d decoded as %#v", data[0], p)
		}
		back, err := EncodePayload(p)
		if err != nil {
			t.Fatalf("decoded %#v does not encode: %v", p, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("decoded %#v encodes to\n%x\nnot\n%x", p, back, data)
		}
	})
}
