package transport

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/protocol"
	"repro/internal/value"
)

// TestReadFrameAllocatesWhatArrives: a header announcing maxFrame followed
// by three bytes and EOF must fail without allocating what the header
// claims — memory follows the bytes a peer actually sends.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	in := []byte{0, 0, 0, 0x10, 'a', 'b', 'c'} // 256 MiB, little-endian
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(in), nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("truncated frame allocated %d bytes, want < 1 MiB", got)
	}
}

// TestReadFrameLarge: a frame several chunks long, whose body is read in
// growing pieces, decodes to what was written; the next frame on the link
// reuses the buffer.
func TestReadFrameLarge(t *testing.T) {
	var msg protocol.FactsMsg
	for i := 0; i < 200; i++ {
		msg.Append(false, ast.NewFact("r", "p", value.Int(int64(i)), value.Str(strings.Repeat("x", 1024))))
	}
	frame, err := appendFrame(nil, protocol.Envelope{From: "a", To: "b", Seq: 3, Msg: msg})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) < 3*frameChunk {
		t.Fatalf("frame of %d bytes does not span several chunks", len(frame))
	}
	small, err := appendFrame(nil, protocol.Envelope{From: "a", To: "b", Seq: 4, Msg: protocol.AckMsg{Epoch: 1, Seq: 2}})
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(append(frame, small...))
	env, buf, err := readFrame(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := env.Msg.(protocol.FactsMsg)
	if !ok || env.Seq != 3 || got.Len() != 200 || got.Ops[199].Fact.Args[0].IntVal() != 199 {
		t.Fatalf("large frame decoded as %v", env)
	}
	env, buf2, err := readFrame(r, buf)
	if err != nil || env.Msg != (protocol.AckMsg{Epoch: 1, Seq: 2}) {
		t.Fatalf("second frame decoded as %v, %v", env, err)
	}
	if &buf2[0] != &buf[0] {
		t.Error("second frame did not reuse the link's buffer")
	}
	if got.Ops[0].Fact.Args[1].StringVal() != strings.Repeat("x", 1024) {
		t.Error("decoded fact aliases the reused frame buffer")
	}
}

// frameSeeds returns one encoded frame per payload kind, and digests in both
// shapes and a repair inside the DataMsg they travel in.
func frameSeeds(tb testing.TB) [][]byte {
	f := ast.NewFact("r", "p", value.Int(1), value.Str("x"))
	ops := []protocol.FactDelta{{Fact: f}, {Delete: true, Maint: true, Fact: f}}
	ranges := []protocol.HashRange{{Lo: 1, Hi: 1 << 40}}
	payloads := []protocol.Payload{
		protocol.FactsMsg{Ops: ops},
		protocol.ControlMsg{Kind: protocol.ControlPong, Token: 7},
		protocol.DataMsg{Epoch: 3, Seq: 1, Msg: protocol.FactsMsg{Ops: ops}},
		protocol.AckMsg{Epoch: 3, Seq: 1},
		protocol.DataMsg{Epoch: 3, Seq: 2, Msg: protocol.DigestMsg{Rels: map[string][]protocol.RangeDigest{
			"r": {{Lo: 0, Hi: ^uint64(0), Hash: 9, Count: 2}}}, Advert: true}},
		protocol.ResyncRequestMsg{Reset: true},
		protocol.ResyncRequestMsg{},
		protocol.RangeRequestMsg{RelID: "r", Digest: ranges, Repair: ranges},
		protocol.DataMsg{Epoch: 3, Seq: 3, Msg: protocol.DigestMsg{Rels: map[string][]protocol.RangeDigest{
			"r": {{Lo: 1, Hi: 2, Hash: 3, Count: 4}}}}},
		protocol.RangeRepairMsg{RelID: "r", Ranges: ranges, Ops: ops},
		protocol.DataMsg{Epoch: 3, Seq: 4, Msg: protocol.RangeRepairMsg{RelID: "r", Ranges: ranges, Ops: ops}},
	}
	var seeds [][]byte
	for i, p := range payloads {
		frame, err := appendFrame(nil, protocol.Envelope{From: "a", To: "b", Seq: uint64(i + 1), Msg: p})
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, frame)
	}
	return seeds
}

// FuzzReadFrame feeds arbitrary bytes to the TCP transport's frame reader —
// the first code to touch what a remote peer sends. It must never panic, and
// every envelope it decodes must encode back to exactly the frame it was
// read from.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range frameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for {
			read := len(data) - r.Len()
			env, b, err := readFrame(r, buf)
			if err != nil {
				return
			}
			buf = b
			frame := data[read : len(data)-r.Len()]
			back, err := appendFrame(nil, env)
			if err != nil {
				t.Fatalf("decoded %v does not re-encode: %v", env, err)
			}
			if !bytes.Equal(back, frame) {
				t.Fatalf("decoded %v re-encodes to\n%x\nnot the frame\n%x", env, back, frame)
			}
		}
	})
}
