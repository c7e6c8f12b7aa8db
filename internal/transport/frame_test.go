package transport

import (
	"bufio"
	"bytes"
	"fmt"
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
	_, err := readFrame(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("truncated frame allocated %d bytes, want < 1 MiB", got)
	}
}

// TestReadFrameLarge: a frame several chunks long, whose body is read in
// growing pieces, decodes to what was written.
func TestReadFrameLarge(t *testing.T) {
	var msg protocol.FactsMsg
	for i := 0; i < 200; i++ {
		msg.Append(false, ast.NewFact("r", "p", value.Int(int64(i)), value.Str(strings.Repeat("x", 1024))))
	}
	var buf bytes.Buffer
	if err := writeFrame(bufio.NewWriter(&buf), protocol.Envelope{From: "a", To: "b", Seq: 3, Msg: msg}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 3*frameChunk {
		t.Fatalf("frame of %d bytes does not span several chunks", buf.Len())
	}
	env, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := env.Msg.(protocol.FactsMsg)
	if !ok || env.Seq != 3 || got.Len() != 200 || got.Ops[199].Fact.Args[0].IntVal() != 199 {
		t.Fatalf("large frame decoded as %v", env)
	}
}

// frameSeeds returns one encoded frame per registered payload kind.
func frameSeeds(tb testing.TB) [][]byte {
	f := ast.NewFact("r", "p", value.Int(1), value.Str("x"))
	ops := []protocol.FactDelta{{Fact: f}, {Delete: true, Maint: true, Fact: f}}
	ranges := []protocol.HashRange{{Lo: 1, Hi: 1 << 40}}
	payloads := []protocol.Payload{
		protocol.FactsMsg{Ops: ops},
		protocol.DelegationMsg{RuleID: "r1", Rules: []ast.Rule{{ID: "x", Origin: "a", Head: ast.NewAtom("m", "b", ast.V("v"))}}},
		protocol.ControlMsg{Kind: protocol.ControlPong, Token: 7},
		protocol.DataMsg{Epoch: 3, Seq: 1, Msg: protocol.FactsMsg{Ops: ops}},
		protocol.AckMsg{Epoch: 3, Seq: 1},
		protocol.DigestMsg{Epoch: 3, AsOfSeq: 1, Rels: map[string]protocol.RelDigest{"r": {Hash: 9, Count: 2}}, Deleg: map[string]uint64{"r1": 5}},
		protocol.ResyncRequestMsg{Reset: true, Advert: true},
		protocol.RangeDigestRequestMsg{RelID: "r", Ranges: ranges},
		protocol.RangeDigestMsg{Epoch: 3, AsOfSeq: 1, RelID: "r", Ranges: []protocol.RangeDigest{{Lo: 1, Hi: 2, Hash: 3, Count: 4}}},
		protocol.RangeRepairRequestMsg{RelID: "r", Ranges: ranges},
		protocol.RangeRepairMsg{RelID: "r", Ranges: ranges, Ops: ops},
	}
	var seeds [][]byte
	for i, p := range payloads {
		var buf bytes.Buffer
		if err := writeFrame(bufio.NewWriter(&buf), protocol.Envelope{From: "a", To: "b", Seq: uint64(i + 1), Msg: p}); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// FuzzReadFrame feeds arbitrary bytes to the TCP transport's frame reader —
// the first code to touch what a remote peer sends. It must never panic, and
// every envelope it decodes must survive writeFrame and read back with the
// same routing metadata and payload type.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range frameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			env, err := readFrame(r)
			if err != nil {
				return
			}
			var buf bytes.Buffer
			if err := writeFrame(bufio.NewWriter(&buf), env); err != nil {
				t.Fatalf("decoded %v does not re-encode: %v", env, err)
			}
			back, err := readFrame(&buf)
			if err != nil {
				t.Fatalf("re-encoded %v does not decode: %v", env, err)
			}
			if back.From != env.From || back.To != env.To || back.Seq != env.Seq ||
				fmt.Sprintf("%T", back.Msg) != fmt.Sprintf("%T", env.Msg) {
				t.Fatalf("round trip changed %v into %v", env, back)
			}
		}
	})
}
