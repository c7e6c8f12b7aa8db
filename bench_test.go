// Benchmarks regenerating the performance series of EXPERIMENTS.md.
// The SIGMOD 2013 demonstration paper has no quantitative tables, so the
// series quantify the behaviours it demonstrates and claims qualitatively:
//
//	    BenchmarkFixpoint*     — transitive-closure fixpoint (the engine
//	                             replacing Bud)
//	P2  BenchmarkStage*        — the three-step stage pipeline of §2
//	P3  BenchmarkDelegation*   — run-time delegation fan-out vs statically
//	                             pre-installed rules
//	P4  BenchmarkDistribution* — in-place distributed join vs centralizing
//	                             the data (§1's "manage data in place")
//	P5  BenchmarkTransport*    — in-memory bus vs TCP/gob messaging
//	A1  BenchmarkAblation*     — WAL on/off
//
// Run with: go test -bench=. -benchmem
package webdamlog_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
)

func benchTC(b *testing.B, edges [][2]int64) {
	b.Helper()
	var derived int
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTC(edges)
		if err != nil {
			b.Fatal(err)
		}
		derived = res.Derived
	}
	b.ReportMetric(float64(derived), "facts_derived")
}

func BenchmarkFixpointChain(b *testing.B) {
	for _, n := range []int{50, 100, 200, 400} {
		b.Run(fmt.Sprintf("edges=%d", n), func(b *testing.B) {
			benchTC(b, bench.ChainEdges(n))
		})
	}
}

func BenchmarkFixpointTree(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			benchTC(b, bench.BinaryTreeEdges(n))
		})
	}
}

func BenchmarkStagePipeline(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("facts=%d", n), func(b *testing.B) {
			var last bench.StageDecomposition
			for i := 0; i < b.N; i++ {
				var err error
				last, err = bench.RunStageDecomposition(n)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(last.Ingest.Nanoseconds())/float64(n), "ns_ingest/fact")
			b.ReportMetric(float64(last.Fixpoint.Nanoseconds())/float64(n), "ns_fixpoint/fact")
			b.ReportMetric(float64(last.Emit.Nanoseconds())/float64(n), "ns_emit/fact")
		})
	}
}

func BenchmarkDelegationFanout(b *testing.B) {
	for _, peers := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.RunDelegationFanout(peers, 20)
				if err != nil {
					b.Fatal(err)
				}
				if res.Collected != peers*20 {
					b.Fatalf("collected %d, want %d", res.Collected, peers*20)
				}
			}
		})
	}
}

func BenchmarkDelegationPreinstalledBaseline(b *testing.B) {
	for _, peers := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.RunPreinstalledFanout(peers, 20)
				if err != nil {
					b.Fatal(err)
				}
				if res.Collected != peers*20 {
					b.Fatalf("collected %d, want %d", res.Collected, peers*20)
				}
			}
		})
	}
}

func BenchmarkDistributionDelegatedJoin(b *testing.B) {
	for _, peers := range []int{4, 16} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			var msgs uint64
			for i := 0; i < b.N; i++ {
				res, err := bench.RunDistributedJoin(peers, 200, 5)
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Messages
			}
			b.ReportMetric(float64(msgs), "messages")
		})
	}
}

func BenchmarkDistributionCentralizedBaseline(b *testing.B) {
	for _, peers := range []int{4, 16} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			var msgs uint64
			for i := 0; i < b.N; i++ {
				res, err := bench.RunCentralizedJoin(peers, 200, 5)
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Messages
			}
			b.ReportMetric(float64(msgs), "messages")
		})
	}
}

func BenchmarkTransportBus(b *testing.B) {
	for _, payload := range []int{64, 4096} {
		b.Run(fmt.Sprintf("payload=%dB", payload), func(b *testing.B) {
			res, err := bench.RunBusThroughput(b.N, payload)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(res.BytesEach))
		})
	}
}

func BenchmarkTransportTCP(b *testing.B) {
	for _, payload := range []int{64, 4096} {
		b.Run(fmt.Sprintf("payload=%dB", payload), func(b *testing.B) {
			res, err := bench.RunTCPThroughput(b.N, payload)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(res.BytesEach))
		})
	}
}

// BenchmarkBatchInsert compares N single Insert calls against one atomic
// Batch apply on the store/engine hot path (v2 API). The batched path takes
// the peer lock once, wakes the scheduler once and inserts through the
// store's grouped InsertMany; the tcp variants additionally replace N
// framed wire messages with one, which is where the gap is decisive
// (10-20x, see CHANGES.md).
func BenchmarkBatchInsert(b *testing.B) {
	run := func(n int, batched bool, path func(int, bool) (bench.BatchResult, error)) func(*testing.B) {
		return func(b *testing.B) {
			var stages uint64
			for i := 0; i < b.N; i++ {
				res, err := path(n, batched)
				if err != nil {
					b.Fatal(err)
				}
				stages = res.Stages
			}
			b.ReportMetric(float64(stages), "stages")
		}
	}
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("path=perfact/facts=%d", n), run(n, false, bench.RunInsertPath))
		b.Run(fmt.Sprintf("path=batch/facts=%d", n), run(n, true, bench.RunInsertPath))
	}
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("path=perfact-tcp/facts=%d", n), run(n, false, bench.RunRemoteInsertPath))
		b.Run(fmt.Sprintf("path=batch-tcp/facts=%d", n), run(n, true, bench.RunRemoteInsertPath))
	}
}

func BenchmarkAblationUpdatesNoWAL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunWALAblation(5000, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationUpdatesWAL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunWALAblation(5000, b.TempDir()); err != nil {
			b.Fatal(err)
		}
	}
}
