package band

import (
	"fmt"
	"testing"
)

// BenchmarkBND2BD is the acceptance benchmark of the pipelined second
// stage: an n=4096, KU=64 band — the shape GE2BND emits for a 4096²
// matrix at nb=64 — reduced by the sequential reference and by the
// pipelined task graph at several worker counts. The GFLOP/s metric uses
// the fixed rating count ModelFlops (6·n²·ku), so rates are directly
// comparable across commits, algorithms and machines; cmd/bidiagbench
// -stage bnd2bd emits the same figure as a BENCH_*.json trajectory
// record.
func BenchmarkBND2BD(b *testing.B) {
	const n, ku = 4096, 64
	src := randomBand(42, n, ku)
	flops := ModelFlops(n, ku)

	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Reduce(src)
		}
		b.ReportMetric(flops/1e9/b.Elapsed().Seconds()*float64(b.N), "GFlop/s")
	})
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReduceParallel(src, workers, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(flops/1e9/b.Elapsed().Seconds()*float64(b.N), "GFlop/s")
		})
	}
}

// BenchmarkReduceSegments measures the pipelined graph at a laptop-sized
// shape so quick -bench runs see both implementations without the
// acceptance benchmark's multi-second iterations.
func BenchmarkReduceSegments(b *testing.B) {
	const n, ku = 1024, 32
	src := randomBand(7, n, ku)
	flops := ModelFlops(n, ku)
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Reduce(src)
		}
		b.ReportMetric(flops/1e9/b.Elapsed().Seconds()*float64(b.N), "GFlop/s")
	})
	b.Run("pipelined", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReduceParallel(src, 4, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(flops/1e9/b.Elapsed().Seconds()*float64(b.N), "GFlop/s")
	})
}
