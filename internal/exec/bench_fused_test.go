package exec

import (
	"fmt"
	"runtime"
	"testing"
)

// benchManualChain measures the manual-region steady state: one source
// batch of `srcBatch` tuples per iteration through `depth` Work stages and
// a CountingSink, captured and flushed through the compiled region program
// on the driving goroutine (manual threading — no scheduler queues, no
// workers). tuples/s counts source tuples.
func benchManualChain(b *testing.B, depth, srcBatch int) {
	g, sink := buildChainB(b, depth, 0, 0)
	step := syncFusedSourceStep(b, g, srcBatch)
	for i := 0; i < 64; i++ {
		step() // warm tuple pool and region scratch buffers
	}
	start := sink.Count()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	moved := sink.Count() - start
	if want := uint64(b.N) * uint64(srcBatch); moved != want {
		b.Fatalf("sink saw %d tuples, want %d", moved, want)
	}
	b.ReportMetric(float64(moved)/b.Elapsed().Seconds(), "tuples/s")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkManualChain measures compiled region programs with batch drive on
// deep all-manual chains, keyed as BENCH_7's fused rows (fused/depth=N); the
// bar is 0 allocs/op.
func BenchmarkManualChain(b *testing.B) {
	const srcBatch = 64
	for _, depth := range []int{4, 16} {
		b.Run(fmt.Sprintf("fused/depth=%d", depth), func(b *testing.B) {
			benchManualChain(b, depth, srcBatch)
		})
	}
}
