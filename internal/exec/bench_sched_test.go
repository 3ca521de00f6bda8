package exec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"streamelastic/internal/graph"
	"streamelastic/internal/racebuild"
	"streamelastic/internal/spl"
)

// fanInGraph builds the contended fan-in topology: `sources` independent
// chains source -> expand(factor) -> work(flops) whose work stages all feed
// one shared sink node.
func fanInGraph(tb testing.TB, sources, factor int, flops float64) (*graph.Graph, *spl.CountingSink) {
	tb.Helper()
	g := graph.New()
	sink := spl.NewCountingSink("snk")
	sid := g.AddOperator(sink, nil)
	for i := 0; i < sources; i++ {
		gen := spl.NewGenerator(fmt.Sprintf("src%d", i), 64)
		src := g.AddSource(gen, nil)
		xp := g.AddOperator(spl.NewExpand(fmt.Sprintf("xp%d", i), factor), nil)
		if err := g.Connect(src, 0, xp, 0, 1); err != nil {
			tb.Fatal(err)
		}
		cv := spl.NewCostVar(flops)
		work := g.AddOperator(spl.NewWork(fmt.Sprintf("w%d", i), cv), cv)
		if err := g.Connect(xp, 0, work, 0, 1); err != nil {
			tb.Fatal(err)
		}
		if err := g.Connect(work, 0, sid, 0, 1); err != nil {
			tb.Fatal(err)
		}
	}
	if err := g.Finalize(); err != nil {
		tb.Fatal(err)
	}
	return g, sink
}

// startFanIn builds and starts a fan-in engine with all non-source nodes
// scheduled dynamically on `workers` workers. Everything here — graph
// construction, engine start, placement, thread-count ramp, pool/deque
// warm-up — is per-benchmark setup that must stay outside the timed region.
func startFanIn(tb testing.TB, workers int) *Engine {
	tb.Helper()
	const sources, factor, flops = 4, 8, 200
	g, _ := fanInGraph(tb, sources, factor, flops)
	e, err := New(g, Options{MaxThreads: 16})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.Start(context.Background()); err != nil {
		tb.Fatal(err)
	}
	place := make([]bool, g.NumNodes())
	for i := range place {
		place[i] = !g.Node(graph.NodeID(i)).Source
	}
	if err := e.ApplyPlacement(place); err != nil {
		e.Stop()
		tb.Fatal(err)
	}
	if err := e.SetThreadCount(workers); err != nil {
		e.Stop()
		tb.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // warm up pools and deques
	return e
}

// BenchmarkContendedFanIn measures sink throughput on the contended fan-in
// shape that motivates the work-stealing scheduler at 2/4/8/16 workers:
// several sources each feed an expansion burst and a work stage, and every
// work stage fans into one shared sink node. The burst and fan-in traffic
// rides the producing worker's own deque; the shared queues carry only
// source injections. Rows keep BENCH_4/BENCH_6's steal/workers=N keys. The
// timed region contains nothing but the running pipeline: with sharded sink
// metering and recyclable-operator release the steady state is
// allocation-free (see TestContendedFanInSteadyStateAllocFree).
func BenchmarkContendedFanIn(b *testing.B) {
	for _, w := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("steal/workers=%d", w), func(b *testing.B) {
			e := startFanIn(b, w)
			defer e.Stop()
			b.ResetTimer()
			start := e.SinkCount()
			t0 := time.Now()
			target := time.Duration(b.N) * 100 * time.Microsecond
			if target < 100*time.Millisecond {
				target = 100 * time.Millisecond
			}
			time.Sleep(target)
			elapsed := time.Since(t0).Seconds()
			b.StopTimer()
			b.ReportMetric(float64(e.SinkCount()-start)/elapsed, "tuples/s")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			b.ReportMetric(float64(e.SchedStats().Steals)/elapsed, "steals/s")
		})
	}
}

// TestContendedFanInSteadyStateAllocFree pins the satellite fix for the ~90
// allocs/op BENCH_4 measured in the fan-in steady state: Expand abandoned
// its input tuple (no release point for a non-sink operator), so every
// source->expand queue crossing leaked a pooled tuple struct and payload
// buffer to the GC at ~1M allocs/s. With Expand marked Recyclable and the
// engine releasing recyclable inputs mid-graph, the running pipeline must
// allocate nothing.
func TestContendedFanInSteadyStateAllocFree(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	e := startFanIn(t, 4)
	defer e.Stop()
	// Settle, then count process allocations while the sink takes a fixed
	// number of tuples, however long that takes on this machine. The old
	// leak was ~3 allocations per source tuple (3/8 per sink tuple) in every
	// window. A GC cycle during a window empties the tuple pools and costs a
	// few thousand refills at once, which is not per tuple, so the best of
	// three windows is judged.
	const window, windows = 200_000, 3
	waitSink := func(n uint64) bool {
		deadline := time.Now().Add(20 * time.Second)
		for e.SinkCount() < n {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(time.Millisecond)
		}
		return true
	}
	if !waitSink(window / 4) {
		t.Skip("pipeline too slow to judge")
	}
	best := math.Inf(1)
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := e.SinkCount()
		if !waitSink(start + window) {
			t.Skip("pipeline too slow to judge")
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.Mallocs-before.Mallocs)/float64(e.SinkCount()-start))
	}
	if best > 0.02 {
		t.Fatalf("steady state allocated %.4f objects per tuple moved in the best of %d windows of %d tuples; want near zero",
			best, windows, window)
	}
}
