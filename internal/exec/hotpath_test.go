package exec

import (
	"context"
	"syscall"
	"testing"
	"time"

	"streamelastic/internal/graph"
	"streamelastic/internal/racebuild"
	"streamelastic/internal/spl"
)

// hotChain builds a source -> work -> sink pipeline for the hot-path tests
// and benchmarks. tuples == 0 means unbounded.
func hotChain(tb testing.TB, tuples uint64, payload int, flops float64) (*graph.Graph, *spl.CountingSink) {
	tb.Helper()
	g := graph.New()
	gen := spl.NewGenerator("src", payload)
	gen.MaxTuples = tuples
	src := g.AddSource(gen, nil)
	cv := spl.NewCostVar(flops)
	work := g.AddOperator(spl.NewWork("w", cv), cv)
	if err := g.Connect(src, 0, work, 0, 1); err != nil {
		tb.Fatal(err)
	}
	sink := spl.NewCountingSink("snk")
	sid := g.AddOperator(sink, nil)
	if err := g.Connect(work, 0, sid, 0, 1); err != nil {
		tb.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		tb.Fatal(err)
	}
	return g, sink
}

// syncCrossingStep returns a closure that pushes one tuple through a
// scheduler-queue crossing synchronously on the calling goroutine: the
// source emits into the work operator's queue, then the queue is drained
// with a batch pop and executed (work runs inline into the recyclable
// sink). The engine is never started, so every step of the crossing —
// clone-into-queue, release-original, batch pop, sink recycle — happens on
// one goroutine, which is what testing.AllocsPerRun can measure.
func syncCrossingStep(tb testing.TB, g *graph.Graph) func() {
	tb.Helper()
	e, err := New(g, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	place := make([]bool, g.NumNodes())
	place[1] = true // queue in front of the work operator
	if err := e.ApplyPlacement(place); err != nil {
		tb.Fatal(err)
	}
	cfg := e.cfg.Load()
	em := e.newEmitter(e.reconfigTS)
	em.cfg = cfg
	gen := g.Node(0).Op.(spl.Source)
	q := cfg.queues[1]
	batch := make([]item, workerBatch)
	return func() {
		em.node = 0
		gen.Next(em)
		if k := q.TryPopN(batch); k > 0 {
			e.executeBatch(em, 1, batch[:k])
		}
	}
}

// TestQueueCrossingSteadyStateAllocFree is the benchmark guard for the
// tuple-pooling work: once the pools are warm, pushing a tuple across a
// scheduler queue and through a recyclable sink allocates nothing.
func TestQueueCrossingSteadyStateAllocFree(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("sync.Pool randomly drops Puts under the race detector")
	}
	g, _ := hotChain(t, 0, 256, 0)
	step := syncCrossingStep(t, g)
	for i := 0; i < 128; i++ {
		step() // warm the tuple and payload pools
	}
	avg := testing.AllocsPerRun(5000, step)
	if avg > 0.05 {
		t.Fatalf("steady-state queue crossing allocates %.3f allocs/op, want ~0", avg)
	}
}

// TestIdleWorkersParkAndWake checks the park/wake protocol end to end: once
// the pipeline runs out of tuples every worker parks (visible in the waiter
// count), a direct enqueue plus wake resumes processing, and the woken
// worker parks again when the queue is dry.
func TestIdleWorkersParkAndWake(t *testing.T) {
	const tuples = 50
	g, sink := hotChain(t, tuples, 8, 0)
	e := startEngine(t, g, Options{MaxThreads: 4})
	place := make([]bool, g.NumNodes())
	place[1], place[2] = true, true
	if err := e.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
	if err := e.SetThreadCount(2); err != nil {
		t.Fatal(err)
	}
	waitCount(t, sink, tuples, 5*time.Second)

	waitWaiters := func(want int32) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if e.waiters.Load() == want {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("waiters = %d, want %d", e.waiters.Load(), want)
	}
	waitWaiters(2) // both workers idle-parked, burning no CPU

	// A producer-side push plus wake must pull a parked worker back out.
	cfg := e.cfg.Load()
	if !cfg.queues[2].TryPush(item{port: 0, t: &spl.Tuple{Seq: 999}}) {
		t.Fatal("failed to enqueue directly to the sink queue")
	}
	e.wakeWorkers(1)
	waitCount(t, sink, tuples+1, 5*time.Second)
	waitWaiters(2) // and it parks again once the queue is dry

	// Shrinking the pool must wake the retiring parked worker so it exits.
	if err := e.SetThreadCount(1); err != nil {
		t.Fatal(err)
	}
	waitWaiters(1)
}

// BenchmarkQueueCrossingSync measures the per-tuple cost of one scheduler
// queue crossing (clone into queue, batch pop, inline execute, sink
// recycle) with no goroutine handoff, isolating the hot path's CPU and
// allocator behaviour from scheduling noise.
func BenchmarkQueueCrossingSync(b *testing.B) {
	g, _ := hotChain(b, 0, 256, 0)
	step := syncCrossingStep(b, g)
	for i := 0; i < 128; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkIdleWorkerCPU measures how much process CPU time a fully idle
// engine burns per wall-clock second with four scheduler threads parked.
// With the old 50µs sleep-poll this was a steady busy-wait cost; with
// condition-variable parking it should be approximately zero.
func BenchmarkIdleWorkerCPU(b *testing.B) {
	g, _ := hotChain(b, 1, 8, 0)
	e, err := New(g, Options{MaxThreads: 8})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer e.Stop()
	place := make([]bool, g.NumNodes())
	place[1], place[2] = true, true
	if err := e.ApplyPlacement(place); err != nil {
		b.Fatal(err)
	}
	if err := e.SetThreadCount(4); err != nil {
		b.Fatal(err)
	}
	e.Drain()
	e.WaitIdle(time.Second)
	time.Sleep(20 * time.Millisecond) // let the workers park

	window := time.Duration(b.N) * 100 * time.Microsecond
	if window < 200*time.Millisecond {
		window = 200 * time.Millisecond
	}
	var r0, r1 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &r0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	time.Sleep(window)
	b.StopTimer()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &r1); err != nil {
		b.Fatal(err)
	}
	cpu := rusageCPU(&r1) - rusageCPU(&r0)
	b.ReportMetric(float64(cpu.Milliseconds())/window.Seconds(), "cpu-ms/s")
}

func rusageCPU(r *syscall.Rusage) time.Duration {
	return time.Duration(r.Utime.Sec+r.Stime.Sec)*time.Second +
		time.Duration(r.Utime.Usec+r.Stime.Usec)*time.Microsecond
}
