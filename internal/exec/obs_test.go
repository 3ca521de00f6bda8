package exec

import (
	"testing"
	"time"

	"streamelastic/internal/graph"
	"streamelastic/internal/obs"
	"streamelastic/internal/racebuild"
	"streamelastic/internal/spl"
)

// syncSamplingStep is syncCrossingStep with the sampling gate armed: the
// closure pushes one tuple through a scheduler-queue crossing synchronously,
// with every sampleEvery-th delivery timestamped and timed.
func syncSamplingStep(tb testing.TB, g *graph.Graph, sampleEvery int) func() {
	tb.Helper()
	e, err := New(g, Options{SampleEvery: sampleEvery})
	if err != nil {
		tb.Fatal(err)
	}
	place := make([]bool, g.NumNodes())
	place[1] = true
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

// TestSampledCrossingAllocFree guards the tentpole's hot-path promise: with
// the sampling gate selecting every delivery, a queue crossing still
// allocates nothing — the stamp, the queue-wait observe, and the operator
// histogram observe are all plain atomics.
func TestSampledCrossingAllocFree(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("sync.Pool randomly drops Puts under the race detector")
	}
	g, _ := hotChain(t, 0, 256, 0)
	step := syncSamplingStep(t, g, 1)
	for i := 0; i < 128; i++ {
		step()
	}
	avg := testing.AllocsPerRun(5000, step)
	if avg > 0.05 {
		t.Fatalf("sampled queue crossing allocates %.3f allocs/op, want ~0", avg)
	}
}

// TestSamplingFeedsHistograms checks the samples land where the exposition
// reads them: the engine-wide queue-wait histogram and the work operator's
// execution histogram.
func TestSamplingFeedsHistograms(t *testing.T) {
	g, _ := hotChain(t, 0, 64, 0)
	const n = 100
	reg := obs.NewRegistry()
	e2, err := New(g, Options{SampleEvery: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	place := make([]bool, g.NumNodes())
	place[1] = true
	if err := e2.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
	cfg := e2.cfg.Load()
	em := e2.newEmitter(e2.reconfigTS)
	em.cfg = cfg
	gen := g.Node(0).Op.(spl.Source)
	q := cfg.queues[1]
	batch := make([]item, workerBatch)
	for i := 0; i < n; i++ {
		em.node = 0
		gen.Next(em)
		if k := q.TryPopN(batch); k > 0 {
			e2.executeBatch(em, 1, batch[:k])
		}
	}
	var qwait, opexec uint64
	for _, s := range reg.Gather() {
		switch s.Name {
		case obs.MetricOpQueueWait:
			qwait += s.Hist.Count
		case obs.MetricOpExec:
			opexec += s.Hist.Count
		}
	}
	if qwait != n/2 {
		t.Fatalf("queue-wait samples = %d, want %d", qwait, n/2)
	}
	if opexec != n/2 {
		t.Fatalf("op-exec samples = %d, want %d", opexec, n/2)
	}
}

// TestSamplingDisabledStampsNothing asserts the off-by-default contract: no
// enqueue timestamps, no histogram observations.
func TestSamplingDisabledStampsNothing(t *testing.T) {
	g, _ := hotChain(t, 0, 64, 0)
	reg := obs.NewRegistry()
	e, err := New(g, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	place := make([]bool, g.NumNodes())
	place[1] = true
	if err := e.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
	cfg := e.cfg.Load()
	em := e.newEmitter(e.reconfigTS)
	em.cfg = cfg
	gen := g.Node(0).Op.(spl.Source)
	q := cfg.queues[1]
	batch := make([]item, workerBatch)
	for i := 0; i < 50; i++ {
		em.node = 0
		gen.Next(em)
		if k := q.TryPopN(batch); k > 0 {
			e.executeBatch(em, 1, batch[:k])
		}
	}
	for _, s := range reg.Gather() {
		if (s.Name == obs.MetricOpQueueWait || s.Name == obs.MetricOpExec) && s.Hist.Count != 0 {
			t.Fatalf("%s has %d samples with sampling disabled", s.Name, s.Hist.Count)
		}
	}
}

// TestEngineRegistersCoreSeries asserts the engine's registry exposes the
// scheduler, supervision, and latency families the /metrics contract needs.
func TestEngineRegistersCoreSeries(t *testing.T) {
	g, _ := hotChain(t, 0, 64, 0)
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range e.Registry().Gather() {
		names[s.Name] = true
	}
	for _, want := range []string{
		obs.MetricOperators, obs.MetricThreads, obs.MetricQueues,
		obs.MetricSinkTuples, obs.MetricPanics, obs.MetricQueueDepth,
		obs.MetricSchedLocalPushes, obs.MetricSchedSteals, obs.MetricSchedParks,
		obs.MetricSupQuarantines, obs.MetricSupActive,
		obs.MetricLatency, obs.MetricOpExec, obs.MetricOpQueueWait,
	} {
		if !names[want] {
			t.Fatalf("engine registry missing series %q (have %v)", want, names)
		}
	}
}

// TestRecorderCapturesQuarantine drives a panicking operator past its budget
// and asserts the supervisor recorded quarantine (and later release) events.
func TestRecorderCapturesQuarantine(t *testing.T) {
	g := graph.New()
	gen := spl.NewGenerator("src", 8)
	gen.MaxTuples = 0
	src := g.AddSource(gen, nil)
	boom := spl.NewMap("boom", func(tu *spl.Tuple) *spl.Tuple {
		panic("kaboom")
	})
	bid := g.AddOperator(boom, nil)
	if err := g.Connect(src, 0, bid, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewFlightRecorder(64)
	e, err := New(g, Options{
		PanicBudget:    2,
		QuarantineBase: 10 * time.Millisecond,
		Recorder:       rec,
		ObsPE:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.cfg.Load()
	em := e.newEmitter(e.reconfigTS)
	em.cfg = cfg
	gen2 := g.Node(0).Op.(spl.Source)
	for i := 0; i < 4; i++ {
		em.node = 0
		gen2.Next(em)
	}
	var quarantines int
	for _, ev := range rec.Events() {
		if ev.Kind == obs.EvQuarantine {
			quarantines++
			if ev.PE != 3 || ev.A != int64(bid) {
				t.Fatalf("quarantine event = %+v, want pe=3 a=%d", ev, bid)
			}
		}
	}
	if quarantines == 0 {
		t.Fatal("no quarantine event recorded")
	}
}

// BenchmarkQueueCrossingSampling measures the hot-path cost of the sampling
// gate at its three interesting settings: disabled (one compare), 1%
// (amortized stamps), and every tuple (worst case).
func BenchmarkQueueCrossingSampling(b *testing.B) {
	for _, bc := range []struct {
		name  string
		every int
	}{
		{"off", 0},
		{"1pct", 100},
		{"all", 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g, _ := hotChain(b, 0, 256, 0)
			step := syncSamplingStep(b, g, bc.every)
			for i := 0; i < 128; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
