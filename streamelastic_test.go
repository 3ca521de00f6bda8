package streamelastic

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// buildPipeline constructs a small synthetic pipeline through the public
// API.
func buildPipeline(t *testing.T, workOps int, flops float64, payload int, maxTuples uint64) (*Topology, *CountingSink) {
	t.Helper()
	top := NewTopology()
	gen := NewGenerator("src", payload)
	gen.MaxTuples = maxTuples
	prev := top.AddSource(gen, 0)
	for i := 0; i < workOps; i++ {
		id := top.AddOperator(NewWorkOp("w", flops), flops)
		if err := top.Connect(prev, 0, id, 0); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	sink := NewCountingSink("snk")
	sid := top.AddOperator(sink, 0)
	if err := top.Connect(prev, 0, sid, 0); err != nil {
		t.Fatal(err)
	}
	return top, sink
}

func TestTopologyValidation(t *testing.T) {
	top := NewTopology()
	if _, err := NewRuntime(top, RuntimeOptions{}); err == nil {
		t.Fatal("empty topology accepted")
	}

	top2 := NewTopology()
	src := top2.AddSource(NewGenerator("s", 0), 0)
	op := top2.AddOperator(NewCountingSink("c"), 0)
	if err := top2.ConnectRate(src, 0, op, 0, -1); err == nil {
		t.Fatal("negative rate accepted")
	}
	if err := top2.Connect(src, 0, op, 0); err != nil {
		t.Fatal(err)
	}
	if top2.NumOperators() != 2 {
		t.Fatalf("NumOperators = %d, want 2", top2.NumOperators())
	}
}

func TestTopologyReuseAcrossEngines(t *testing.T) {
	top, _ := buildPipeline(t, 3, 10, 8, 100)
	if _, err := NewSimulation(top, Xeon176(), SimOptions{}); err != nil {
		t.Fatal(err)
	}
	// The same frozen topology can be reused.
	if _, err := NewSimulation(top, Power8(), SimOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeLiveEndToEnd(t *testing.T) {
	const n = 2000
	top, sink := buildPipeline(t, 4, 100, 16, n)
	rt, err := NewRuntime(top, RuntimeOptions{AdaptPeriod: 20 * time.Millisecond, MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	deadline := time.Now().Add(20 * time.Second)
	for sink.Count() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := sink.Count(); got != n {
		t.Fatalf("sink received %d tuples, want %d", got, n)
	}
	if rt.SinkCount() != n {
		t.Fatalf("SinkCount = %d, want %d", rt.SinkCount(), n)
	}
	if rt.Threads() < 1 {
		t.Fatal("no scheduler threads")
	}
	if len(rt.Placement()) != top.NumOperators() {
		t.Fatal("placement length mismatch")
	}
	rt.Stop() // idempotent
}

func TestRuntimeStartTwice(t *testing.T) {
	top, _ := buildPipeline(t, 2, 1, 0, 10)
	rt, err := NewRuntime(top, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if err := rt.Start(context.Background()); err == nil {
		t.Fatal("second Start succeeded")
	}
}

func TestRuntimeDisableElasticity(t *testing.T) {
	top, sink := buildPipeline(t, 2, 1, 0, 500)
	rt, err := NewRuntime(top, RuntimeOptions{DisableElasticity: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for sink.Count() < 500 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sink.Count() != 500 {
		t.Fatalf("sink = %d, want 500", sink.Count())
	}
	if !rt.Settled() {
		t.Fatal("elasticity-disabled runtime must report settled")
	}
	if rt.Trace() != nil {
		t.Fatal("elasticity-disabled runtime has a trace")
	}
}

func TestSimulationAdaptsPipeline(t *testing.T) {
	top, _ := buildPipeline(t, 98, 100, 1024, 0)
	s, err := NewSimulation(top, Xeon176(), SimOptions{PayloadBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	manualBase := s.Throughput()
	steps, ok, err := s.RunUntilSettled(5000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("simulation did not settle in %d steps", steps)
	}
	if !s.Settled() {
		t.Fatal("Settled() = false")
	}
	if s.Throughput() < 2*manualBase {
		t.Fatalf("adapted throughput %v < 2x manual %v", s.Throughput(), manualBase)
	}
	if s.Queues() == 0 {
		t.Fatal("no queues placed")
	}
	if s.Threads() < 2 {
		t.Fatal("threads not raised")
	}
	if s.Now() <= 0 {
		t.Fatal("virtual clock did not advance")
	}
	tr := s.Trace()
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
	var phases []string
	for _, e := range tr {
		phases = append(phases, string(e.Phase))
	}
	joined := strings.Join(phases, ",")
	for _, want := range []string{"init-threading-model", "thread-count", "settled"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace missing phase %q", want)
		}
	}
}

func TestSimulationStepAfterSettle(t *testing.T) {
	top, _ := buildPipeline(t, 10, 100, 64, 0)
	s, err := NewSimulation(top, Xeon176().WithCores(8), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.RunUntilSettled(3000); err != nil || !ok {
		t.Fatalf("settle failed: %v", err)
	}
	for i := 0; i < 10; i++ {
		settled, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !settled {
			t.Fatal("left settled state under steady workload")
		}
	}
}

func TestSimulationCustomElasticConfig(t *testing.T) {
	top, _ := buildPipeline(t, 10, 100, 64, 0)
	cfg := DefaultElasticConfig()
	cfg.Sens = 0.10
	cfg.UseHistory = false
	s, err := NewSimulation(top, Power8(), SimOptions{Elastic: cfg, Seed: 42, Period: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.RunUntilSettled(3000); err != nil || !ok {
		t.Fatalf("settle failed: %v", err)
	}
	// The virtual clock advances by the custom 1s period.
	tr := s.Trace()
	if tr[0].Time != time.Second {
		t.Fatalf("first event at %v, want 1s period", tr[0].Time)
	}
}

func TestMarkContendedFlowsToModel(t *testing.T) {
	top := NewTopology()
	src := top.AddSource(NewGenerator("s", 0), 0)
	snk := top.AddOperator(NewCountingSink("c"), 1)
	if err := top.Connect(src, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	top.MarkContended(snk)
	s, err := NewSimulation(top, Xeon176(), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestThrottledSourceInRuntime(t *testing.T) {
	top := NewTopology()
	gen := NewGenerator("src", 8)
	src := top.AddSource(NewThrottle(gen, 2000), 0)
	sample := top.AddOperator(NewSample("sample", 2), 0)
	union := top.AddOperator(NewUnion("union"), 0)
	sink := NewCountingSink("snk")
	snk := top.AddOperator(sink, 0)
	if err := top.Connect(src, 0, sample, 0); err != nil {
		t.Fatal(err)
	}
	if err := top.ConnectRate(sample, 0, union, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := top.Connect(union, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(top, RuntimeOptions{DisableElasticity: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	time.Sleep(500 * time.Millisecond)
	got := sink.Count()
	// 2000/s throttled, sampled 1:2, over ~0.5s => ~500; allow wide slack.
	if got < 100 || got > 1500 {
		t.Fatalf("throttled+sampled sink count = %d over 500ms", got)
	}
}

func TestSimulationWarmStart(t *testing.T) {
	top, _ := buildPipeline(t, 50, 100, 1024, 0)
	cold, err := NewSimulation(top, Xeon176(), SimOptions{PayloadBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cold.RunUntilSettled(5000); err != nil || !ok {
		t.Fatalf("cold settle failed: %v", err)
	}
	snap := cold.ConfigSnapshot()

	warm, err := NewSimulation(top, Xeon176(), SimOptions{PayloadBytes: 1024, WarmStart: &snap})
	if err != nil {
		t.Fatal(err)
	}
	steps, ok, err := warm.RunUntilSettled(5)
	if err != nil || !ok {
		t.Fatalf("warm start did not settle (steps %d): %v", steps, err)
	}
	if warm.Threads() != snap.Threads || warm.Queues() != cold.Queues() {
		t.Fatalf("warm config (T=%d Q=%d) differs from snapshot (T=%d Q=%d)",
			warm.Threads(), warm.Queues(), snap.Threads, cold.Queues())
	}
}

// Godoc examples exercising the public API end to end.

func ExampleNewSimulation() {
	top := NewTopology()
	src := top.AddSource(NewGenerator("src", 1024), 0)
	prev := src
	for i := 0; i < 20; i++ {
		id := top.AddOperator(NewWorkOp("stage", 5000), 5000)
		if err := top.Connect(prev, 0, id, 0); err != nil {
			fmt.Println(err)
			return
		}
		prev = id
	}
	snk := top.AddOperator(NewCountingSink("sink"), 0)
	if err := top.Connect(prev, 0, snk, 0); err != nil {
		fmt.Println(err)
		return
	}
	s, err := NewSimulation(top, Xeon176(), SimOptions{PayloadBytes: 1024})
	if err != nil {
		fmt.Println(err)
		return
	}
	before := s.Throughput()
	if _, ok, err := s.RunUntilSettled(5000); err != nil || !ok {
		fmt.Println("did not settle", err)
		return
	}
	fmt.Println("adapted faster than manual:", s.Throughput() > 2*before)
	fmt.Println("queues placed:", s.Queues() > 0)
	// Output:
	// adapted faster than manual: true
	// queues placed: true
}

func TestRuntimeWarmStart(t *testing.T) {
	top, _ := buildPipeline(t, 6, 2000, 64, 0)
	opts := RuntimeOptions{AdaptPeriod: 20 * time.Millisecond, MaxThreads: 4}
	cold, err := NewRuntime(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	snap := cold.ConfigSnapshot()
	cold.Stop()
	if snap == nil {
		t.Fatal("elastic runtime returned no snapshot")
	}

	opts.WarmStart = snap
	warm, err := NewRuntime(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(warm.Placement()) != fmt.Sprint(snap.Placement) || warm.Threads() != snap.Threads {
		t.Fatalf("warm runtime begins at placement %v threads %d, snapshot has %v threads %d",
			warm.Placement(), warm.Threads(), snap.Placement, snap.Threads)
	}
	if err := warm.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer warm.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for len(warm.Trace()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	trace := warm.Trace()
	if len(trace) == 0 {
		t.Fatal("warm runtime recorded no adaptation")
	}
	if trace[0].Phase != "settled" {
		t.Fatalf("warm runtime's first trace event is %q, want settled", trace[0].Phase)
	}

	opts.WarmStart = &ConfigSnapshot{Placement: []bool{true}, Threads: 1}
	if _, err := NewRuntime(top, opts); err == nil {
		t.Fatal("snapshot of another topology accepted")
	}
}

// TestRuntimeDrainAndStop drains a bounded source's tuples still in flight
// behind two costly operators when the source has finished.
func TestRuntimeDrainAndStop(t *testing.T) {
	const n = 2000
	top := NewTopology()
	gen := NewGenerator("src", 16)
	gen.MaxTuples = n
	var emitted atomic.Uint64
	prev := top.AddSource(gen, 0)
	id := top.AddOperator(NewMap("count", func(tp *Tuple) *Tuple { emitted.Add(1); return tp }), 0)
	if err := top.Connect(prev, 0, id, 0); err != nil {
		t.Fatal(err)
	}
	prev = id
	for i := 0; i < 2; i++ {
		id := top.AddOperator(NewWorkOp("w", 20000), 20000)
		if err := top.Connect(prev, 0, id, 0); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	if err := top.Connect(prev, 0, top.AddOperator(NewCountingSink("snk"), 0), 0); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(top, RuntimeOptions{AdaptPeriod: 20 * time.Millisecond, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for emitted.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !rt.DrainAndStop(10 * time.Second) {
		t.Fatal("bounded pipeline did not drain")
	}
	if got := rt.SinkCount(); got != n {
		t.Fatalf("SinkCount = %d after drain, want %d", got, n)
	}
}
