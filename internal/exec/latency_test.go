package exec

import (
	"math"
	"sync"
	"testing"
	"time"

	"streamelastic/internal/core"
	"streamelastic/internal/graph"
	"streamelastic/internal/spl"
)

func TestLatencyTracking(t *testing.T) {
	const n = 1000
	g, sink := buildChain(t, 3, n, 100)
	e := startEngine(t, g, Options{TrackLatency: true})
	waitCount(t, sink, n, 10*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for e.Latency().Count < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	snap := e.Latency()
	if snap.Count != n {
		t.Fatalf("latency samples = %d, want %d", snap.Count, n)
	}
	if snap.Mean <= 0 || snap.P99 <= 0 {
		t.Fatalf("latency snapshot not populated: %+v", snap)
	}
	if !(snap.P50 <= snap.P95 && snap.P95 <= snap.P99) {
		t.Fatalf("quantiles not ordered: %+v", snap)
	}
	// End-to-end latency on an in-process pipeline must be far below a
	// second.
	if snap.P99 > 5*time.Second {
		t.Fatalf("implausible p99 latency %v", snap.P99)
	}
}

func TestLatencyDisabledByDefault(t *testing.T) {
	const n = 200
	g, sink := buildChain(t, 2, n, 10)
	e := startEngine(t, g, Options{})
	waitCount(t, sink, n, 10*time.Second)
	if got := e.Latency().Count; got != 0 {
		t.Fatalf("latency recorded %d samples with tracking disabled", got)
	}
}

// TestLatencySnapshotOrdering checks the summary Latency reads off the
// engine's log2 latency histogram: quantiles ordered and within one bucket
// of the truth, the mean exact, and values from the top buckets — past the
// int64 nanosecond range — saturating instead of wrapping negative.
func TestLatencySnapshotOrdering(t *testing.T) {
	g, _ := buildChain(t, 1, 1, 0)
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		e.latency.Observe(time.Duration(i) * time.Microsecond)
	}
	s := e.Latency()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if !(s.P50 <= s.P95 && s.P95 <= s.P99) {
		t.Fatalf("quantiles not ordered: %+v", s)
	}
	if s.P50 < 500*time.Microsecond || s.P50 > time.Millisecond {
		t.Fatalf("p50 = %v, want the top of 500µs's log2 bucket", s.P50)
	}
	if s.Mean != 500500*time.Nanosecond {
		t.Fatalf("mean = %v, want 500.5µs", s.Mean)
	}

	huge, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	huge.latency.Observe(math.MaxInt64)
	if s := huge.Latency(); s.P99 != math.MaxInt64 || s.Mean != math.MaxInt64 {
		t.Fatalf("top-bucket snapshot = %+v, want p99 and mean saturated at MaxInt64", s)
	}
}

// panicOp panics on every k-th tuple.
type panicOp struct {
	name  string
	every uint64
}

func (p *panicOp) Name() string { return p.name }

func (p *panicOp) Process(_ int, t *spl.Tuple, out spl.Emitter) {
	if p.every > 0 && t.Seq%p.every == 0 {
		panic("injected operator failure")
	}
	out.Emit(0, t)
}

func TestOperatorPanicContained(t *testing.T) {
	const n = 1000
	g := graph.New()
	gen := spl.NewGenerator("src", 8)
	gen.MaxTuples = n
	src := g.AddSource(gen, nil)
	bad := g.AddOperator(&panicOp{name: "flaky", every: 10}, nil)
	sink := spl.NewCountingSink("snk")
	snk := g.AddOperator(sink, nil)
	if err := g.Connect(src, 0, bad, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(bad, 0, snk, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	e := startEngine(t, g, Options{})
	// Every 10th tuple panics (seq 0, 10, ...): 900 survive.
	waitCount(t, sink, 900, 10*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for e.OperatorPanics() < 100 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := e.OperatorPanics(); got != 100 {
		t.Fatalf("operator panics = %d, want 100", got)
	}
	if got := sink.Count(); got != 900 {
		t.Fatalf("sink received %d, want 900", got)
	}
}

func TestOperatorPanicContainedUnderDynamicModel(t *testing.T) {
	const n = 1000
	g := graph.New()
	gen := spl.NewGenerator("src", 8)
	gen.MaxTuples = n
	src := g.AddSource(gen, nil)
	bad := g.AddOperator(&panicOp{name: "flaky", every: 4}, nil)
	sink := spl.NewCountingSink("snk")
	snk := g.AddOperator(sink, nil)
	if err := g.Connect(src, 0, bad, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(bad, 0, snk, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	e := startEngine(t, g, Options{})
	place := make([]bool, g.NumNodes())
	place[bad] = true
	place[snk] = true
	if err := e.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
	if err := e.SetThreadCount(4); err != nil {
		t.Fatal(err)
	}
	waitCount(t, sink, 750, 15*time.Second)
	if got := sink.Count(); got != 750 {
		t.Fatalf("sink received %d, want 750", got)
	}
}

// TestReorderRestoresOrderUnderDynamicModel runs a pipeline whose middle
// stage executes under the dynamic model with several threads (which may
// reorder tuples) followed by a Reorder operator, and asserts the sink
// observes strictly ascending sequence numbers.
func TestReorderRestoresOrderUnderDynamicModel(t *testing.T) {
	const n = 3000
	g := graph.New()
	gen := spl.NewGenerator("src", 8)
	gen.MaxTuples = n
	src := g.AddSource(gen, nil)
	cv := spl.NewCostVar(500)
	work := g.AddOperator(spl.NewWork("w", cv), cv)
	reorder := g.AddOperator(spl.NewReorder("seq", 0, 4096), nil)
	var mu sync.Mutex
	var seqs []uint64
	sink := spl.NewMap("check", func(tp *spl.Tuple) *spl.Tuple {
		mu.Lock()
		seqs = append(seqs, tp.Seq)
		mu.Unlock()
		return nil
	})
	snk := g.AddOperator(sink, nil)
	for _, c := range [][2]graph.NodeID{{src, work}, {work, reorder}, {reorder, snk}} {
		if err := g.Connect(c[0], 0, c[1], 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	e := startEngine(t, g, Options{})
	place := make([]bool, g.NumNodes())
	place[work] = true
	if err := e.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
	if err := e.SetThreadCount(4); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		got := len(seqs)
		mu.Unlock()
		if got >= n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != n {
		t.Fatalf("sink saw %d tuples, want %d", len(seqs), n)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("sequence violated at %d: got %d", i, s)
		}
	}
}

// TestLivePhaseChangeReadaptation is the live-engine counterpart of the
// paper's Fig. 13: after the coordinator settles, the workload's operator
// costs shift heavily; the coordinator must detect the change and re-adapt
// while real tuples keep flowing.
func TestLivePhaseChangeReadaptation(t *testing.T) {
	if testing.Short() {
		t.Skip("live adaptation test skipped in -short mode")
	}
	g := graph.New()
	gen := spl.NewGenerator("src", 64)
	src := g.AddSource(gen, nil)
	prev := src
	costs := make([]*spl.CostVar, 0, 6)
	for i := 0; i < 6; i++ {
		cv := spl.NewCostVar(2_000)
		costs = append(costs, cv)
		id := g.AddOperator(spl.NewWork("w", cv), cv)
		if err := g.Connect(prev, 0, id, 0, 1); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	snk := g.AddOperator(spl.NewCountingSink("snk"), nil)
	if err := g.Connect(prev, 0, snk, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	e := startEngine(t, g, Options{AdaptPeriod: 50 * time.Millisecond, MaxThreads: 8})
	cfg := core.DefaultConfig()
	cfg.MaxThreads = 8
	coord, err := core.NewCoordinator(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := coord.RunUntilSettled(600); err != nil || !ok {
		t.Fatalf("initial live settle failed: %v", err)
	}
	// Phase change: every stage becomes 50x heavier.
	for _, cv := range costs {
		cv.Set(100_000)
	}
	left, resettled := false, false
	for i := 0; i < 600; i++ {
		settled, err := coord.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !settled {
			left = true
		}
		if left && settled {
			resettled = true
			break
		}
	}
	if !left {
		t.Fatal("live workload change not detected")
	}
	if !resettled {
		t.Fatal("live re-adaptation did not settle")
	}
}
