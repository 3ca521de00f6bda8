package exec

import (
	"sync"
	"testing"
	"time"

	"streamelastic/internal/fault"
	"streamelastic/internal/graph"
	"streamelastic/internal/racebuild"
	"streamelastic/internal/spl"
)

// progsOf returns the current config's compiled-program table (nil when
// compilation produced nothing).
func progsOf(e *Engine) []*regionProgram { return e.cfg.Load().progs }

// interpret drops the current config's compiled programs, so the engine runs
// every delivery through the interpreted tuple-at-a-time path — the oracle
// the compiled path is checked against. Call it after the last placement
// change: ApplyPlacement recompiles.
func interpret(e *Engine) {
	cfg := *e.cfg.Load()
	cfg.progs = nil
	e.cfg.Store(&cfg)
}

// TestRegionCompilationShapes pins the compiler's structural rules: which
// heads get programs and where chains stop.
func TestRegionCompilationShapes(t *testing.T) {
	g, _ := buildChain(t, 3, 0, 0) // src -> w -> w -> w -> sink

	t.Run("all-manual compiles one source program", func(t *testing.T) {
		e, err := New(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		progs := progsOf(e)
		if progs == nil || progs[0] == nil {
			t.Fatal("no source-head program for an all-manual chain")
		}
		p := progs[0]
		if len(p.steps) != 4 {
			t.Fatalf("source program has %d steps, want 4 (3 work + sink)", len(p.steps))
		}
		if !p.steps[3].sink {
			t.Fatal("last step of a full chain is not a sink step")
		}
		for i := 1; i < len(progs); i++ {
			if progs[i] != nil {
				t.Fatalf("unexpected program at node %d", i)
			}
		}
	})

	t.Run("mid-queue splits the chain into two programs", func(t *testing.T) {
		e, err := New(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		place := make([]bool, g.NumNodes())
		place[2] = true // queue in front of the middle work operator
		if err := e.ApplyPlacement(place); err != nil {
			t.Fatal(err)
		}
		progs := progsOf(e)
		if progs == nil {
			t.Fatal("no programs after placing a queue")
		}
		// The source's manual prefix is src -> w1 -> (queue): one operator
		// followed by the boundary is a lone exit step, which is exactly
		// the interpreted path — correctly elided.
		if progs[0] != nil {
			t.Fatalf("source program = %+v, want nil (lone exit step)", progs[0])
		}
		if progs[2] == nil || len(progs[2].steps) != 3 {
			t.Fatalf("queue-head program = %+v, want head work + work + sink", progs[2])
		}
		if progs[2].steps[0].node != 2 || !progs[2].steps[2].sink {
			t.Fatalf("queue-head program steps wrong: %+v", progs[2].steps)
		}
	})

	t.Run("all-dynamic compiles nothing", func(t *testing.T) {
		e, err := New(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		place := make([]bool, g.NumNodes())
		for i := 1; i < len(place); i++ {
			place[i] = true
		}
		if err := e.ApplyPlacement(place); err != nil {
			t.Fatal(err)
		}
		// Every interior region is a lone dynamic operator followed by
		// another queue — a lone exit step, elided. Only the dynamic sink
		// keeps a program: its single sink step batches the sink meter and
		// recycle even with no chain behind it.
		progs := progsOf(e)
		if progs == nil {
			t.Fatal("no program table under all-dynamic placement")
		}
		for i, p := range progs {
			if i == g.NumNodes()-1 {
				if p == nil || len(p.steps) != 1 || !p.steps[0].sink {
					t.Fatalf("dynamic sink program = %+v, want a single sink step", p)
				}
				continue
			}
			if p != nil {
				t.Fatalf("node %d has a program under all-dynamic placement: %+v", i, p)
			}
		}
	})

	t.Run("fault injector keeps compilation", func(t *testing.T) {
		inj := fault.New(1)
		e, err := New(g, Options{Fault: inj})
		if err != nil {
			t.Fatal(err)
		}
		if progs := progsOf(e); progs == nil || progs[0] == nil || len(progs[0].steps) != 4 {
			t.Fatal("no full source program with a fault injector installed; chaos must run the compiled path")
		}
	})
}

// TestRecompileOnReconfigure flips queue placements repeatedly mid-run and
// checks (a) the compiled program set always matches the live placement,
// (b) no tuple is lost or duplicated across the recompilations, and (c)
// cost attribution still ranks the heavy operator first — the controller's
// argmax must not care whether regions were compiled, interpreted, or
// switched between the two mid-stream.
func TestRecompileOnReconfigure(t *testing.T) {
	const tuples = 30000
	g := graph.New()
	gen := spl.NewGenerator("src", 8)
	gen.MaxTuples = tuples
	src := g.AddSource(gen, spl.NewCostVar(0))
	light := spl.NewCostVar(200)
	w1 := g.AddOperator(spl.NewWork("light", light), light)
	if err := g.Connect(src, 0, w1, 0, 1); err != nil {
		t.Fatal(err)
	}
	heavy := spl.NewCostVar(100000)
	w2 := g.AddOperator(spl.NewWork("heavy", heavy), heavy)
	if err := g.Connect(w1, 0, w2, 0, 1); err != nil {
		t.Fatal(err)
	}
	sink := spl.NewCountingSink("snk")
	sid := g.AddOperator(sink, nil)
	if err := g.Connect(w2, 0, sid, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}

	e := startEngine(t, g, Options{MaxThreads: 4})
	if err := e.SetThreadCount(2); err != nil {
		t.Fatal(err)
	}

	placements := [][]bool{
		{false, false, false, false}, // all manual: one source program
		{false, true, false, false},  // queue at light
		{false, false, true, false},  // queue at heavy
		{false, true, true, true},    // all dynamic: no programs
		{false, false, true, true},   // queue at heavy and sink
	}
	for round := 0; round < 10; round++ {
		place := placements[round%len(placements)]
		if err := e.ApplyPlacement(place); err != nil {
			t.Fatal(err)
		}
		progs := progsOf(e)
		for n := 0; n < g.NumNodes(); n++ {
			hasQueue := place[n]
			if hasQueue && progs != nil && progs[n] != nil && progs[n].steps[0].node != graph.NodeID(n) {
				t.Fatalf("round %d: program at queue node %d starts at node %d", round, n, progs[n].steps[0].node)
			}
			if !hasQueue && n != 0 && progs != nil && progs[n] != nil {
				t.Fatalf("round %d: manual non-source node %d has a queue-head program", round, n)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitCount(t, sink, tuples, 30*time.Second)
	if !e.DrainAndStop(10 * time.Second) {
		t.Fatal("engine did not drain")
	}
	if got := sink.Count(); got != tuples {
		t.Fatalf("sink saw %d tuples across recompilations, want exactly %d", got, tuples)
	}
	checkSchedConservation(t, e)

	cost := e.CostMetric()
	argmax := 0
	for i, c := range cost {
		if c > cost[argmax] {
			argmax = i
		}
	}
	if argmax != int(w2) {
		t.Fatalf("cost metric argmax = node %d (%v), want heavy node %d", argmax, cost, w2)
	}
}

// TestFusedConservationUnderShrink runs the burst topology with a compiled
// manual tail (work -> sink) hanging off a dynamic expand, shrinks the pool
// mid-run, and requires exact delivery plus the deque-flow invariant — the
// compiled path must conserve tuples under steals and retiring workers just
// like the interpreted one.
func TestFusedConservationUnderShrink(t *testing.T) {
	const tuples, factor = 2000, 8
	g, sink := expandChain(t, tuples, factor, 100)
	e := startEngine(t, g, Options{MaxThreads: 8})
	// Queue at expand and at work; work's region (work -> sink) compiles.
	place := make([]bool, g.NumNodes())
	place[1], place[2] = true, true
	if err := e.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
	if progs := progsOf(e); progs == nil || progs[2] == nil {
		t.Fatal("no compiled program at the work queue; test is not exercising the fused path")
	}
	if err := e.SetThreadCount(4); err != nil {
		t.Fatal(err)
	}
	waitCount(t, sink, 1000, 10*time.Second) // mid-flight
	if err := e.SetThreadCount(1); err != nil {
		t.Fatal(err)
	}
	waitCount(t, sink, tuples*factor, 30*time.Second)
	if !e.DrainAndStop(20 * time.Second) {
		t.Fatal("engine did not drain after shrink")
	}
	if got := sink.Count(); got != tuples*factor {
		t.Fatalf("sink saw %d tuples after shrink, want %d", got, tuples*factor)
	}
	checkSchedConservation(t, e)
	if s := e.SchedStats(); s.FusedTuples == 0 {
		t.Fatal("fused counters never moved; compiled path not taken")
	}
}

// syncFusedSourceStep drives a source-head compiled region synchronously:
// the generator's batched emissions are captured into the emitter's source
// buffer exactly as sourceLoop would, then flushed through the compiled
// program on the calling goroutine.
func syncFusedSourceStep(tb testing.TB, g *graph.Graph, srcBatch int) func() {
	tb.Helper()
	e, err := New(g, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := e.cfg.Load()
	if cfg.progs == nil || cfg.progs[0] == nil {
		tb.Fatal("no compiled source program for the all-manual chain")
	}
	em := e.newEmitter(e.reconfigTS)
	em.cfg = cfg
	em.srcProg = cfg.progs[0]
	gen := g.Node(0).Op.(spl.Source)
	if sg, ok := gen.(*spl.Generator); ok {
		sg.Batch = srcBatch
	}
	return func() {
		em.node = 0
		gen.Next(em)
		if len(em.srcBuf) > 0 {
			e.flushSource(em)
		}
	}
}

// TestFusedSourceSteadyStateAllocFree holds the compiled source-batch path
// to the same bar as the queue-crossing guards: capture, flush, every chain
// stage, and the sink recycle allocate nothing once buffers are warm.
func TestFusedSourceSteadyStateAllocFree(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("sync.Pool randomly drops Puts under the race detector")
	}
	g, _ := buildChainB(t, 4, 0, 0)
	step := syncFusedSourceStep(t, g, 32)
	for i := 0; i < 128; i++ {
		step() // warm the tuple pool and the region scratch buffers
	}
	avg := testing.AllocsPerRun(2000, step)
	if avg > 0.05 {
		t.Fatalf("compiled source batch allocates %.3f allocs/op, want ~0", avg)
	}
}

// passStage is a stateful operator that forwards every tuple and closes
// passed once the first has gone through.
type passStage struct {
	passed chan struct{}
	once   sync.Once
}

func (*passStage) Name() string { return "pass" }
func (*passStage) Stateful()    {}

func (o *passStage) Process(_ int, t *spl.Tuple, em spl.Emitter) {
	em.Emit(0, t)
	o.once.Do(func() { close(o.passed) })
}

// overtakeSink records arrival order. Its first call waits up to 50ms for
// a later call to record first, so any run that can pass the first one
// downstream of the stateful step does so deterministically.
type overtakeSink struct {
	calls     int
	mu        sync.Mutex
	seqs      []uint64
	overtaken chan struct{}
}

func (*overtakeSink) Name() string { return "overtake" }

func (o *overtakeSink) Process(_ int, t *spl.Tuple, _ spl.Emitter) {
	o.mu.Lock()
	o.calls++
	first := o.calls == 1
	if !first {
		o.seqs = append(o.seqs, t.Seq)
		close(o.overtaken)
	}
	o.mu.Unlock()
	if !first {
		return
	}
	select {
	case <-o.overtaken:
	case <-time.After(50 * time.Millisecond):
	}
	o.mu.Lock()
	o.seqs = append(o.seqs, t.Seq)
	o.mu.Unlock()
}

// TestStatefulOutputOrderAcrossRegionRuns runs two compiled-region runs of
// src -> stateful -> sink on two goroutines, the second starting once the
// first run's tuple has passed the stateful step. The stateful lock must
// be held until the first run ends, as on the interpreted path, so the
// second tuple cannot overtake the first on the way to the sink.
func TestStatefulOutputOrderAcrossRegionRuns(t *testing.T) {
	g := graph.New()
	src := g.AddSource(spl.NewGenerator("src", 8), nil)
	stage := &passStage{passed: make(chan struct{})}
	sid := g.AddOperator(stage, nil)
	sink := &overtakeSink{overtaken: make(chan struct{})}
	kid := g.AddOperator(sink, nil)
	for _, c := range [][2]graph.NodeID{{src, sid}, {sid, kid}} {
		if err := g.Connect(c[0], 0, c[1], 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.cfg.Load()
	if cfg.progs == nil || cfg.progs[src] == nil || cfg.progs[src].steps[0].mu == nil {
		t.Fatal("no compiled source program with a stateful head step")
	}
	p := cfg.progs[src]
	run := func(seq uint64) {
		em := e.newEmitter(e.profiler.Register())
		em.cfg = cfg
		tp := spl.AcquireTuple()
		tp.Seq = seq
		e.runRegion(em, p, []*spl.Tuple{tp}, p.steps[0].inPort)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); run(0) }()
	go func() { defer wg.Done(); <-stage.passed; run(1) }()
	wg.Wait()
	if len(sink.seqs) != 2 || sink.seqs[0] != 0 || sink.seqs[1] != 1 {
		t.Fatalf("sink order = %v, want [0 1]: the second run overtook the first past the stateful step", sink.seqs)
	}
}

// TestFusedQueueHeadMatchesScalarCounts pushes an identical bounded stream
// through a compiled queue-head region and through the interpreted path and
// requires identical sink counts — the cheap end-to-end equivalence check
// (FuzzBatchEquivalence compares full tuple values and order).
func TestFusedQueueHeadMatchesScalarCounts(t *testing.T) {
	counts := make(map[string]uint64)
	for _, mode := range []struct {
		name   string
		scalar bool
	}{{"fused", false}, {"scalar", true}} {
		g, sink := expandChain(t, 500, 4, 0)
		e, err := New(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		place := make([]bool, g.NumNodes())
		place[1] = true // queue at expand; expand -> work -> sink compiles
		if err := e.ApplyPlacement(place); err != nil {
			t.Fatal(err)
		}
		if progs := progsOf(e); progs == nil || progs[1] == nil {
			t.Fatal("no program at the expand queue")
		}
		if mode.scalar {
			interpret(e)
		}
		cfg := e.cfg.Load()
		em := e.newEmitter(e.reconfigTS)
		em.cfg = cfg
		gen := g.Node(0).Op.(spl.Source)
		q := cfg.queues[1]
		batch := make([]item, workerBatch)
		for {
			em.node = 0
			if !gen.Next(em) {
				break
			}
			for {
				k := q.TryPopN(batch)
				if k == 0 {
					break
				}
				e.executeBatch(em, 1, batch[:k])
			}
		}
		counts[mode.name] = sink.Count()
		if fused := e.SchedStats().FusedTuples; (fused == 0) != mode.scalar {
			t.Fatalf("%s run moved %d tuples through compiled programs", mode.name, fused)
		}
	}
	if counts["fused"] != counts["scalar"] || counts["fused"] != 500*4 {
		t.Fatalf("fused delivered %d, scalar %d, want both %d", counts["fused"], counts["scalar"], 500*4)
	}
}

// buildChainB is buildChain for benchmarks too (testing.TB).
func buildChainB(tb testing.TB, n int, tuples uint64, flops float64) (*graph.Graph, *spl.CountingSink) {
	tb.Helper()
	g := graph.New()
	gen := spl.NewGenerator("src", 8)
	gen.MaxTuples = tuples
	prev := g.AddSource(gen, spl.NewCostVar(0))
	for i := 0; i < n; i++ {
		cv := spl.NewCostVar(flops)
		id := g.AddOperator(spl.NewWork("w", cv), cv)
		if err := g.Connect(prev, 0, id, 0, 1); err != nil {
			tb.Fatal(err)
		}
		prev = id
	}
	sink := spl.NewCountingSink("snk")
	sid := g.AddOperator(sink, spl.NewCostVar(0))
	if err := g.Connect(prev, 0, sid, 0, 1); err != nil {
		tb.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		tb.Fatal(err)
	}
	return g, sink
}
