package exec

import (
	"sync"
	"testing"
	"time"

	"streamelastic/internal/graph"
	"streamelastic/internal/queue"
	"streamelastic/internal/racebuild"
	"streamelastic/internal/spl"
)

// expandChain builds source -> expand(factor) -> work -> sink: one dequeued
// tuple turns into a burst, which is the workload shape that loads worker
// deques and provokes steals.
func expandChain(tb testing.TB, tuples uint64, factor int, flops float64) (*graph.Graph, *spl.CountingSink) {
	tb.Helper()
	g := graph.New()
	gen := spl.NewGenerator("src", 0)
	gen.MaxTuples = tuples
	src := g.AddSource(gen, nil)
	xp := g.AddOperator(spl.NewExpand("xp", factor), nil)
	if err := g.Connect(src, 0, xp, 0, 1); err != nil {
		tb.Fatal(err)
	}
	cv := spl.NewCostVar(flops)
	work := g.AddOperator(spl.NewWork("w", cv), cv)
	if err := g.Connect(xp, 0, work, 0, 1); err != nil {
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

// placeAllDynamic puts a scheduler queue in front of every non-source node.
func placeAllDynamic(t *testing.T, e *Engine, g *graph.Graph) {
	t.Helper()
	place := make([]bool, g.NumNodes())
	for i := range place {
		place[i] = !g.Node(graph.NodeID(i)).Source
	}
	if err := e.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
}

// checkSchedConservation asserts the deque flow invariant after a full
// drain: every tuple pushed onto a worker deque was either popped by its
// owner or stolen — nothing lost, nothing duplicated.
func checkSchedConservation(t *testing.T, e *Engine) {
	t.Helper()
	s := e.SchedStats()
	if s.LocalPushes != s.LocalPops+s.StolenTuples {
		t.Fatalf("deque flow not conserved: pushes=%d pops=%d stolen=%d",
			s.LocalPushes, s.LocalPops, s.StolenTuples)
	}
}

// TestEmitAffinityConservation runs a burst topology and checks that (a)
// every tuple arrives, (b) the affinity fast path actually carried traffic,
// (c) sources still injected through the shared queues, and (d) deque
// pushes balance pops plus steals. The placement lands after the source
// started, so on a fast machine the whole bounded stream can run inline
// before any worker emits; such a round proves nothing about affinity and
// is repeated, up to a round budget.
func TestEmitAffinityConservation(t *testing.T) {
	const tuples, factor, rounds = 500, 8, 20
	for round := 1; ; round++ {
		g, sink := expandChain(t, tuples, factor, 0)
		e := startEngine(t, g, Options{MaxThreads: 4})
		placeAllDynamic(t, e, g)
		if err := e.SetThreadCount(2); err != nil {
			t.Fatal(err)
		}
		waitCount(t, sink, tuples*factor, 10*time.Second)
		if !e.DrainAndStop(5 * time.Second) {
			t.Fatal("engine did not drain")
		}
		if got := sink.Count(); got != tuples*factor {
			t.Fatalf("sink saw %d tuples, want %d", got, tuples*factor)
		}
		checkSchedConservation(t, e)
		s := e.SchedStats()
		if s.LocalPushes == 0 {
			if round < rounds {
				continue
			}
			t.Fatalf("emit affinity never used in %d rounds: LocalPushes == 0", rounds)
		}
		if s.Injected == 0 {
			t.Fatal("source injection not counted: Injected == 0")
		}
		return
	}
}

// TestStealingBalancesBursts checks that other workers actually steal from
// a worker whose deque holds an expansion burst.
func TestStealingBalancesBursts(t *testing.T) {
	const tuples, factor = 400, 64
	g, sink := expandChain(t, tuples, factor, 500)
	e := startEngine(t, g, Options{MaxThreads: 8})
	placeAllDynamic(t, e, g)
	if err := e.SetThreadCount(4); err != nil {
		t.Fatal(err)
	}
	waitCount(t, sink, tuples*factor, 20*time.Second)
	if !e.DrainAndStop(5 * time.Second) {
		t.Fatal("engine did not drain")
	}
	s := e.SchedStats()
	if s.Steals == 0 {
		t.Fatal("no steals under a 64x burst workload with 4 workers")
	}
	if s.StolenTuples == 0 {
		t.Fatal("steals counted but no stolen tuples")
	}
	checkSchedConservation(t, e)
}

// TestShrinkFlushConservation shrinks the pool to one worker mid-run: the
// retiring workers must flush their deques rather than strand tuples.
func TestShrinkFlushConservation(t *testing.T) {
	const tuples, factor = 2000, 8
	g, sink := expandChain(t, tuples, factor, 100)
	e := startEngine(t, g, Options{MaxThreads: 8})
	placeAllDynamic(t, e, g)
	if err := e.SetThreadCount(4); err != nil {
		t.Fatal(err)
	}
	waitCount(t, sink, 1000, 10*time.Second) // mid-flight
	if err := e.SetThreadCount(1); err != nil {
		t.Fatal(err)
	}
	// Every tuple sitting in a retiring worker's deque at the shrink must
	// still arrive: the remaining worker finishes the bounded workload alone.
	waitCount(t, sink, tuples*factor, 30*time.Second)
	if !e.DrainAndStop(20 * time.Second) {
		t.Fatal("engine did not drain after shrink")
	}
	if got := sink.Count(); got != tuples*factor {
		t.Fatalf("sink saw %d tuples after shrink, want %d", got, tuples*factor)
	}
	checkSchedConservation(t, e)
}

// TestNoWorkerSleepsWhileWorkQueued is the lost-wakeup regression test for
// the sharded park/wake scheme: producers push concurrently with workers
// parking, round after round, and every pushed tuple must be processed
// promptly — a worker asleep while its queue holds work would stall a
// round until the test times out.
func TestNoWorkerSleepsWhileWorkQueued(t *testing.T) {
	const rounds, producers = 40, 2
	g, sink := hotChain(t, 10, 8, 0)
	e := startEngine(t, g, Options{MaxThreads: 4})
	place := make([]bool, g.NumNodes())
	place[1], place[2] = true, true
	if err := e.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
	if err := e.SetThreadCount(2); err != nil {
		t.Fatal(err)
	}
	waitCount(t, sink, 10, 5*time.Second)

	cfg := e.cfg.Load()
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Producer protocol: enqueue, then wake. The racing park on
				// the worker side must either be seen by the wake or rescan
				// the queue itself.
				for !cfg.queues[2].TryPush(item{port: 0, t: spl.AcquireTuple()}) {
					time.Sleep(time.Microsecond)
				}
				e.wakeWorkers(1)
			}()
		}
		wg.Wait()
		want := 10 + uint64((round+1)*producers)
		waitCount(t, sink, want, 5*time.Second)
	}
}

// syncAffinityStep builds the deque analogue of syncCrossingStep: a source
// emission lands on a worker-local deque via the affinity path, half is
// stolen and executed, and the remainder drains through the owner batch
// pop — all on one goroutine so AllocsPerRun can measure it.
func syncAffinityStep(tb testing.TB, g *graph.Graph) func() {
	tb.Helper()
	e, err := New(g, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	place := make([]bool, g.NumNodes())
	place[1], place[2] = true, true // work and sink dynamic
	if err := e.ApplyPlacement(place); err != nil {
		tb.Fatal(err)
	}
	em := e.newEmitter(e.reconfigTS)
	em.cfg = e.cfg.Load()
	d, err := queue.NewWSDeque[ditem](256)
	if err != nil {
		tb.Fatal(err)
	}
	em.local = d
	gen := g.Node(0).Op.(spl.Source)
	dbatch := make([]ditem, workerBatch)
	scratch := make([]item, workerBatch)
	stolen := make([]ditem, workerBatch)
	return func() {
		em.node = 0
		gen.Next(em) // affinity push onto the deque
		if k := d.StealHalf(stolen); k > 0 {
			e.executeDBatch(em, scratch, stolen[:k])
		}
		for {
			k := d.PopBottomN(dbatch)
			if k == 0 {
				break
			}
			e.executeDBatch(em, scratch, dbatch[:k])
		}
	}
}

// TestAffinitySteadyStateAllocFree guards the work-stealing hot path with
// the same bar as the PR1 queue-crossing guard: once the pools are warm,
// affinity push, steal, owner pop, execute, and sink recycle allocate
// nothing.
func TestAffinitySteadyStateAllocFree(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("sync.Pool randomly drops Puts under the race detector")
	}
	g, _ := hotChain(t, 0, 256, 0)
	step := syncAffinityStep(t, g)
	for i := 0; i < 128; i++ {
		step() // warm the tuple and payload pools
	}
	avg := testing.AllocsPerRun(5000, step)
	if avg > 0.05 {
		t.Fatalf("steady-state affinity/steal path allocates %.3f allocs/op, want ~0", avg)
	}
}

// TestCostAttributionUnchangedByStealing pins the controller-facing
// invariant: operator cost samples are attributed at execute time, so the
// profiler still ranks the heavy operator first when tuples reach workers
// through the deque bypass path.
func TestCostAttributionUnchangedByStealing(t *testing.T) {
	t.Run("steal", func(t *testing.T) {
		g := graph.New()
		gen := spl.NewGenerator("src", 0)
		src := g.AddSource(gen, nil)
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
		placeAllDynamic(t, e, g)
		if err := e.SetThreadCount(2); err != nil {
			t.Fatal(err)
		}
		waitCount(t, sink, 2000, 10*time.Second)
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
		if s := e.SchedStats(); s.LocalPushes == 0 {
			t.Fatal("the affinity path carried nothing; test is not exercising the bypass")
		}
	})
}
