package exec

import (
	"context"
	"testing"
	"time"

	"streamelastic/internal/graph"
	"streamelastic/internal/spl"
)

// gateOp blocks every invocation until its gate is closed, wedging the
// worker that picked it up and backing its queue up behind it.
type gateOp struct {
	gate chan struct{}
}

func (o *gateOp) Name() string { return "gate" }

func (o *gateOp) Process(_ int, t *spl.Tuple, em spl.Emitter) {
	<-o.gate
	em.Emit(0, t)
}

// TestDrainAndStopTimeout wedges an operator so the pipeline cannot become
// idle: DrainAndStop must give up after its timeout, report the failure,
// and still stop the engine cleanly once the operator unblocks.
func TestDrainAndStopTimeout(t *testing.T) {
	g := graph.New()
	gen := spl.NewGenerator("src", 8)
	gen.MaxTuples = 50
	src := g.AddSource(gen, spl.NewCostVar(0))
	gate := &gateOp{gate: make(chan struct{})}
	gid := g.AddOperator(gate, spl.NewCostVar(0))
	if err := g.Connect(src, 0, gid, 0, 1); err != nil {
		t.Fatal(err)
	}
	sink := spl.NewCountingSink("snk")
	sid := g.AddOperator(sink, spl.NewCostVar(0))
	if err := g.Connect(gid, 0, sid, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	e, err := New(g, Options{MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Queue the gate operator: the wedge must show up as scheduler-queue
	// backlog (inline execution would hide it inside the source goroutine).
	// The placement lands before Start, so the source never runs the gate
	// inline and wedges itself where ApplyPlacement's pause would wait on it.
	place := make([]bool, g.NumNodes())
	place[gid] = true
	if err := e.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Let the backlog form behind the wedged worker before draining.
	deadline := time.Now().Add(5 * time.Second)
	for e.QueueStats().TotalDepth == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.QueueStats().TotalDepth == 0 {
		t.Fatal("no backlog formed behind the wedged operator")
	}
	// Unblock the wedged operator only after the drain deadline has long
	// passed, so Stop (inside DrainAndStop) can join the worker.
	unblock := time.AfterFunc(500*time.Millisecond, func() { close(gate.gate) })
	defer unblock.Stop()

	start := time.Now()
	if e.DrainAndStop(100 * time.Millisecond) {
		t.Fatal("DrainAndStop reported a full drain with a wedged operator")
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("DrainAndStop gave up after %v, before its timeout", elapsed)
	}
	// The engine is fully stopped: a second Stop is a no-op and the sink
	// count no longer moves.
	e.Stop()
	got := sink.Count()
	time.Sleep(20 * time.Millisecond)
	if sink.Count() != got {
		t.Fatal("tuples still flowing after DrainAndStop returned")
	}
}

// exemptGenerator is a bounded generator that keeps emitting through a
// drain — the transport import stubs behave this way, because upstream PEs
// still have in-flight tuples to deliver.
type exemptGenerator struct {
	*spl.Generator
}

func (exemptGenerator) DrainExempt() {}

// TestDrainKeepsExemptSources drains an engine whose source is
// drain-exempt: the source must keep emitting (Drain does not silence it)
// and the pipeline still reaches idle once the source's bound is hit.
func TestDrainKeepsExemptSources(t *testing.T) {
	g := graph.New()
	gen := spl.NewGenerator("src", 8)
	gen.MaxTuples = 2000
	src := g.AddSource(exemptGenerator{gen}, spl.NewCostVar(0))
	sink := spl.NewCountingSink("snk")
	sid := g.AddOperator(sink, spl.NewCostVar(0))
	if err := g.Connect(src, 0, sid, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	e, err := New(g, Options{MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	// Drain immediately: a non-exempt source would stop near zero, an
	// exempt one runs to its bound.
	e.Drain()
	// WaitIdle watches the scheduler queues, and this graph has none: it can
	// report idle while the source is still emitting. Wait for the source's
	// bound at the sink first.
	deadline := time.Now().Add(10 * time.Second)
	for sink.Count() < 2000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !e.WaitIdle(10 * time.Second) {
		t.Fatal("engine never became idle")
	}
	if got := sink.Count(); got != 2000 {
		t.Fatalf("sink saw %d tuples, want all 2000 despite the drain", got)
	}
}
