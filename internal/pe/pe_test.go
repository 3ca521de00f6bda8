package pe

import (
	"context"
	"testing"
	"time"

	"streamelastic/internal/apps"
	"streamelastic/internal/core"
	"streamelastic/internal/exec"
	"streamelastic/internal/graph"
	"streamelastic/internal/spl"
)

// jobChain builds a source -> n work ops -> sink job graph.
func jobChain(t *testing.T, workOps int, tuples uint64) (*graph.Graph, *spl.CountingSink) {
	t.Helper()
	g := graph.New()
	gen := spl.NewGenerator("src", 32)
	gen.MaxTuples = tuples
	prev := g.AddSource(gen, spl.NewCostVar(10))
	for i := 0; i < workOps; i++ {
		cv := spl.NewCostVar(100)
		id := g.AddOperator(spl.NewWork("w", cv), cv)
		if err := g.Connect(prev, 0, id, 0, 1); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	sink := spl.NewCountingSink("snk")
	sid := g.AddOperator(sink, spl.NewCostVar(0))
	if err := g.Connect(prev, 0, sid, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g, sink
}

func TestPartitionValidation(t *testing.T) {
	g, _ := jobChain(t, 2, 10)
	if _, _, err := Partition(g, Assignment{0, 0}); err == nil {
		t.Fatal("short assignment accepted")
	}
	if _, _, err := Partition(g, Assignment{0, -1, 0, 0}); err == nil {
		t.Fatal("negative PE accepted")
	}
	if _, _, err := Partition(g, Assignment{0, 0, 2, 2}); err == nil {
		t.Fatal("sparse PE indices accepted")
	}
	if _, _, err := Partition(graph.New(), Assignment{}); err == nil {
		t.Fatal("unfinalized graph accepted")
	}
}

// TestLaunchOptionValidation checks that Launch takes a warm-start
// snapshot per PE or none, and labels registries only in multi-PE jobs.
func TestLaunchOptionValidation(t *testing.T) {
	g, _ := jobChain(t, 2, 10) // src, w0, w1, sink
	snap := core.ConfigSnapshot{Placement: make([]bool, 3), Threads: 1}
	for _, n := range []int{1, 3} {
		if _, err := Launch(g, Assignment{0, 0, 1, 1}, Options{WarmStart: make([]core.ConfigSnapshot, n)}); err == nil {
			t.Errorf("%d warm-start snapshots for 2 PEs accepted", n)
		}
	}
	// Each PE's plan has three nodes: two operators plus its stream stub.
	job, err := Launch(g, Assignment{0, 0, 1, 1}, Options{WarmStart: []core.ConfigSnapshot{snap, snap}})
	if err != nil {
		t.Fatal(err)
	}
	job.Stop()
	if got := job.Registries()[1].ConstLabels(); len(got) != 1 || got[0].Value != "1" {
		t.Errorf("PE 1 of a two-PE job labelled %v, want pe=\"1\"", got)
	}

	one, err := Launch(g, make(Assignment, g.NumNodes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	one.Stop()
	if got := one.Registries()[0].ConstLabels(); len(got) != 0 {
		t.Errorf("one-PE job labelled %v, want no labels", got)
	}
}

func TestPartitionSplitsChain(t *testing.T) {
	g, _ := jobChain(t, 4, 10) // 6 nodes: src, w0..w3, sink
	assign := Assignment{0, 0, 0, 1, 1, 1}
	plans, crosses, err := Partition(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("%d plans, want 2", len(plans))
	}
	if len(crosses) != 1 {
		t.Fatalf("%d cross edges, want 1", len(crosses))
	}
	// PE 0: src, w0, w1 + 1 export = 4 nodes.
	if got := plans[0].Graph.NumNodes(); got != 4 {
		t.Fatalf("PE0 has %d nodes, want 4", got)
	}
	// PE 1: w2, w3, sink + 1 import = 4 nodes.
	if got := plans[1].Graph.NumNodes(); got != 4 {
		t.Fatalf("PE1 has %d nodes, want 4", got)
	}
	if len(plans[0].Exports) != 1 || len(plans[0].Imports) != 0 {
		t.Fatalf("PE0 endpoints: %d exports, %d imports", len(plans[0].Exports), len(plans[0].Imports))
	}
	if len(plans[1].Imports) != 1 || len(plans[1].Exports) != 0 {
		t.Fatalf("PE1 endpoints: %d imports, %d exports", len(plans[1].Imports), len(plans[1].Exports))
	}
	// The import is a source of PE1's graph.
	if srcs := plans[1].Graph.Sources(); len(srcs) != 1 {
		t.Fatalf("PE1 sources = %v, want exactly the import", srcs)
	}
	// Every global node is somewhere, exactly once.
	for i := 0; i < g.NumNodes(); i++ {
		found := 0
		for _, p := range plans {
			if p.LocalOf[i] >= 0 {
				found++
			}
		}
		if found != 1 {
			t.Fatalf("global node %d present in %d plans", i, found)
		}
	}
}

func TestAssignContiguous(t *testing.T) {
	g, _ := jobChain(t, 8, 10)
	assign, err := AssignContiguous(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != g.NumNodes() {
		t.Fatalf("assignment length %d", len(assign))
	}
	// Contiguity in topo order and density.
	prev := 0
	for _, id := range g.Topo() {
		p := assign[id]
		if p < prev || p > prev+1 {
			t.Fatalf("assignment not contiguous in topo order: %d after %d", p, prev)
		}
		prev = p
	}
	if prev != 2 {
		t.Fatalf("last PE = %d, want 2", prev)
	}
	if _, err := AssignContiguous(g, 0); err == nil {
		t.Fatal("0 PEs accepted")
	}
	if _, err := AssignContiguous(g, g.NumNodes()+1); err == nil {
		t.Fatal("more PEs than nodes accepted")
	}
}

// launchAndWait runs a job until the sink sees want tuples.
func launchAndWait(t *testing.T, g *graph.Graph, assign Assignment, opts Options, sink *spl.CountingSink, want uint64) *Job {
	t.Helper()
	job, err := Launch(g, assign, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(context.Background()); err != nil {
		job.Stop()
		t.Fatal(err)
	}
	t.Cleanup(job.Stop)
	deadline := time.Now().Add(30 * time.Second)
	for sink.Count() < want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := sink.Count(); got != want {
		t.Fatalf("final sink received %d tuples, want %d", got, want)
	}
	return job
}

func TestJobTwoPEsDeliversAllTuples(t *testing.T) {
	const n = 3000
	g, sink := jobChain(t, 4, n)
	assign := Assignment{0, 0, 0, 1, 1, 1}
	job := launchAndWait(t, g, assign, Options{DisableElasticity: true}, sink, n)
	// The stream carried every tuple exactly once.
	exp := job.PEs[0].Plan.exports[0]
	imp := job.PEs[1].Plan.imports[0]
	if exp.Sent() != n {
		t.Fatalf("export sent %d, want %d", exp.Sent(), n)
	}
	if exp.Dropped() != 0 {
		t.Fatalf("export dropped %d tuples", exp.Dropped())
	}
	if imp.Received() != n {
		t.Fatalf("import received %d, want %d", imp.Received(), n)
	}
	if len(job.Streams()) != 1 {
		t.Fatalf("streams = %d, want 1", len(job.Streams()))
	}
}

func TestJobThreePEsWithElasticity(t *testing.T) {
	const n = 3000
	g, sink := jobChain(t, 7, n) // 9 nodes
	assign, err := AssignContiguous(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Exec:    exec.Options{AdaptPeriod: 30 * time.Millisecond, MaxThreads: 4},
		Elastic: core.DefaultConfig(),
	}
	opts.Elastic.MaxThreads = 4
	job := launchAndWait(t, g, assign, opts, sink, n)
	// Every PE ran its own coordinator and recorded observations (the
	// first observation lands one adaptation period after Start, which may
	// be after the bounded stream already finished).
	deadline := time.Now().Add(10 * time.Second)
	for _, rt := range job.PEs {
		if rt.Coord == nil {
			t.Fatal("PE without coordinator")
		}
		for len(rt.Coord.Trace()) == 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if len(rt.Coord.Trace()) == 0 {
			t.Fatalf("PE %d recorded no adaptation", rt.Plan.PE)
		}
	}
}

func TestJobStopIdempotentAndUnblocksIdleStreams(t *testing.T) {
	// Unbounded source, but we stop the job while streams are active.
	g, _ := jobChain(t, 4, 0)
	assign := Assignment{0, 0, 0, 1, 1, 1}
	job, err := Launch(g, assign, Options{DisableElasticity: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		job.Stop()
		job.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("job.Stop did not return; a stream reader is stuck")
	}
}

func TestJobStartTwice(t *testing.T) {
	g, _ := jobChain(t, 2, 100)
	job, err := Launch(g, Assignment{0, 0, 1, 1}, Options{DisableElasticity: true})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	if err := job.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := job.Start(context.Background()); err == nil {
		t.Fatal("second Start succeeded")
	}
}

func TestJobFanOutAcrossPEs(t *testing.T) {
	// src -> split -> two workers in different PEs -> shared sink in a
	// third PE: exercises multiple streams into and out of PEs.
	g := graph.New()
	gen := spl.NewGenerator("src", 16)
	gen.MaxTuples = 2000
	src := g.AddSource(gen, nil)
	split := g.AddOperator(spl.NewRoundRobinSplit("split", 2), nil)
	w0cv := spl.NewCostVar(100)
	w0 := g.AddOperator(spl.NewWork("w0", w0cv), w0cv)
	w1cv := spl.NewCostVar(100)
	w1 := g.AddOperator(spl.NewWork("w1", w1cv), w1cv)
	sink := spl.NewCountingSink("snk")
	snk := g.AddOperator(sink, nil)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.Connect(src, 0, split, 0, 1))
	must(g.Connect(split, 0, w0, 0, 0.5))
	must(g.Connect(split, 1, w1, 0, 0.5))
	must(g.Connect(w0, 0, snk, 0, 1))
	must(g.Connect(w1, 0, snk, 0, 1))
	must(g.Finalize())

	assign := Assignment{0, 0, 1, 1, 2}
	job := launchAndWait(t, g, assign, Options{DisableElasticity: true}, sink, 2000)
	if got := len(job.Streams()); got != 4 {
		t.Fatalf("streams = %d, want 4 (2 into PE1, 2 out of PE1)", got)
	}
}

func TestJobDrainAndStop(t *testing.T) {
	// Unbounded source across 2 PEs: drain must stop the real source,
	// flush every stream, and deliver everything in flight.
	g, sink := jobChain(t, 4, 0)
	assign := Assignment{0, 0, 0, 1, 1, 1}
	job, err := Launch(g, assign, Options{DisableElasticity: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sink.Count() < 500 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !job.DrainAndStop(15 * time.Second) {
		t.Fatal("job did not drain")
	}
	// Conservation after drain: everything the export sent arrived.
	exp := job.PEs[0].Plan.exports[0]
	imp := job.PEs[1].Plan.imports[0]
	if exp.Sent() != imp.Received() {
		t.Fatalf("stream lost tuples in drain: sent %d received %d", exp.Sent(), imp.Received())
	}
	if sink.Count() != imp.Received() {
		t.Fatalf("PE1 lost tuples in drain: received %d, sink %d", imp.Received(), sink.Count())
	}
}

func TestPartitionLargeApplicationGraph(t *testing.T) {
	// Partition the paper's 8-source PacketAnalysis graph (2305 operators)
	// across 8 PEs: every node placed once, plans finalized, transport
	// stubs consistent.
	a, err := apps.PacketAnalysis(8)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := AssignContiguous(a.Graph, 8)
	if err != nil {
		t.Fatal(err)
	}
	plans, crosses, err := Partition(a.Graph, assign)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 8 {
		t.Fatalf("plans = %d", len(plans))
	}
	totalNodes := 0
	exports, imports := 0, 0
	for _, p := range plans {
		totalNodes += p.Graph.NumNodes()
		exports += len(p.Exports)
		imports += len(p.Imports)
	}
	if exports != len(crosses) || imports != len(crosses) {
		t.Fatalf("stub counts: %d exports, %d imports, %d streams", exports, imports, len(crosses))
	}
	if totalNodes != a.Graph.NumNodes()+2*len(crosses) {
		t.Fatalf("node conservation: %d PE nodes, %d original + %d stubs",
			totalNodes, a.Graph.NumNodes(), 2*len(crosses))
	}
}
