package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"streamelastic/internal/cluster"
	"streamelastic/internal/core"
	"streamelastic/internal/exec"
	"streamelastic/internal/graph"
	"streamelastic/internal/obs"
	"streamelastic/internal/pe"
	"streamelastic/internal/spl"
	"streamelastic/internal/state"
	paper "streamelastic/internal/workload"
)

// workload is one benchmark job: its inputs, its graph, how its output is
// checked and the two constants chosen on the seed (see README.md): the
// fixed warm-up count and the open-loop rate.
type workload struct {
	name string

	// Inputs.
	payload  int     // payload bytes per tuple
	keys     int     // distinct keys
	zipf     float64 // Zipf exponent of the key distribution; 0 = uniform
	ringBits uint    // the input ring holds 1<<ringBits records
	batch    int     // tuples per source turn

	// Output check.
	check       int
	window      int  // checkKeyed: the counter's sliding window
	sinkPayload bool // tuples still carry their payload when they reach the sink

	// warmup is the number of tuples set-up pushes through the job before
	// anything is measured; pacedRate is the open-loop rate in tuples/s.
	warmup    uint64
	pacedRate float64

	nested bool // operators may run inline inside Emit (see tracer.nested)

	build func(w *workload, b *builder) (*job, error)
}

var workloads = []*workload{
	{
		name: "wire_small", payload: 16, keys: 64, ringBits: 16, batch: 64,
		check: checkOrdered, sinkPayload: true, warmup: 5_000_000, pacedRate: 1_000_000,
		build: buildWireSmall,
	},
	{
		name: "elastic_skew", payload: 1024, keys: 64, ringBits: 14, batch: 64,
		check: checkUnordered, sinkPayload: true, warmup: 80_000, pacedRate: 55_000, nested: true,
		build: buildElasticSkew,
	},
	{
		name: "keyed_ckpt", payload: 64, keys: 1 << 16, zipf: 1.1, ringBits: 18, batch: 64,
		check: checkKeyed, window: 1 << 16, warmup: 3_000_000, pacedRate: 50_000,
		build: buildKeyedCkpt,
	},
	{
		name: "resize_bulk", payload: 1024, keys: 64, ringBits: 14, batch: 64,
		check: checkKeyed, window: 64, sinkPayload: true, warmup: 1_300_000, pacedRate: 150_000,
		build: buildResizeBulk,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// builder carries what every graph construction needs.
type builder struct {
	in     *inputs
	tr     *tracer // nil in untraced runs
	latCap int
	tmpDir string // parent for per-job temporary directories
	wedge  bool   // test only: insert an operator that blocks forever
}

func (b *builder) sample() int {
	if b.tr != nil {
		return 64
	}
	return 0
}

// stateless wraps a Work or Map operator with a span stage in traced runs.
func (b *builder) stateless(op spl.BatchProcessor, wire bool) spl.Operator {
	if b.tr == nil {
		return op
	}
	return &spanOp{op: op, tr: b.tr, idx: b.tr.addStage(op.Name(), wire)}
}

// counter builds the workload's keyed counter; bulk keeps the payload on
// its output (see bulkCounter).
func (b *builder) counter(name string, window int, bulk, wire bool) spl.Operator {
	var k keyed = spl.NewKeyedCounter(name, window, 1)
	if bulk {
		k = &bulkCounter{KeyedCounter: k.(*spl.KeyedCounter)}
	}
	if b.tr == nil {
		return k
	}
	return &spanKeyed{keyed: k, tr: b.tr, idx: b.tr.addStage(name, wire)}
}

// keyed is what the runtime sees in a spl.KeyedCounter: wrappers embed it so
// that the engine, the checkpointer and the migrator treat them alike.
type keyed interface {
	spl.Operator
	spl.Stateful
	spl.Recyclable
	spl.Resettable
	state.Snapshotter
}

// bulkCounter is spl.KeyedCounter with the input's payload copied onto the
// (key, count) tuple it emits. The counter's own output carries no payload,
// which would leave every edge downstream of it -- on resize_bulk, most of
// the fleet -- moving 44-byte records in a workload that exists to move
// 1 KiB ones. Window, state and snapshots stay the embedded operator's. The
// runtime serializes a Stateful operator, so the two fields are not shared.
type bulkCounter struct {
	*spl.KeyedCounter
	out     spl.Emitter
	payload []byte
}

func (b *bulkCounter) Process(port int, t *spl.Tuple, out spl.Emitter) {
	b.out, b.payload = out, t.Payload
	b.KeyedCounter.Process(port, t, b)
}

// Emit receives the counter's output tuple.
func (b *bulkCounter) Emit(port int, agg *spl.Tuple) {
	agg.AcquirePayload(len(b.payload))
	copy(agg.Payload, b.payload)
	b.out.Emit(port, agg)
}

// wedged returns an operator that forwards 1000 tuples and then blocks
// forever: the deliberately stuck operator the watchdog test needs.
func wedged() spl.Operator {
	n := 0
	return spl.NewMap("wedge", func(t *spl.Tuple) *spl.Tuple {
		if n++; n > 1000 {
			select {}
		}
		return t
	})
}

func identity(t *spl.Tuple) *spl.Tuple { return t }

// chain connects the operators in order (port 0 to port 0), appending the
// wedge before the sink when asked to, and finalizes the graph.
func (b *builder) chain(ops []spl.Operator, costs []float64) (*graph.Graph, error) {
	if b.wedge {
		last := len(ops) - 1
		ops = append(ops[:last:last], wedged(), ops[last])
		costs = append(costs[:last:last], 1, costs[last])
	}
	g := graph.New()
	var prev graph.NodeID
	for i, op := range ops {
		var id graph.NodeID
		if i == 0 {
			id = g.AddSource(op, spl.NewCostVar(costs[i]))
		} else {
			id = g.AddOperator(op, spl.NewCostVar(costs[i]))
			if err := g.Connect(prev, 0, id, 0, 1); err != nil {
				return nil, err
			}
		}
		prev = id
	}
	return g, g.Finalize()
}

// job is a launched workload behind the handful of calls the driver needs,
// whichever of the four ways of running a graph built it.
type job struct {
	src *source
	snk *sink

	start      func() error
	drain      func(time.Duration) bool // DrainAndStop
	abort      func()                   // Stop without draining
	registries func() []*obs.Registry
	control    func()         // start the elastic controllers, after warm-up; nil without any
	depth      func() int     // tuples waiting in scheduler queues; nil without any
	unacked    func() float64 // tuples sent but not acknowledged, all edges; nil when out of reach

	eng   *exec.Engine      // elastic_skew only
	coord *core.Coordinator // elastic_skew only
	mgr   *cluster.Manager  // resize_bulk only
	g     *graph.Graph
}

// transport is the edge configuration of every multi-PE workload: defaults,
// except that a producer blocked on a full ring waits instead of dropping
// after a second -- a drop is a failed operation, and a wedged edge is the
// watchdog's to catch.
var transport = pe.TransportConfig{BlockTimeout: 30 * time.Second}

func peJob(g *graph.Graph, assign pe.Assignment, opts pe.Options, src *source, snk *sink) (*job, error) {
	pj, err := pe.Launch(g, assign, opts)
	if err != nil {
		return nil, err
	}
	var exports []*pe.Export
	for _, ce := range pj.Streams() {
		exports = append(exports, pj.PEs[ce.FromPE].Plan.ExportEndpoint(ce.Stream))
	}
	return &job{
		src: src, snk: snk, g: g,
		start:      func() error { return pj.Start(context.Background()) },
		drain:      pj.DrainAndStop,
		abort:      pj.Stop,
		registries: pj.Registries,
		unacked: func() (n float64) {
			for _, e := range exports {
				n += float64(e.SeqHigh() - e.Acked())
			}
			return n
		},
	}, nil
}

// wire_small: source -> Map -> Map -> [v2 wire edge] -> Map -> Map -> sink,
// two PEs, elasticity off, 16-byte payloads.
func buildWireSmall(w *workload, b *builder) (*job, error) {
	src := newSource(b.in, w.batch, b.tr)
	ops := []spl.Operator{src}
	for i := 1; i <= 4; i++ {
		ops = append(ops, b.stateless(spl.NewMap(fmt.Sprintf("map%d", i), identity), i == 3))
	}
	snk := newSink(b.in, w, b.latCap, b.tr)
	ops = append(ops, snk)
	g, err := b.chain(ops, []float64{0, 1, 1, 1, 1, 0})
	if err != nil {
		return nil, err
	}
	assign := make(pe.Assignment, g.NumNodes())
	for i := 3; i < len(assign); i++ {
		assign[i] = 1
	}
	return peJob(g, assign, pe.Options{
		DisableElasticity: true,
		Transport:         transport,
		SampleEvery:       b.sample(),
	}, src, snk)
}

// keyed_ckpt: source -> [wire] -> KeyedCounter (window 2^16, emit every
// tuple) -> sink, two PEs, checkpoints every second into a FileLog.
func buildKeyedCkpt(w *workload, b *builder) (*job, error) {
	src := newSource(b.in, w.batch, b.tr)
	ctr := b.counter("ctr", w.window, false, true)
	snk := newSink(b.in, w, b.latCap, b.tr)
	g, err := b.chain([]spl.Operator{src, ctr, snk}, []float64{0, 60, 0})
	if err != nil {
		return nil, err
	}
	assign := make(pe.Assignment, g.NumNodes())
	for i := 1; i < len(assign); i++ {
		assign[i] = 1
	}
	return peJob(g, assign, pe.Options{
		DisableElasticity: true,
		Transport:         transport,
		SampleEvery:       b.sample(),
		Checkpoint:        pe.CheckpointOptions{Enabled: true, Dir: b.tmpDir, Interval: time.Second},
	}, src, snk)
}

// resize_bulk: the BENCH_10 stateful chain, source -> Work -> KeyedCounter ->
// Work -> Work -> sink, under the cluster manager (2:4:1:2) with 1 KiB
// payloads that the counter passes on, so every edge the manager cuts
// carries bulk frames.
func buildResizeBulk(w *workload, b *builder) (*job, error) {
	src := newSource(b.in, w.batch, b.tr)
	ops := []spl.Operator{
		src,
		b.stateless(spl.NewWork("w1", spl.NewCostVar(40)), false),
		b.counter("ctr", w.window, true, false),
		b.stateless(spl.NewWork("w2", spl.NewCostVar(40)), false),
		b.stateless(spl.NewWork("w3", spl.NewCostVar(40)), false),
	}
	snk := newSink(b.in, w, b.latCap, b.tr)
	ops = append(ops, snk)
	g, err := b.chain(ops, []float64{10, 40, 60, 40, 40, 0})
	if err != nil {
		return nil, err
	}
	mgr, err := cluster.New(g, cluster.Options{
		Spec: cluster.WidthSpec{Min: 2, Max: 4, Step: 1, Desired: 2},
		PE: pe.Options{
			DisableElasticity: true,
			Transport:         transport,
			SampleEvery:       b.sample(),
		},
		DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	return &job{
		src: src, snk: snk, g: g, mgr: mgr,
		start:      func() error { return mgr.Start(context.Background()) },
		drain:      mgr.DrainAndStop,
		abort:      mgr.Stop,
		registries: mgr.Registries,
	}, nil
}

// elastic_skew: the paper's mixed topology (source -> split -> 4 chains of
// 10 Work -> sink, 43 operators) with the skewed 10/30/60 cost distribution
// and 1 KiB payloads, on one engine with both elastic controllers.
func buildElasticSkew(w *workload, b *builder) (*job, error) {
	const width, depth, maxThreads = 4, 10, 8
	src := newSource(b.in, w.batch, b.tr)
	g := graph.New()
	sid := g.AddSource(src, spl.NewCostVar(0))
	var split spl.Operator = spl.NewRoundRobinSplit("split", width)
	if b.tr != nil {
		split = &spanSplit{RoundRobinSplit: split.(*spl.RoundRobinSplit), tr: b.tr, idx: b.tr.addStage("split", false)}
	}
	spid := g.AddOperator(split, nil)
	if err := g.Connect(sid, 0, spid, 0, 1); err != nil {
		return nil, err
	}
	costs := &paper.Build{}
	ends := make([]graph.NodeID, width)
	for c := 0; c < width; c++ {
		prev := spid
		for d := 0; d < depth; d++ {
			cv := spl.NewCostVar(0)
			costs.WorkCosts = append(costs.WorkCosts, cv)
			id := g.AddOperator(b.stateless(spl.NewWork(fmt.Sprintf("w%d.%d", c, d), cv), false), cv)
			port, rate := 0, 1.0
			if d == 0 {
				port, rate = c, 1.0/width
			}
			if err := g.Connect(prev, port, id, 0, rate); err != nil {
				return nil, err
			}
			prev = id
		}
		ends[c] = prev
	}
	// The placement of heavy, medium and light operators is part of the
	// workload, not of the inputs, so its seed is fixed.
	costs.ApplySkew(0.10, 0.30, 1)
	snk := newSink(b.in, w, b.latCap, b.tr)
	kid := g.AddOperator(snk, nil)
	for _, e := range ends {
		if err := g.Connect(e, 0, kid, 0, 1); err != nil {
			return nil, err
		}
	}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	eng, err := exec.New(g, exec.Options{MaxThreads: maxThreads, SampleEvery: b.sample()})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.MaxThreads = maxThreads
	// NewCoordinator resets the engine to all-manual at minimum threads,
	// which is where the warm-up runs; Run starts only after it.
	coord, err := core.NewCoordinator(eng, cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var running sync.WaitGroup
	stopControl := func() {
		cancel()
		running.Wait()
	}
	return &job{
		src: src, snk: snk, g: g, eng: eng, coord: coord,
		start: func() error { return eng.Start(context.Background()) },
		control: func() {
			running.Add(1)
			go func() {
				defer running.Done()
				_ = coord.Run(ctx) // returns the context's error on cancel
			}()
		},
		drain: func(d time.Duration) bool {
			stopControl()
			return eng.DrainAndStop(d)
		},
		abort: func() {
			stopControl()
			eng.Stop()
		},
		registries: func() []*obs.Registry { return []*obs.Registry{eng.Registry()} },
		depth:      func() int { return eng.QueueStats().TotalDepth },
	}, nil
}
