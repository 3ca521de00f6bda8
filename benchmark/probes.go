package main

import (
	"os"
	"path/filepath"
	"time"

	"streamelastic/internal/core"
	"streamelastic/internal/graph"
	"streamelastic/internal/obs"
	"streamelastic/internal/queue"
	"streamelastic/internal/sim"
	"streamelastic/internal/spl"
	"streamelastic/internal/state"
)

// Isolated layer probes: fixed-iteration loops over one layer's exported
// functions, run before the job in the traced process. Iteration counts are
// sized so each probe takes at least 200 ms on the 2-core box the benchmark
// was defined on; they are fixed, not timed, so two builds do the same work.
// probeScale shrinks them for the smoke test.
var probeScale = 1.0

func iters(n int) int {
	if n = int(float64(n) * probeScale); n < 1 {
		n = 1
	}
	return n
}

// perOp times n calls of body and returns nanoseconds per call.
func perOp(n int, body func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		body(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

var spinSink float64

// runProbes returns every probe row for the workload's tuple size and key
// sequence, plus "flop_ns" (this machine's cost of one Work FLOP), which
// calibrates the simulated machine and is not itself reported.
func runProbes(w *workload, in *inputs, tmpDir string) (map[string]float64, error) {
	p := make(map[string]float64)

	// spl: the pools every emitted and every decoded tuple goes through,
	// and the deep copy every queue crossing and every export makes.
	p["spl.pool_ns_per_tuple"] = perOp(iters(8_000_000), func(int) {
		t := spl.AcquireTuple()
		t.AcquirePayload(w.payload)
		t.Release()
	})
	base := spl.AcquireTuple()
	base.Payload = in.payloadAt(0)
	p["spl.clone_ns_per_tuple"] = perOp(iters(6_000_000), func(int) { base.Clone().Release() })

	// queue: 64-tuple batches through the shared MPMC ring and through a
	// worker deque.
	const batch = 64
	vals, out := make([]*spl.Tuple, batch), make([]*spl.Tuple, batch)
	for i := range vals {
		vals[i] = base
	}
	mpmc, err := queue.NewMPMC[*spl.Tuple](1024)
	if err != nil {
		return nil, err
	}
	p["queue.mpmc_ns_per_tuple"] = perOp(iters(400_000), func(int) {
		mpmc.TryPushN(vals)
		mpmc.TryPopN(out)
	}) / batch
	deq, err := queue.NewWSDeque[*spl.Tuple](256)
	if err != nil {
		return nil, err
	}
	p["queue.deque_ns_per_tuple"] = perOp(iters(200_000), func(int) {
		for _, v := range vals {
			deq.PushBottom(v)
		}
		deq.PopBottomN(out)
	}) / batch

	// state: the keyed counter's read-modify-write over the workload's own
	// key sequence, an incremental cut of what that dirtied, and making a
	// cut of that size durable.
	m := state.NewMap(0, state.EncInt64, state.DecInt64)
	m.Track(true)
	update := func(i int) {
		k := uint64(in.keys[uint64(i)&in.mask])
		c, _ := m.Get(k)
		m.Put(k, c+1)
	}
	p["state.update_ns_per_tuple"] = perOp(iters(8_000_000), update)
	var enc state.Encoder
	var cutNS, cutKeys float64
	for r, rounds := 0, iters(250); r < rounds; r++ {
		for i := 0; i < 1<<15; i++ {
			update(r<<15 + i)
		}
		cutKeys += float64(m.DirtyLen())
		enc.Reset()
		t0 := time.Now()
		m.Snapshot(&enc, false)
		cutNS += float64(time.Since(t0).Nanoseconds())
	}
	p["state.cut_ns_per_dirty_key"] = cutNS / cutKeys
	log, err := state.OpenFileLog(filepath.Join(tmpDir, "probe.ckpt"))
	if err != nil {
		return nil, err
	}
	rec := state.Record{Op: 1, Data: enc.Bytes()}
	var logErr error
	// About 2 us per append+commit plus 1 ns per byte on the defining box:
	// the iteration count follows from the cut's size, not from a clock.
	commits := iters(350_000_000 / (2000 + len(rec.Data)))
	p["state.filelog_commit_ms"] = perOp(commits, func(i int) {
		rec.Epoch = uint64(i + 1)
		if err := log.Append(rec); err != nil {
			logErr = err
		}
		if err := log.Commit(rec.Epoch); err != nil {
			logErr = err
		}
	}) / 1e6
	if err := log.Close(); err != nil {
		logErr = err
	}
	_ = os.Remove(log.Path())
	if logErr != nil {
		return nil, logErr
	}

	// core and sim: one coordinator step (observe, decide, reconfigure) and
	// one evaluation of the analytic model, on the simulated machine
	// running a 40-operator pipeline.
	g, err := simPipeline(40)
	if err != nil {
		return nil, err
	}
	se, err := sim.New(g, sim.Xeon176().WithCores(2), sim.WithPayload(w.payload), sim.WithMaxThreads(8))
	if err != nil {
		return nil, err
	}
	p["sim.step_us"] = perOp(iters(100_000), func(int) { spinSink += se.Throughput() }) / 1e3
	coord, err := core.NewCoordinator(se, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var stepErr error
	p["core.step_us"] = perOp(iters(60_000), func(int) {
		if _, err := coord.Step(); err != nil {
			stepErr = err
		}
	}) / 1e3
	if stepErr != nil {
		return nil, stepErr
	}

	// obs: one histogram observation, the cost of a latency sample.
	var h obs.Histogram
	p["obs.observe_ns"] = perOp(iters(12_000_000), func(i int) { h.Observe(time.Duration(i)) })

	p["flop_ns"] = perOp(iters(30_000), func(i int) { spinSink += spl.SpinFLOPs(10_000, float64(i)) }) / 10_000
	return p, nil
}

// simPipeline builds source -> n Work(100 FLOPs) -> sink for the simulator.
func simPipeline(n int) (*graph.Graph, error) {
	g := graph.New()
	prev := g.AddSource(spl.NewGenerator("src", 0), spl.NewCostVar(0))
	for i := 0; i <= n; i++ {
		var id graph.NodeID
		if i < n {
			cv := spl.NewCostVar(100)
			id = g.AddOperator(spl.NewWork("w", cv), cv)
		} else {
			id = g.AddOperator(spl.NewCountingSink("snk"), nil)
		}
		if err := g.Connect(prev, 0, id, 0, 1); err != nil {
			return nil, err
		}
		prev = id
	}
	return g, g.Finalize()
}

// simPredict evaluates the analytic model on the job's own graph at the
// placement and thread count the live controllers settled on, with the
// model's FLOP cost calibrated to this machine.
func simPredict(r *result, flopNS float64) (float64, error) {
	m := sim.Xeon176().WithCores(2)
	m.SecPerFLOP = flopNS / 1e9
	se, err := sim.New(r.g, m, sim.WithPayload(r.w.payload), sim.WithMaxThreads(8))
	if err != nil {
		return 0, err
	}
	if err := se.ApplyPlacement(r.placement); err != nil {
		return 0, err
	}
	if err := se.SetThreadCount(r.threadsFinal); err != nil {
		return 0, err
	}
	return se.Throughput(), nil
}
