package exec

import (
	"strconv"
	"time"

	"streamelastic/internal/graph"
	"streamelastic/internal/metrics"
	"streamelastic/internal/obs"
	"streamelastic/internal/spl"
)

// This file wires the engine into the obs registry: every status surface the
// engine used to expose ad hoc (SchedStats, Supervision, Latency, queue
// depths) is registered as a collector series, and the sampling histograms
// behind Options.SampleEvery live here.

// Registry returns the registry the engine's series are registered on:
// Options.Obs when one was supplied, otherwise the engine's private one.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// registerMetrics registers the engine's series on e.reg. Called once from
// New, before the engine is reachable, so collector callbacks that take
// engine locks can never deadlock against registration.
func (e *Engine) registerMetrics() {
	r := e.reg
	r.GaugeFunc(obs.MetricOperators, "Number of operators in the graph.",
		func() float64 { return float64(e.NumOperators()) })
	r.GaugeFunc(obs.MetricThreads, "Scheduler pool size.",
		func() float64 { return float64(e.ThreadCount()) })
	r.GaugeFunc(obs.MetricQueues, "Scheduler queues currently placed.",
		func() float64 { return float64(e.Queues()) })
	r.GaugeFunc(obs.MetricUptime, "Seconds since the engine started.",
		func() float64 { return e.Now().Seconds() })
	r.GaugeFunc(obs.MetricQueueDepth, "Tuples waiting in shared queues and worker deques.",
		func() float64 { return float64(e.QueueStats().TotalDepth) },
		obs.Label{Key: "scope", Value: "total"})
	r.GaugeFunc(obs.MetricQueueDepth, "Tuples waiting in shared queues and worker deques.",
		func() float64 { return float64(e.QueueStats().LocalDepth) },
		obs.Label{Key: "scope", Value: "local"})
	r.CounterFunc(obs.MetricSinkTuples, "Tuples delivered to sink operators.", e.SinkCount)
	r.CounterFunc(obs.MetricPanics, "Operator invocations that panicked.", e.OperatorPanics)

	sched := func(read func(metrics.SchedSnapshot) uint64) func() uint64 {
		return func() uint64 { return read(e.SchedStats()) }
	}
	r.CounterFunc(obs.MetricSchedLocalPushes, "Tuples pushed onto the emitting worker's own deque.",
		sched(func(s metrics.SchedSnapshot) uint64 { return s.LocalPushes }))
	r.CounterFunc(obs.MetricSchedLocalPops, "Tuples popped back off a worker's own deque.",
		sched(func(s metrics.SchedSnapshot) uint64 { return s.LocalPops }))
	r.CounterFunc(obs.MetricSchedSteals, "Successful steal operations.",
		sched(func(s metrics.SchedSnapshot) uint64 { return s.Steals }))
	r.CounterFunc(obs.MetricSchedStolenTuples, "Tuples moved by steals.",
		sched(func(s metrics.SchedSnapshot) uint64 { return s.StolenTuples }))
	r.CounterFunc(obs.MetricSchedOverflows, "Deque-full overflows to the shared queues.",
		sched(func(s metrics.SchedSnapshot) uint64 { return s.Overflows }))
	r.CounterFunc(obs.MetricSchedInjected, "Tuples injected through the shared queues.",
		sched(func(s metrics.SchedSnapshot) uint64 { return s.Injected }))
	r.CounterFunc(obs.MetricSchedParks, "Times a worker parked idle.",
		sched(func(s metrics.SchedSnapshot) uint64 { return s.Parks }))
	r.CounterFunc(obs.MetricSchedWakes, "Wake tokens granted to parked workers.",
		sched(func(s metrics.SchedSnapshot) uint64 { return s.Wakes }))
	r.CounterFunc(obs.MetricSchedFusedBatches, "Batches executed through compiled region programs.",
		sched(func(s metrics.SchedSnapshot) uint64 { return s.FusedBatches }))
	r.CounterFunc(obs.MetricSchedFusedTuples, "Tuples entering compiled region programs.",
		sched(func(s metrics.SchedSnapshot) uint64 { return s.FusedTuples }))

	// Supervision series register unconditionally: Engine.Supervision is
	// zero-valued when supervision is off, so the series just read 0.
	r.CounterFunc(obs.MetricSupQuarantines, "Operator quarantine engagements.",
		func() uint64 { return e.Supervision().Quarantines })
	r.CounterFunc(obs.MetricSupReleases, "Operators probed back in after quarantine.",
		func() uint64 { return e.Supervision().Releases })
	r.CounterFunc(obs.MetricSupDropped, "Tuples dropped while their operator was quarantined.",
		func() uint64 { return e.Supervision().Dropped })
	r.GaugeFunc(obs.MetricSupActive, "Operators currently quarantined.",
		func() float64 { return float64(e.Supervision().Active) })

	e.latency = r.Histogram(obs.MetricLatency, "End-to-end source-to-sink latency (requires TrackLatency).")

	// Per-operator execution latency: one native histogram per non-source
	// node, fed by the sampling gate. Registered regardless of SampleEvery so
	// the series set is stable; with sampling off they stay empty.
	n := e.g.NumNodes()
	e.opHist = make([]*obs.Histogram, n)
	for i := 0; i < n; i++ {
		nd := e.g.Node(graph.NodeID(i))
		if nd.Source {
			continue
		}
		e.opHist[i] = r.Histogram(obs.MetricOpExec, "Sampled per-operator execution latency.",
			obs.Label{Key: "op", Value: nd.Op.Name()},
			obs.Label{Key: "node", Value: strconv.Itoa(i)})
	}
	e.qwaitHist = r.Histogram(obs.MetricOpQueueWait, "Sampled scheduler-queue wait (enqueue to dispatch).")
}

// processSampled is the sampled variant of process: the queue wait (enqueue
// to dispatch) goes to the engine-wide queue-wait histogram and the operator
// invocation to the node's execution histogram. Both observations are plain
// atomic adds, so the sampled path allocates nothing.
func (e *Engine) processSampled(em *emitter, nd *graph.Node, node graph.NodeID, port int, t *spl.Tuple, enq int64) bool {
	start := time.Now().UnixNano()
	e.qwaitHist.Observe(time.Duration(start - enq))
	ok := e.process(em, nd, node, port, t)
	if h := e.opHist[node]; h != nil {
		h.Observe(time.Duration(time.Now().UnixNano() - start))
	}
	return ok
}
