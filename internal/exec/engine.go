// Package exec implements the live engine: a goroutine-based processing
// element that executes an operator graph under the two threading models of
// the paper. Source operators run on dedicated operator goroutines; under
// the manual model downstream operators execute inline on the emitting
// goroutine, and under the dynamic model a scheduler queue is placed in
// front of the operator and a pool of scheduler goroutines pulls tuples
// from any queue. Placement and pool size are reconfigurable online, which
// is the control surface the elastic controllers in internal/core drive.
//
// The hot path is engineered to be allocation-free in the steady state:
// tuples and payload buffers crossing scheduler queues come from the pools
// in internal/spl (queue crossings clone from the pool and release the
// original; recyclable sinks release the final copy), emitters are reused
// per dispatch loop, and workers drain queues in batches. Idle workers park
// on sharded condition variables consulted by producers instead of
// sleep-polling.
//
// Scheduling is work stealing: each worker owns a bounded deque, a worker
// emitting to a dynamic operator pushes onto its own deque (emit affinity —
// no shared-queue CAS, the tuple stays cache-hot), and a worker looks for
// work local-first, then steals half a random victim's deque, then falls
// back to the shared MPMC queues, which remain the injection path for
// sources, imports, reconfiguration drains, and deque overflow.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamelastic/internal/fault"
	"streamelastic/internal/graph"
	"streamelastic/internal/metrics"
	"streamelastic/internal/obs"
	"streamelastic/internal/queue"
	"streamelastic/internal/spl"
)

// pushSpinLimit bounds how long a producer spins on a full scheduler queue
// before falling back to inline execution.
const pushSpinLimit = 256

// workerBatch is how many tuples a worker drains from one queue per visit.
// Batching amortizes the queue-cursor CAS, the config load, and the
// profiler Enter/Leave transitions across the whole run.
const workerBatch = 32

// idleSpinLimit is how many empty scans a worker tolerates (yielding
// between scans) before parking on the idle condition variable.
const idleSpinLimit = 16

// recSampleEvery thins steal/park flight-recorder writes to one in this
// many per worker (a power of two). Park/steal transitions fire at queue
// drain rate — with compiled regions, tens of thousands per second — and
// recording each one floods the ring and evicts the rare, valuable events
// (adaptations, quarantines, faults). The sampled record carries the
// worker's cumulative counter so a dump still reconstructs the true rate;
// the SchedStats counters stay exact regardless.
const recSampleEvery = 64

// localQueueCapacity is the per-worker deque capacity. A full deque
// overflows to the shared queue, so the capacity only shifts traffic, never
// drops it.
const localQueueCapacity = 256

// parkShards is how many park/wake shards the idle machinery spreads
// workers across (a power of two). A producer with a wake to hand out scans
// shards starting at its own, so it wakes a nearby worker and never
// broadcasts; shard count bounds the scan.
const parkShards = 8

// item is one queued tuple delivery. enq is the enqueue timestamp in unix
// nanoseconds when the sampling gate selected this delivery, 0 otherwise.
type item struct {
	port int
	t    *spl.Tuple
	enq  int64
}

// ditem is one deque-queued tuple delivery. Worker deques are per worker,
// not per operator, so the destination node rides along.
type ditem struct {
	node graph.NodeID
	port int
	t    *spl.Tuple
	enq  int64
}

// engineConfig is the immutable runtime configuration workers snapshot once
// per dispatch. Reconfiguration swaps in a new one while all loops are
// parked.
type engineConfig struct {
	placement []bool
	queues    []*queue.MPMC[item] // indexed by node id; nil when manual
	queueList []graph.NodeID      // nodes that have queues, in id order
	// progs holds the compiled manual-region programs for this placement,
	// indexed by region-head node id (see region.go); nil entries fall back
	// to the interpreted path, and the whole slice is nil when nothing
	// compiled (tests also nil it to run the interpreted oracle). Rebuilt
	// with every config, so a placement move can never execute a stale
	// program.
	progs []*regionProgram
}

// Options configure a live engine.
type Options struct {
	// MaxThreads caps the scheduler pool (default 64).
	MaxThreads int
	// QueueCapacity is the per-queue capacity, a power of two (default 1024).
	QueueCapacity int
	// AdaptPeriod is how long Observe measures (default 100ms; the paper
	// uses 5s, which is far longer than needed for synthetic workloads).
	AdaptPeriod time.Duration
	// ProfilePeriod is the cost-profiler sampling period (default 1ms).
	ProfilePeriod time.Duration
	// TrackLatency stamps every source-emitted tuple's Time attribute with
	// the wall clock and records sink-arrival latency in a histogram.
	// Leave it off when operators use Time as an application event time.
	TrackLatency bool
	// Fault is an optional fault injector consulted on the operator hot
	// path; nil (the default) costs one pointer check per dispatch, or per
	// stage and batch on a compiled region.
	Fault *fault.Injector
	// FaultSiteBase offsets this engine's node ids into the injector's site
	// namespace (fault.OpSite of the owning PE), so one injector can target
	// operators across PEs without collisions.
	FaultSiteBase int
	// PanicBudget enables operator supervision when > 0: an operator whose
	// recovered panics exhaust the budget is quarantined — its input drops
	// and counts instead of executing — for an exponentially growing
	// timeout, then probed back in. Clean running decays the history.
	PanicBudget int
	// QuarantineBase/QuarantineMax bound the quarantine timeout's
	// exponential growth (defaults 100ms / 5s; a max below the base is
	// raised to the base).
	QuarantineBase time.Duration
	QuarantineMax  time.Duration
	// PanicDecay is the clean-run interval that forgives one strike or
	// backoff round (default 1s).
	PanicDecay time.Duration
	// SampleEvery enables per-operator latency and queue-wait sampling:
	// every Nth queued delivery per emitting loop is timestamped at enqueue
	// and timed through its operator into the op_exec_seconds and
	// op_queue_wait_seconds histograms. 0 (the default) disables sampling;
	// the disabled path costs a single integer compare per delivery.
	SampleEvery int
	// Obs is the registry the engine registers its series on. Nil gives the
	// engine a private registry, reachable via Engine.Registry.
	Obs *obs.Registry
	// Recorder receives steal/park and supervision flight-recorder events.
	// Nil disables recording (the Record call is a nil-receiver no-op).
	Recorder *obs.FlightRecorder
	// ObsPE is the processing-element id stamped on recorded events.
	ObsPE int
}

func (o *Options) setDefaults() {
	if o.MaxThreads == 0 {
		o.MaxThreads = 64
	}
	if o.QueueCapacity == 0 {
		o.QueueCapacity = 1024
	}
	if o.AdaptPeriod == 0 {
		o.AdaptPeriod = 100 * time.Millisecond
	}
	if o.ProfilePeriod == 0 {
		o.ProfilePeriod = time.Millisecond
	}
	if o.QuarantineBase <= 0 {
		o.QuarantineBase = 100 * time.Millisecond
	}
	if o.QuarantineMax <= 0 {
		o.QuarantineMax = 5 * time.Second
	}
	if o.QuarantineMax < o.QuarantineBase {
		o.QuarantineMax = o.QuarantineBase
	}
	if o.PanicDecay <= 0 {
		o.PanicDecay = time.Second
	}
}

// Engine executes a graph with elastic threading. Create with New, launch
// with Start, and always Stop it to release its goroutines.
type Engine struct {
	g    *graph.Graph
	opts Options

	outByPort [][][]graph.Edge // node -> port -> edges
	isSink    []bool
	recycle   []bool        // operators whose inputs the runtime releases after Process
	statefulM []*sync.Mutex // per-node lock for Stateful operators

	cfg atomic.Pointer[engineConfig]

	meter      *metrics.Meter
	profiler   *metrics.Profiler
	reconfigTS *metrics.ThreadState
	latency    *obs.Histogram
	isSource   []bool
	opPanics   atomic.Uint64
	sup        *supervision // nil unless Options.PanicBudget > 0

	// Observability: the engine's registry (Options.Obs or a private one),
	// the flight recorder (possibly nil), the sink latency histogram, and the
	// sampling histograms — one execution histogram per non-source node plus
	// one engine-wide queue-wait histogram, all registered up front so series
	// presence does not depend on the sampling rate.
	reg       *obs.Registry
	rec       *obs.FlightRecorder
	recPE     int32
	opHist    []*obs.Histogram
	qwaitHist *obs.Histogram

	// Pause/park machinery for online reconfiguration.
	mu       sync.Mutex
	cond     *sync.Cond
	pauseReq atomic.Bool
	parked   int
	loops    int

	// Idle-worker parking, sharded so a wake never takes a global lock and
	// never broadcasts. Producers consult waiters (the global count, a
	// single atomic load when nobody is parked) after every enqueue and hand
	// a wake token to one shard near their own; workers with nothing to scan
	// park on their shard's condition variable instead of sleep-polling, so
	// an idle pool costs no CPU and wakes within a scheduler hop of a push.
	shards  [parkShards]parkShard
	waiters atomic.Int32

	// Work stealing. allSlots is append-only and indexed by worker id, so a
	// worker re-created after a pool shrink reuses its deque and keeps its
	// cumulative counters; slots snapshots the live prefix for stealers and
	// idle rescans. srcStats has one counter group per source loop and
	// extStats covers everything else that emits (reconfiguration drains,
	// tests); per-party groups keep hot-path increments contention-free.
	allSlots []*wslot // guarded by reconfigMu
	slots    atomic.Pointer[[]*wslot]
	srcStats []metrics.SchedCounters
	extStats metrics.SchedCounters

	reconfigMu sync.Mutex // serializes ApplyPlacement/SetThreadCount

	stop    atomic.Bool
	drain   atomic.Bool
	wg      sync.WaitGroup
	workers []*worker
	started bool
	start   time.Time
}

// parkShard is one slice of the idle-parking machinery.
type parkShard struct {
	mu      sync.Mutex
	cond    *sync.Cond
	wakes   int          // outstanding wake tokens, guarded by mu
	waiters atomic.Int32 // workers parked or about to park here
}

// wslot is the per-worker scheduling state that outlives the worker
// goroutine: its deque and its counters survive pool shrinks so a regrown
// pool resumes where it left off and counters stay cumulative.
type wslot struct {
	deq   *queue.WSDeque[ditem]
	stats metrics.SchedCounters
}

// worker is one scheduler goroutine.
type worker struct {
	id   int
	quit chan struct{}
	slot *wslot
	rng  uint64 // xorshift64 state for randomized victim selection
}

// nextRand advances the worker's private xorshift64 generator.
func (w *worker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// New validates the graph (finalized, every node has an operator, sources
// implement spl.Source) and returns an engine with all operators manual and
// one scheduler thread configured.
func New(g *graph.Graph, opts Options) (*Engine, error) {
	opts.setDefaults()
	if !g.Finalized() {
		return nil, errors.New("exec: graph not finalized")
	}
	if opts.QueueCapacity < 2 || opts.QueueCapacity&(opts.QueueCapacity-1) != 0 {
		return nil, fmt.Errorf("exec: queue capacity %d is not a power of two", opts.QueueCapacity)
	}
	n := g.NumNodes()
	e := &Engine{
		g:         g,
		opts:      opts,
		outByPort: make([][][]graph.Edge, n),
		isSink:    make([]bool, n),
		recycle:   make([]bool, n),
		isSource:  make([]bool, n),
		statefulM: make([]*sync.Mutex, n),
		meter:     metrics.NewMeter(time.Now()),
		profiler:  metrics.NewProfiler(n),
		srcStats:  make([]metrics.SchedCounters, len(g.Sources())),
	}
	e.cond = sync.NewCond(&e.mu)
	for i := range e.shards {
		e.shards[i].cond = sync.NewCond(&e.shards[i].mu)
	}
	e.slots.Store(&[]*wslot{})
	e.reconfigTS = e.profiler.Register()
	for i := 0; i < n; i++ {
		nd := g.Node(graph.NodeID(i))
		if nd.Op == nil {
			return nil, fmt.Errorf("exec: node %d has no operator", i)
		}
		if nd.Source {
			if _, ok := nd.Op.(spl.Source); !ok {
				return nil, fmt.Errorf("exec: source node %d operator %q does not implement spl.Source", i, nd.Op.Name())
			}
		}
		if _, ok := nd.Op.(spl.Stateful); ok {
			e.statefulM[i] = &sync.Mutex{}
		}
		maxPort := -1
		for _, eg := range nd.Out {
			if eg.FromPort > maxPort {
				maxPort = eg.FromPort
			}
		}
		ports := make([][]graph.Edge, maxPort+1)
		for _, eg := range nd.Out {
			ports[eg.FromPort] = append(ports[eg.FromPort], eg)
		}
		e.outByPort[i] = ports
		e.isSink[i] = len(nd.Out) == 0
		// Recyclable is not sink-only: any operator that neither retains nor
		// forwards its input (Expand's burst tuples are fresh acquires, for
		// example) gives the runtime a release point, keeping the steady
		// state allocation-free mid-graph too.
		if _, ok := nd.Op.(spl.Recyclable); ok {
			e.recycle[i] = true
		}
		e.isSource[i] = nd.Source
	}
	if opts.PanicBudget > 0 {
		e.sup = newSupervision(n, opts)
	}
	e.reg = opts.Obs
	if e.reg == nil {
		e.reg = obs.NewRegistry()
	}
	e.rec = opts.Recorder
	e.recPE = int32(opts.ObsPE)
	e.registerMetrics()
	cfg, err := e.buildConfig(make([]bool, n), nil)
	if err != nil {
		return nil, err
	}
	e.cfg.Store(cfg)
	return e, nil
}

// buildConfig assembles a new engineConfig, reusing queues from prev for
// nodes that stay dynamic so in-flight tuples survive reconfiguration.
func (e *Engine) buildConfig(placement []bool, prev *engineConfig) (*engineConfig, error) {
	n := e.g.NumNodes()
	cfg := &engineConfig{
		placement: make([]bool, n),
		queues:    make([]*queue.MPMC[item], n),
	}
	copy(cfg.placement, placement)
	for i := 0; i < n; i++ {
		if e.g.Node(graph.NodeID(i)).Source {
			cfg.placement[i] = false
		}
		if !cfg.placement[i] {
			continue
		}
		if prev != nil && prev.queues[i] != nil {
			cfg.queues[i] = prev.queues[i]
		} else {
			q, err := queue.NewMPMC[item](e.opts.QueueCapacity)
			if err != nil {
				return nil, fmt.Errorf("exec: queue for node %d: %w", i, err)
			}
			cfg.queues[i] = q
		}
		cfg.queueList = append(cfg.queueList, graph.NodeID(i))
	}
	e.compilePrograms(cfg)
	return cfg, nil
}

// Start launches the source operator threads, the initial scheduler pool
// and the profiler. The context bounds the profiler only; use Stop to shut
// the engine down.
func (e *Engine) Start(ctx context.Context) error {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return errors.New("exec: engine already started")
	}
	e.started = true
	e.start = time.Now()
	e.mu.Unlock()

	e.meter.Reset(time.Now())
	e.profiler.Start(ctx, e.opts.ProfilePeriod)
	for i, s := range e.g.Sources() {
		e.wg.Add(1)
		go e.sourceLoop(i, s)
	}
	e.reconfigMu.Lock()
	defer e.reconfigMu.Unlock()
	// Keep any pool size configured before Start (for example by a
	// coordinator constructed against this engine); default to one thread.
	if len(e.workers) == 0 {
		e.setWorkersLocked(1)
	}
	return nil
}

// Stop terminates all goroutines and waits for them to exit. It is safe to
// call more than once.
func (e *Engine) Stop() {
	if e.stop.Swap(true) {
		e.wg.Wait()
		return
	}
	e.mu.Lock()
	e.pauseReq.Store(false)
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wakeAllIdle()
	e.wg.Wait()
	e.profiler.Stop()
}

// enterLoop registers a running dispatch loop for the pause barrier.
func (e *Engine) enterLoop() {
	e.mu.Lock()
	e.loops++
	e.mu.Unlock()
}

// exitLoop unregisters a dispatch loop.
func (e *Engine) exitLoop() {
	e.mu.Lock()
	e.loops--
	e.cond.Broadcast()
	e.mu.Unlock()
}

// maybePark blocks while a reconfiguration is in progress. Loops call it
// between dispatches, never mid-tuple.
func (e *Engine) maybePark() {
	if !e.pauseReq.Load() {
		return
	}
	e.mu.Lock()
	e.parked++
	e.cond.Broadcast()
	for e.pauseReq.Load() && !e.stop.Load() {
		e.cond.Wait()
	}
	e.parked--
	e.mu.Unlock()
}

// pauseAll requests a pause and waits until every dispatch loop is parked.
// The caller must hold reconfigMu and must call resumeAll afterwards.
func (e *Engine) pauseAll() {
	e.pauseReq.Store(true)
	// Idle-parked workers must wake to reach the pause barrier.
	e.wakeAllIdle()
	e.mu.Lock()
	for e.parked < e.loops && !e.stop.Load() {
		e.cond.Wait()
	}
	e.mu.Unlock()
}

// resumeAll releases parked loops.
func (e *Engine) resumeAll() {
	e.pauseReq.Store(false)
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// wakeWorkers hands out up to n idle-wake tokens, capped by the number of
// currently parked workers. With no parked workers it is a single atomic
// load.
func (e *Engine) wakeWorkers(n int) {
	e.wake(n, 0, &e.extStats)
}

// wake grants up to n wake tokens to parked workers, scanning shards from
// origin so the woken worker is a nearby one (same shard as the producer
// when possible) and at most the requested number of workers stir — never a
// broadcast. Producers call it after every enqueue.
//
// No wakeup is lost: a parking worker increments its shard's waiter count,
// then the global count, then rescans every queue and deque before
// sleeping; a producer enqueues before loading the global count. If the
// producer reads 0 here, the worker's rescan is ordered after the enqueue
// and finds the work. If it reads >0, the worker's shard count was
// incremented even earlier, so the shard scan below finds the shard, and
// the token — granted under the shard lock the worker must take to sleep —
// cannot slip past it.
func (e *Engine) wake(n, origin int, stats *metrics.SchedCounters) {
	if e.waiters.Load() == 0 {
		return
	}
	granted := 0
	for i := 0; i < parkShards && granted < n; i++ {
		sh := &e.shards[(origin+i)&(parkShards-1)]
		w := int(sh.waiters.Load())
		if w == 0 {
			continue
		}
		give := n - granted
		if give > w {
			give = w
		}
		sh.mu.Lock()
		sh.wakes += give
		if give == 1 {
			sh.cond.Signal()
		} else {
			sh.cond.Broadcast()
		}
		sh.mu.Unlock()
		granted += give
	}
	if granted > 0 {
		stats.Wakes.Add(uint64(granted))
	}
}

// wakeAllIdle wakes every idle-parked worker without issuing wake tokens;
// used by shutdown, pause, and pool-shrink paths whose wake conditions the
// workers re-check themselves.
func (e *Engine) wakeAllIdle() {
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
}

// chanClosed reports whether the close-only channel ch has been closed.
func chanClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// parkIdle blocks the worker until a producer hands its shard a wake token
// or the engine needs the worker elsewhere (pause, shutdown, pool shrink).
// Parked workers cost no CPU, and a push wakes one within a scheduler hop —
// well under the 50µs floor of the sleep-poll this replaces.
func (e *Engine) parkIdle(w *worker) {
	sh := &e.shards[w.id&(parkShards-1)]
	sh.waiters.Add(1)
	e.waiters.Add(1)
	// Rescan after publishing the waiter counts: a producer that enqueued
	// before observing a waiter skipped its wake, so the push must be found
	// here. (Producers enqueue before loading waiters; workers publish the
	// waiter before scanning — one side always sees the other.) The scan
	// reloads the engine config rather than trusting the loop's snapshot — a
	// reconfiguration may have added queues since — and covers the other
	// workers' deques, whose owners may have pushed right before parking
	// themselves.
	work := false
	cfg := e.cfg.Load()
	for _, nid := range cfg.queueList {
		if cfg.queues[nid].Len() > 0 {
			work = true
			break
		}
	}
	if !work {
		for _, s := range *e.slots.Load() {
			if s != w.slot && !s.deq.Empty() {
				work = true
				break
			}
		}
	}
	if work {
		e.waiters.Add(-1)
		sh.waiters.Add(-1)
		return
	}
	if p := w.slot.stats.Parks.Add(1); p&(recSampleEvery-1) == 1 {
		e.rec.Record(obs.EvPark, e.recPE, int64(w.id), int64(p), "")
	}
	sh.mu.Lock()
	for sh.wakes == 0 && !e.stop.Load() && !e.pauseReq.Load() && !chanClosed(w.quit) {
		sh.cond.Wait()
	}
	if sh.wakes > 0 {
		sh.wakes--
	}
	sh.mu.Unlock()
	// Decrement global before shard: wake only scans shards while the
	// global count is nonzero, and this order keeps a shard's count nonzero
	// for the whole window in which the global count says someone is parked.
	e.waiters.Add(-1)
	sh.waiters.Add(-1)
}

// sourceLoop drives one source operator on its own goroutine. idx is the
// source's position in g.Sources(), which indexes its private counter
// group and spreads sources across the wake shards.
func (e *Engine) sourceLoop(idx int, id graph.NodeID) {
	defer e.wg.Done()
	e.enterLoop()
	defer e.exitLoop()
	ts := e.profiler.Register()
	defer e.profiler.Release(ts)
	src := e.g.Node(id).Op.(spl.Source)
	_, exempt := e.g.Node(id).Op.(spl.DrainExempt)
	draining := func() bool { return e.drain.Load() && !exempt }
	em := e.newEmitter(ts)
	em.node = id
	em.stats = &e.srcStats[idx]
	em.origin = idx
	// Sources stripe the sink meter from the top so inline sink execution on
	// a source loop does not share a stripe with the same-numbered worker.
	em.sinkMeter = e.meter.Shard(metrics.MeterShards - 1 - idx)
	for !e.stop.Load() && !draining() {
		e.maybePark()
		if e.stop.Load() || draining() {
			return
		}
		em.cfg = e.cfg.Load()
		em.srcProg = nil
		if progs := em.cfg.progs; progs != nil {
			em.srcProg = progs[id]
		}
		em.node = id
		ts.Enter(int(id))
		more := src.Next(em)
		ts.Leave()
		// Flush the compiled-region capture buffer after every Next call:
		// batch depth is whatever one source invocation emitted, and nothing
		// is ever in flight across iterations — maybePark and the pause
		// barrier only ever see an empty buffer.
		if len(em.srcBuf) > 0 {
			e.flushSource(em)
		}
		if !more {
			return
		}
	}
}

// workerLoop is one scheduler thread. Work is found in steal-loop order:
// the worker drains its own deque first (LIFO, batched), then steals half a
// victim's deque (victim scan starts at a random worker), then falls back
// to the shared scheduler queues, draining up to workerBatch tuples from
// the first non-empty one (the scan starts from a rotating position so
// workers spread across queues). A worker that finds nothing anywhere
// yields for a few scans and then parks until a producer wakes it.
func (e *Engine) workerLoop(w *worker) {
	defer e.wg.Done()
	e.enterLoop()
	defer e.exitLoop()
	ts := e.profiler.Register()
	defer e.profiler.Release(ts)
	em := e.newEmitter(ts)
	em.stats = &w.slot.stats
	em.origin = w.id
	em.sinkMeter = e.meter.Shard(w.id)
	em.local = w.slot.deq
	batch := make([]item, workerBatch)
	dbatch := make([]ditem, workerBatch)
	rot := w.id
	idle := 0
	for {
		if e.stop.Load() {
			return
		}
		if chanClosed(w.quit) {
			// The pool shrank under us: conserve in-flight work by running
			// the deque dry before retiring (the slot may be re-adopted by a
			// future worker, but nothing refills it until then).
			e.flushLocal(em, w.slot)
			return
		}
		e.maybePark()
		cfg := e.cfg.Load()
		em.cfg = cfg
		worked := false
		if k := w.slot.deq.PopBottomN(dbatch); k > 0 {
			w.slot.stats.LocalPops.Add(uint64(k))
			e.executeDBatch(em, batch, dbatch[:k])
			worked = true
		} else if k := e.trySteal(w, dbatch); k > 0 {
			if s := w.slot.stats.Steals.Add(1); s&(recSampleEvery-1) == 1 {
				e.rec.Record(obs.EvSteal, e.recPE, int64(k), int64(w.id), "")
			}
			w.slot.stats.StolenTuples.Add(uint64(k))
			e.executeDBatch(em, batch, dbatch[:k])
			worked = true
		} else {
			n := len(cfg.queueList)
			for i := 0; i < n; i++ {
				nid := cfg.queueList[(rot+i)%n]
				if k := cfg.queues[nid].TryPopN(batch); k > 0 {
					rot = (rot + i) % n
					e.executeBatch(em, nid, batch[:k])
					worked = true
					break
				}
			}
		}
		if worked {
			idle = 0
			continue
		}
		rot++
		idle++
		if idle < idleSpinLimit {
			runtime.Gosched()
			continue
		}
		e.parkIdle(w)
	}
}

// trySteal scans the other live workers' deques from a random starting
// victim and takes half the first non-empty one, copying up to len(out)
// items into out. It returns how many were stolen.
func (e *Engine) trySteal(w *worker, out []ditem) int {
	slots := *e.slots.Load()
	n := len(slots)
	if n <= 1 {
		return 0
	}
	off := int(w.nextRand() % uint64(n))
	for i := 0; i < n; i++ {
		v := slots[(off+i)%n]
		if v == w.slot {
			continue
		}
		if k := v.deq.StealHalf(out); k > 0 {
			return k
		}
	}
	return 0
}

// flushLocal empties a retiring worker's deque by executing the tuples
// inline. The emitter's affinity is switched off first so re-emissions land
// in the shared queues (or inline) rather than back in the deque being
// drained.
func (e *Engine) flushLocal(em *emitter, slot *wslot) {
	em.local = nil
	em.cfg = e.cfg.Load()
	for {
		it, ok := slot.deq.PopBottom()
		if !ok {
			return
		}
		slot.stats.LocalPops.Add(1)
		e.execute(em, it.node, it.port, it.t)
	}
}

// executeDBatch runs a deque batch, grouping runs of consecutive
// same-operator items into executeBatch calls so the profiler transition
// and the sink meter amortize exactly as on the shared-queue path. scratch
// must be at least len(items) long.
func (e *Engine) executeDBatch(em *emitter, scratch []item, items []ditem) {
	i := 0
	for i < len(items) {
		node := items[i].node
		j := i + 1
		for j < len(items) && items[j].node == node {
			j++
		}
		for k := i; k < j; k++ {
			scratch[k-i] = item{port: items[k].port, t: items[k].t, enq: items[k].enq}
		}
		e.executeBatch(em, node, scratch[:j-i])
		i = j
	}
}

// execute runs operator node on tuple t, updating the profiler state and
// the sink meter.
func (e *Engine) execute(em *emitter, node graph.NodeID, port int, t *spl.Tuple) {
	if e.sup != nil && e.sup.quarantined(int(node), time.Now().UnixNano()) {
		// The tuple is exclusively ours here (queue crossings and fan-out
		// clone), so a quarantine drop returns it to the pool.
		e.sup.drops.Add(1)
		t.Release()
		return
	}
	ts := em.ts
	ts.Enter(int(node))
	ok := e.process(em, e.g.Node(node), node, port, t)
	ts.Leave()
	if e.isSink[node] {
		em.sinkMeter.Add(1)
		e.finishSink(node, t, ok)
	} else if ok && e.recycle[node] {
		t.Release()
	}
}

// executeBatch runs operator node on a batch of tuples drained from its
// scheduler queue, entering the profiler state once for the whole batch and
// metering sinks with a single atomic add.
func (e *Engine) executeBatch(em *emitter, node graph.NodeID, items []item) {
	if progs := em.cfg.progs; progs != nil {
		if p := progs[node]; p != nil {
			e.runRegionItems(em, p, items)
			return
		}
	}
	nd := e.g.Node(node)
	sink, recycle := e.isSink[node], e.recycle[node]
	ts := em.ts
	ts.Enter(int(node))
	metered := 0
	for i := range items {
		it := &items[i]
		// Quarantine is checked per tuple, as execute does, so a quarantine
		// engaged mid-batch stops the operator at once.
		if e.sup != nil && e.sup.quarantined(int(node), time.Now().UnixNano()) {
			e.sup.drops.Add(1)
			it.t.Release()
			continue
		}
		var ok bool
		if it.enq != 0 {
			ok = e.processSampled(em, nd, node, it.port, it.t, it.enq)
		} else {
			ok = e.process(em, nd, node, it.port, it.t)
		}
		if sink {
			metered++
			e.finishSink(node, it.t, ok)
		} else if ok && recycle {
			it.t.Release()
		}
	}
	ts.Leave()
	if metered > 0 {
		em.sinkMeter.Add(uint64(metered))
	}
}

// finishSink records sink-side latency and recycles the tuple when the sink
// operator guarantees it retains nothing. ok is false when the operator
// panicked, in which case the tuple's state is unknown and it is left to
// the garbage collector.
func (e *Engine) finishSink(node graph.NodeID, t *spl.Tuple, ok bool) {
	if e.opts.TrackLatency && t.Time > 0 {
		e.latency.Observe(time.Duration(time.Now().UnixNano() - t.Time))
	}
	if ok && e.recycle[node] {
		t.Release()
	}
}

// process invokes the operator with the loop's reusable emitter pointed at
// node. A panicking operator loses its tuple but must not kill the
// scheduler thread, so panics are contained and counted; ok reports whether
// the invocation completed normally.
func (e *Engine) process(em *emitter, nd *graph.Node, node graph.NodeID, port int, t *spl.Tuple) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			e.opPanics.Add(1)
			if e.sup != nil {
				e.sup.notePanic(int(node), time.Now())
			}
			// The panic may have unwound through nested inline execution,
			// leaving the profiler state and the emitter pointed at a
			// downstream operator; restore both.
			em.node = node
			em.ts.Enter(int(node))
		}
	}()
	// Chaos hooks fire inside the recover scope, so an injected panic takes
	// the exact path a real operator panic takes.
	if inj := e.opts.Fault; inj != nil {
		site := e.opts.FaultSiteBase + int(node)
		if d := inj.FireDelay(fault.OpSlow, site); d > 0 {
			time.Sleep(d)
		}
		if inj.Fire(fault.OpPanic, site) {
			panic(fmt.Sprintf("exec: injected panic in operator %q", nd.Op.Name()))
		}
	}
	if m := e.statefulM[node]; m != nil {
		m.Lock()
		defer m.Unlock()
	}
	em.node = node
	nd.Op.Process(port, t, em)
	return true
}

// emitter routes an operator's output tuples: deque-pushed (emit affinity)
// or queued for dynamic consumers — both with a pooled tuple copy — and
// inline execution for manual ones. One emitter is allocated per dispatch
// loop and reused for every dispatch; its cfg is refreshed at each loop
// iteration and its node tracks the operator currently executing on the
// loop's goroutine. local is the owning worker's deque (nil off the worker
// pool), stats the loop's private counter
// group, and origin the wake shard producers near this loop should prefer.
type emitter struct {
	e      *Engine
	cfg    *engineConfig
	ts     *metrics.ThreadState
	node   graph.NodeID
	local  *queue.WSDeque[ditem]
	stats  *metrics.SchedCounters
	origin int

	// sinkMeter is this loop's private stripe of the engine sink meter.
	// Sink metering was the last shared atomic on the tuple hot path; giving
	// every dispatch loop its own cache-line-padded stripe makes it a
	// contention-free add, merged lazily by SinkCount/Observe readers.
	sinkMeter *metrics.MeterShard

	// Sampling gate: every sampleN-th queued delivery from this loop is
	// timestamped. Plain ints — the emitter is loop-private.
	sampleN   int
	sampleCnt int

	// Compiled-region scratch state (region.go), all loop-private and
	// reused across batches so the compiled steady state allocates nothing:
	// ibuf stages queue items' tuples into a batch, rbufs ping-pong stage
	// outputs down a program, and coll is the stage collector the compiled
	// operators emit into. srcProg is the compiled program rooted at this
	// loop's source (nil off source loops or when the region is not
	// compiled) and srcBuf the capture buffer Emit diverts source emissions
	// into until the loop flushes. held stacks the stateful locks a region
	// run has taken, released when the run ends.
	ibuf    []*spl.Tuple
	rbufs   [2][]*spl.Tuple
	coll    stageCollector
	srcProg *regionProgram
	srcBuf  []*spl.Tuple
	held    []*sync.Mutex
}

// newEmitter returns a dispatch-loop emitter with counters defaulted to the
// engine's catch-all group; loops with a private group override stats.
func (e *Engine) newEmitter(ts *metrics.ThreadState) *emitter {
	return &emitter{e: e, ts: ts, stats: &e.extStats, sampleN: e.opts.SampleEvery,
		sinkMeter: e.meter.Shard(0)}
}

// stamp returns the enqueue timestamp for a queued delivery the sampling
// gate selects, 0 otherwise. With sampling disabled it is a single compare.
func (em *emitter) stamp() int64 {
	if em.sampleN == 0 {
		return 0
	}
	em.sampleCnt++
	if em.sampleCnt < em.sampleN {
		return 0
	}
	em.sampleCnt = 0
	return time.Now().UnixNano()
}

var (
	_ spl.Emitter      = (*emitter)(nil)
	_ spl.BatchEmitter = (*emitter)(nil)
)

// EmitN implements spl.BatchEmitter: a source holding a whole batch (the
// transport import draining its injection ring) lands it in one call. When
// the source loop is running a compiled region the batch bulk-appends into
// the capture buffer — a cross-PE batch frame reaches the region program
// without ever being re-serialized into per-tuple delivery — otherwise it
// falls back to per-tuple Emit with identical semantics.
func (em *emitter) EmitN(port int, ts []*spl.Tuple) {
	node := em.node
	if p := em.srcProg; p != nil && node == p.head && port == p.srcPort {
		if em.e.opts.TrackLatency && em.e.isSource[node] {
			now := time.Now().UnixNano()
			for _, t := range ts {
				t.Time = now
			}
		}
		em.srcBuf = append(em.srcBuf, ts...)
		return
	}
	for _, t := range ts {
		em.Emit(port, t)
	}
}

// Emit implements spl.Emitter. Because the emitter is shared down inline
// execution chains, Emit snapshots the emitting node on entry and restores
// the emitter and the profiler state once after the last edge — and only
// when an inline delivery actually clobbered them.
func (em *emitter) Emit(port int, t *spl.Tuple) {
	node := em.node
	if em.e.opts.TrackLatency && em.e.isSource[node] {
		t.Time = time.Now().UnixNano()
	}
	// A source loop with a compiled region captures its emissions instead
	// of delivering them; the loop flushes the batch through the program
	// after each Next call. The head is a source node and inline chains
	// never execute sources, so only the source's own emissions match.
	if p := em.srcProg; p != nil && node == p.head && port == p.srcPort {
		em.srcBuf = append(em.srcBuf, t)
		return
	}
	ports := em.e.outByPort[node]
	if port < 0 || port >= len(ports) {
		return // no consumers on this port
	}
	edges := ports[port]
	inlined := false
	for i, eg := range edges {
		// Fan-out: every consumer beyond the last gets its own copy so
		// consumers cannot observe each other's mutations; deliver clones
		// queued deliveries itself, so only inline ones pre-copy here.
		if em.e.deliver(em, eg.To, eg.ToPort, t, i == len(edges)-1) {
			inlined = true
		}
	}
	if inlined {
		em.node = node
		em.ts.Enter(int(node))
	}
}

// deliver hands a tuple to node. Under the dynamic model a worker pushes a
// clone onto its own deque (emit affinity: no shared-queue CAS, and the
// worker runs the tuple next while it is cache-hot); everyone else — and a
// worker whose deque is full — reserves a shared-queue cell first and
// clones the tuple only once the enqueue is known to succeed (the clone is
// the paper's copy overhead either way), then recycles the original when it
// owns it. Under the manual model it executes the operator inline. owned
// reports whether the callee may consume t; when false (a fan-out edge
// before the last) the tuple is cloned for any consuming path. deliver
// reports whether it executed operators inline on the calling goroutine.
func (e *Engine) deliver(em *emitter, node graph.NodeID, port int, t *spl.Tuple, owned bool) bool {
	cfg := em.cfg
	if cfg.placement[node] {
		if d := em.local; d != nil && !d.Full() {
			c := t.Clone()
			if d.PushBottom(ditem{node: node, port: port, t: c, enq: em.stamp()}) {
				if owned {
					t.Release()
				}
				em.stats.LocalPushes.Add(1)
				e.wake(1, em.origin, em.stats)
				return false
			}
			// Unreachable in practice — only thieves move top, so a deque
			// the owner saw non-full cannot fill — but if it ever happens
			// the clone goes back to the pool and the shared path takes
			// over.
			c.Release()
		}
		q := cfg.queues[node]
		for spins := 0; ; spins++ {
			if s, ok := q.TryReservePush(); ok {
				s.Commit(item{port: port, t: t.Clone(), enq: em.stamp()})
				if owned {
					t.Release()
				}
				if em.local != nil {
					em.stats.Overflows.Add(1)
				} else {
					em.stats.Injected.Add(1)
				}
				e.wake(1, em.origin, em.stats)
				return false
			}
			if e.stop.Load() {
				return false
			}
			if e.pauseReq.Load() || spins >= pushSpinLimit {
				// Execute inline instead of spinning: either a
				// reconfiguration is waiting for us to park, or the queue
				// has stayed full — and with every worker potentially
				// blocked as a producer on a full downstream queue,
				// waiting indefinitely would deadlock the pipeline. The
				// tuple jumps the queue, trading strict FIFO order for
				// liveness. No clone was made, so no copy work is wasted.
				break
			}
			runtime.Gosched()
		}
	}
	tt := t
	if !owned {
		tt = t.Clone()
	}
	e.execute(em, node, port, tt)
	return true
}
