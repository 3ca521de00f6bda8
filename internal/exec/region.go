// Region compilation: the manual threading model's steady path, compiled.
//
// A scheduler-queue placement partitions the graph into execution regions
// (see internal/graph/regions.go): each region is headed by a source or a
// dynamic (queued) operator, and every manual operator downstream of the
// head — up to the next queue — executes inline on whatever thread delivers
// to it. The interpreted path pays per tuple for that inlining: an
// interface dispatch through spl.Operator.Process, a graph.Node lookup and
// an edge-slice walk per emission, a defer/recover frame per hop, and two
// profiler transitions per operator, all repeated recursively down the
// chain via Emit and deliver.
//
// The compiler flattens each region's straight-line single-consumer chain
// into a regionProgram: an ops array with the operator pointers, ports,
// recycle/sink flags, stateful locks, and BatchProcessor bindings resolved
// once at configuration time. Executing a batch through a program touches
// no graph.Node, takes supervision and stateful-lock decisions once per
// stage per batch instead of once per tuple, and runs vectorized operators
// through spl.BatchProcessor. A chain ends at a sink (fully compiled), or
// at the first fan-out or dynamic successor, where a generic exit step
// hands each tuple back to the interpreted machinery — so arbitrary graphs
// still execute correctly, with compilation covering the straight prefix.
//
// Programs live inside engineConfig, which ApplyPlacement swaps atomically:
// every coordinator placement move recompiles the region set, so threading-
// model elasticity is preserved and a stale program can never execute. The
// per-stage profiler Enter keeps the sampling profiler's cost attribution
// placement-independent, amortized over the batch.
//
// Fault injection runs on the compiled path too, so chaos tests exercise the
// code production runs. With an injector installed, every non-exit step
// first walks its batch in order and fires, per tuple, exactly what process
// fires on the interpreted path — a quarantine check, then OpSlow, then
// OpPanic — so both paths evaluate the same (point, site, n) events and lose
// the same tuples. The survivors then run as one batch after one sleep of
// the summed delay. Exit steps go through process, so no event fires twice.
package exec

import (
	"sync"
	"time"

	"streamelastic/internal/fault"
	"streamelastic/internal/graph"
	"streamelastic/internal/spl"
)

// regionStep is one flattened operator of a compiled region.
type regionStep struct {
	node graph.NodeID
	op   spl.Operator
	// bop is non-nil when op opts into vectorized execution.
	bop spl.BatchProcessor
	// inPort is the input port tuples of this step arrive on. The head step
	// of a queue-head program receives per-item ports instead (queue items
	// carry their delivery port), so it is -1 there.
	inPort int
	// outPort is the emission port that continues the chain. Emissions on
	// any other port have no consumers by construction and are dropped,
	// exactly as the interpreted Emit drops consumer-less ports. -1 for
	// sink and exit steps.
	outPort int
	// sink marks a terminal step: batch-metered, latency-tracked, recycled.
	sink bool
	// exit marks a generic tail step executed through the full interpreted
	// machinery (a fan-out or a dynamic successor follows).
	exit bool
	// recycle mirrors Engine.recycle[node].
	recycle bool
	// mu is the node's stateful-operator lock (nil for stateless ops),
	// taken once per stage per batch instead of once per tuple.
	mu *sync.Mutex
}

// regionProgram is one compiled manual region.
type regionProgram struct {
	// head is the region head: a dynamic node (steps[0].node == head) or a
	// source (steps cover the chain hanging off the source's only edge).
	head graph.NodeID
	// srcPort is the source output port feeding the region (-1 for
	// queue-head programs): the source loop buffers emissions on this port
	// and flushes them through the program batch-at-a-time.
	srcPort int
	steps   []regionStep
}

// compilePrograms builds the compiled-region set for cfg.
func (e *Engine) compilePrograms(cfg *engineConfig) {
	progs := make([]*regionProgram, e.g.NumNodes())
	any := false
	for _, nid := range cfg.queueList {
		if p := e.compileChain(nid, nid, -1, -1, cfg.placement); p != nil {
			progs[nid] = p
			any = true
		}
	}
	for _, sid := range e.g.Sources() {
		nd := e.g.Node(sid)
		if len(nd.Out) != 1 {
			continue // fan-out sources keep the interpreted emitter
		}
		eg := nd.Out[0]
		if cfg.placement[eg.To] {
			continue // the queue is the region head, not the source
		}
		if p := e.compileChain(sid, eg.To, eg.ToPort, eg.FromPort, cfg.placement); p != nil {
			progs[sid] = p
			any = true
		}
	}
	if any {
		cfg.progs = progs
	}
}

// compileChain flattens the straight-line chain starting at start (arriving
// on inPort) for the region headed at head. It returns nil for programs
// that would be a lone exit step — those are exactly the interpreted path,
// so there is nothing to compile.
func (e *Engine) compileChain(head, start graph.NodeID, inPort, srcPort int, placement []bool) *regionProgram {
	p := &regionProgram{head: head, srcPort: srcPort}
	node, port := start, inPort
	for {
		nd := e.g.Node(node)
		st := regionStep{
			node:    node,
			op:      nd.Op,
			inPort:  port,
			outPort: -1,
			recycle: e.recycle[node],
			mu:      e.statefulM[node],
		}
		if b, ok := nd.Op.(spl.BatchProcessor); ok {
			st.bop = b
		}
		if len(nd.Out) == 0 {
			st.sink = true
			p.steps = append(p.steps, st)
			return p
		}
		if len(nd.Out) == 1 && !placement[nd.Out[0].To] {
			eg := nd.Out[0]
			st.outPort = eg.FromPort
			p.steps = append(p.steps, st)
			node, port = eg.To, eg.ToPort
			continue
		}
		// Fan-out, or the successor is dynamic: a generic exit step closes
		// the chain.
		st.exit = true
		p.steps = append(p.steps, st)
		if len(p.steps) == 1 {
			return nil
		}
		return p
	}
}

// stageCollector is the emitter interior stages run their operators
// against: emissions on the chain's continuation port append to the next
// stage's buffer, anything else is dropped (the chain owns the node's only
// out edge, so no other port has consumers — matching the interpreted
// Emit's consumer-less path). want == -1 drops everything (sink steps).
type stageCollector struct {
	want int
	out  []*spl.Tuple
}

var _ spl.Emitter = (*stageCollector)(nil)

// Emit implements spl.Emitter.
func (c *stageCollector) Emit(port int, t *spl.Tuple) {
	if port == c.want {
		c.out = append(c.out, t)
	}
}

// runRegionItems executes a compiled region on a batch of queue items. It
// is the compiled counterpart of executeBatch. Sampling mirrors the
// interpreted path's observation counts exactly — one queue-wait
// observation per stamped item, one head-histogram observation per stamped
// item — with the region's batch-amortized execution time standing in for
// the per-item timing (the interpreted measurement includes the inline
// downstream work too, so the two agree in meaning).
func (e *Engine) runRegionItems(em *emitter, p *regionProgram, items []item) {
	sampled := 0
	var t0 int64
	for i := range items {
		if items[i].enq != 0 {
			if t0 == 0 {
				t0 = time.Now().UnixNano()
			}
			e.qwaitHist.Observe(time.Duration(t0 - items[i].enq))
			sampled++
		}
	}
	em.stats.FusedBatches.Add(1)
	em.stats.FusedTuples.Add(uint64(len(items)))
	// Queue items carry per-delivery ports; run maximal same-port spans
	// through the chain so every stage sees a uniform port. Spans execute
	// in arrival order, so per-consumer output order matches the
	// interpreted path exactly.
	i := 0
	for i < len(items) {
		port := items[i].port
		j := i + 1
		for j < len(items) && items[j].port == port {
			j++
		}
		buf := em.ibuf[:0]
		for k := i; k < j; k++ {
			buf = append(buf, items[k].t)
		}
		em.ibuf = buf
		e.runRegion(em, p, buf, port)
		i = j
	}
	if sampled > 0 {
		if h := e.opHist[p.steps[0].node]; h != nil {
			d := time.Duration(time.Now().UnixNano()-t0) / time.Duration(len(items))
			for k := 0; k < sampled; k++ {
				h.Observe(d)
			}
		}
	}
}

// flushSource pushes the source loop's buffered emissions through the
// source's compiled region and resets the buffer. The buffer survives
// flushes, so the steady state allocates nothing.
func (e *Engine) flushSource(em *emitter) {
	p := em.srcProg
	em.stats.FusedBatches.Add(1)
	em.stats.FusedTuples.Add(uint64(len(em.srcBuf)))
	e.runRegion(em, p, em.srcBuf, p.steps[0].inPort)
	em.srcBuf = em.srcBuf[:0]
}

// runRegion executes the program's steps on a batch of owned tuples
// arriving at steps[0] on port. The input slice is consumed; stage outputs
// ping-pong between the emitter's two scratch buffers, which are reused
// across batches so the steady state allocates nothing.
//
// A stateful step's lock, once taken, is held until the whole run ends and
// the locks are then released newest-first: the nesting the interpreted
// path's inline emits produce. Unlocking a step as soon as it filled its
// stage buffer would let another worker's run pass it and overtake this
// run's output downstream, interleaving the in-order runs a Reorder
// releases.
func (e *Engine) runRegion(em *emitter, p *regionProgram, in []*spl.Tuple, port int) {
	e.runSteps(em, p, in, port)
	for i := len(em.held) - 1; i >= 0; i-- {
		em.held[i].Unlock()
	}
	em.held = em.held[:0]
}

// runSteps is runRegion's body; the stateful locks it takes stay on
// em.held for runRegion to release.
func (e *Engine) runSteps(em *emitter, p *regionProgram, in []*spl.Tuple, port int) {
	ts := em.ts
	cur := in
	flip := 0
	for si := range p.steps {
		if len(cur) == 0 {
			return
		}
		st := &p.steps[si]
		if si > 0 {
			port = st.inPort
		}
		if e.sup != nil && e.sup.quarantined(int(st.node), time.Now().UnixNano()) {
			// The batch's tuples are exclusively ours, so a quarantine drop
			// returns them to the pool, exactly like the interpreted path —
			// just decided once per batch instead of once per tuple.
			e.sup.drops.Add(uint64(len(cur)))
			for _, t := range cur {
				t.Release()
			}
			return
		}
		if st.exit {
			// Generic tail: fan-out cloning, dynamic delivery, and emit
			// affinity all live in the interpreted machinery; each tuple
			// re-enters it here with full ownership.
			for _, t := range cur {
				e.execute(em, st.node, port, t)
			}
			return
		}
		if e.opts.Fault != nil {
			if cur = e.fireStepFaults(em, st, cur); len(cur) == 0 {
				return
			}
		}
		ts.Enter(int(st.node))
		if st.mu != nil {
			st.mu.Lock()
			em.held = append(em.held, st.mu)
		}
		if st.sink {
			e.runSinkStep(em, st, port, cur)
			ts.Leave()
			return
		}
		coll := &em.coll
		coll.want = st.outPort
		coll.out = em.rbufs[flip][:0]
		if st.bop != nil {
			if e.runStepBatch(st, coll, port, cur) && st.recycle {
				for _, t := range cur {
					t.Release()
				}
			}
		} else {
			for _, t := range cur {
				if e.runStepTuple(st, coll, port, t) && st.recycle {
					t.Release()
				}
			}
		}
		ts.Leave()
		em.rbufs[flip] = coll.out
		cur = coll.out
		coll.out = nil
		flip ^= 1
	}
}

// fireStepFaults fires the chaos hooks process fires per tuple for a batch
// entering a compiled step, in batch order: a quarantined operator drops the
// tuple, then OpSlow and OpPanic fire at the operator's site. A fired panic
// loses its tuple exactly as a contained panic in process does — counted,
// charged to supervision, left to the garbage collector, and still metered
// at a sink — so a panic that engages quarantine drops the rest of the batch
// through the next tuples' checks. The survivors are compacted to the front
// of in and returned after one sleep of the summed delay.
func (e *Engine) fireStepFaults(em *emitter, st *regionStep, in []*spl.Tuple) []*spl.Tuple {
	inj, site := e.opts.Fault, e.opts.FaultSiteBase+int(st.node)
	var delay time.Duration
	out := in[:0]
	for _, t := range in {
		if e.sup != nil && e.sup.quarantined(int(st.node), time.Now().UnixNano()) {
			e.sup.drops.Add(1)
			t.Release()
			continue
		}
		delay += inj.FireDelay(fault.OpSlow, site)
		if inj.Fire(fault.OpPanic, site) {
			e.opPanics.Add(1)
			if e.sup != nil {
				e.sup.notePanic(int(st.node), time.Now())
			}
			if st.sink {
				em.sinkMeter.Add(1)
				e.finishSink(st.node, t, false)
			}
			continue
		}
		out = append(out, t)
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return out
}

// runSinkStep runs a terminal step on a batch: one meter add for the whole
// batch, per-tuple latency/recycle through finishSink. The caller has
// already entered the profiler state and taken the step's stateful lock.
func (e *Engine) runSinkStep(em *emitter, st *regionStep, port int, in []*spl.Tuple) {
	coll := &em.coll
	coll.want = -1 // a sink's emissions have no consumers
	if st.bop != nil {
		ok := e.runStepBatch(st, coll, port, in)
		for _, t := range in {
			e.finishSink(st.node, t, ok)
		}
	} else {
		for _, t := range in {
			e.finishSink(st.node, t, e.runStepTuple(st, coll, port, t))
		}
	}
	em.sinkMeter.Add(uint64(len(in)))
}

// runStepTuple invokes a step's operator on one tuple against the stage
// collector, containing panics exactly like process: the tuple is lost but
// the scheduler thread survives, the panic is counted, and supervision is
// notified. ok reports normal completion.
func (e *Engine) runStepTuple(st *regionStep, coll *stageCollector, port int, t *spl.Tuple) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			e.opPanics.Add(1)
			if e.sup != nil {
				e.sup.notePanic(int(st.node), time.Now())
			}
		}
	}()
	st.op.Process(port, t, coll)
	return true
}

// runStepBatch invokes a step's vectorized operator on the whole batch. A
// panic loses the remainder of the batch at this stage — the batched
// analogue of a per-tuple panic losing its tuple — and counts once.
func (e *Engine) runStepBatch(st *regionStep, coll *stageCollector, port int, in []*spl.Tuple) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			e.opPanics.Add(1)
			if e.sup != nil {
				e.sup.notePanic(int(st.node), time.Now())
			}
		}
	}()
	st.bop.ProcessBatch(port, in, coll)
	return true
}
