package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"streamelastic/internal/spl"
)

// Tracing is outside-in: the traced run wraps every operator of the
// benchmark graph (and instruments the benchmark's own source and sink) and
// records, per stage, the time spent inside the operator and the time tuples
// took to reach it from the previous stage. Nothing inside the runtime is
// touched, so what happens between two stages -- a scheduler queue, or export
// staging, encode, socket, decode and the import ring -- shows up as one hop.

const (
	spanEvery = 1 << 12 // one tuple in 4096 gets a span per stage
	hopEvery  = 1 << 6  // one tuple in 64 gets a hop sample
	maxSpans  = 1 << 17
	hopCap    = 1 << 17
)

// stage is one instrumented operator. Accumulators are atomics because the
// dynamic threading model runs stateless operators on several threads.
type stage struct {
	name   string
	wire   bool // the hop into this stage crosses (or usually crosses) a PE edge
	self   atomic.Int64
	tuples atomic.Int64
	hopIdx atomic.Int64
	hops   []int64
	_      [64]byte
}

type span struct {
	stage      int32
	hop        bool
	start, end int64
	id         uint64 // sequence number of the sampled tuple
}

type tracer struct {
	stages []*stage
	// nested is set when the graph executes operators inline inside their
	// producer's Emit (interpreted fan-out, dynamic placement): a stage's
	// self time then excludes the time its emissions took, which costs two
	// clock reads per tuple. Chains that always run as compiled regions
	// emit into a collector, so one pair of clock reads per call is exact.
	nested bool

	mu    sync.Mutex
	spans []span
	pool  sync.Pool
}

func newTracer(nested bool) *tracer {
	tr := &tracer{nested: nested, spans: make([]span, 0, 1<<12)}
	tr.pool.New = func() any { return new(spanEmitter) }
	tr.addStage("gen", false)
	return tr
}

func (tr *tracer) addStage(name string, wire bool) int {
	tr.stages = append(tr.stages, &stage{name: name, wire: wire, hops: make([]int64, hopCap)})
	return len(tr.stages) - 1
}

// spanEmitter stands between an operator and the runtime's emitter: it
// stamps each emitted tuple's Num2 with the time it left the stage (no
// benchmark operator uses Num2) and, in nested mode, measures how long the
// runtime kept the thread inside Emit.
type spanEmitter struct {
	out   spl.Emitter
	batch bool
	stamp float64
	child int64
}

func (e *spanEmitter) Emit(port int, t *spl.Tuple) {
	if e.batch {
		t.Num2 = e.stamp
		e.out.Emit(port, t)
		return
	}
	c0 := nowNS()
	t.Num2 = float64(c0)
	e.out.Emit(port, t)
	e.child += nowNS() - c0
}

func (tr *tracer) emitter(out spl.Emitter, t0 int64) *spanEmitter {
	e := tr.pool.Get().(*spanEmitter)
	*e = spanEmitter{out: out, batch: !tr.nested, stamp: float64(t0)}
	return e
}

// arrive records the hop into stage si when t, arriving at t0, is one of
// the sampled tuples.
func (tr *tracer) arrive(si int, t0 int64, t *spl.Tuple) {
	if t.Seq&(hopEvery-1) != 0 || t.Num2 == 0 {
		return
	}
	st := tr.stages[si]
	left := int64(t.Num2)
	if i := st.hopIdx.Add(1) - 1; i < hopCap {
		st.hops[i] = t0 - left
	}
	if t.Seq&(spanEvery-1) == 0 {
		tr.record(span{stage: int32(si), hop: true, start: left, end: t0, id: t.Seq})
	}
}

// done closes a call into stage si that handled n tuples starting at
// sequence number first (0 when unknown) between t0 and t1, child
// nanoseconds of which were spent downstream.
func (tr *tracer) done(si int, t0, t1, child int64, first uint64, n int) {
	st := tr.stages[si]
	st.self.Add(t1 - t0 - child)
	st.tuples.Add(int64(n))
	if id := (first + spanEvery - 1) &^ (spanEvery - 1); id < first+uint64(n) {
		tr.record(span{stage: int32(si), start: t0, end: t1, id: id})
	}
}

// process runs one tuple through op as stage si.
func (tr *tracer) process(si int, op spl.Operator, port int, t *spl.Tuple, out spl.Emitter) {
	t0 := nowNS()
	first := t.Seq
	tr.arrive(si, t0, t)
	e := tr.emitter(out, t0)
	op.Process(port, t, e)
	tr.done(si, t0, nowNS(), e.child, first, 1)
	tr.pool.Put(e)
}

func (tr *tracer) record(s span) {
	tr.mu.Lock()
	if len(tr.spans) < maxSpans {
		tr.spans = append(tr.spans, s)
	}
	tr.mu.Unlock()
}

// selfNS sums the self time of the operator stages: everything but the
// generator (stage 0) and the sink (the last stage).
func (tr *tracer) selfNS(from, to int) int64 {
	var sum int64
	for _, st := range tr.stages[from:to] {
		sum += st.self.Load()
	}
	return sum
}

func (tr *tracer) resetHops() {
	for _, st := range tr.stages {
		st.hopIdx.Store(0)
	}
}

// wireHops returns the sorted hop samples of the stages fed by a PE edge.
func (tr *tracer) wireHops() []int64 {
	var out []int64
	for _, st := range tr.stages {
		if !st.wire {
			continue
		}
		n := st.hopIdx.Load()
		if n > hopCap {
			n = hopCap
		}
		out = append(out, st.hops[:n]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// write stores the spans as JSON. Spans of one sampled tuple share "trace";
// a span's parent is the span that handed it the tuple, which along a tuple's
// path is the previous one in time.
func (tr *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].id != spans[j].id {
			return spans[i].id < spans[j].id
		}
		return spans[i].start < spans[j].start
	})
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	type rec struct {
		ID     string `json:"id"`
		Parent string `json:"parent,omitempty"`
		Trace  uint64 `json:"trace"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	fmt.Fprintln(w, "[")
	parent := ""
	for i, s := range spans {
		name := tr.stages[s.stage].name
		if s.hop {
			name = "hop>" + name
		}
		if i == 0 || spans[i-1].id != s.id {
			parent = ""
		}
		r := rec{ID: fmt.Sprintf("%d/%d", s.id, i), Parent: parent, Trace: s.id, Name: name, Start: s.start, End: s.end}
		parent = r.ID
		b, _ := json.Marshal(r) // a struct of strings and integers cannot fail to marshal
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "%s%s\n", b, sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanOp wraps a stateless operator (spl.Work, spl.Map): both implement
// spl.BatchProcessor, so the wrapper keeps the compiled regions' vectorized
// step.
type spanOp struct {
	op  spl.BatchProcessor
	tr  *tracer
	idx int
}

func (o *spanOp) Name() string { return o.op.Name() }

func (o *spanOp) Process(port int, t *spl.Tuple, out spl.Emitter) {
	o.tr.process(o.idx, o.op, port, t, out)
}

func (o *spanOp) ProcessBatch(port int, ts []*spl.Tuple, out spl.Emitter) {
	t0 := nowNS()
	first, n := ts[0].Seq, len(ts)
	for _, t := range ts {
		o.tr.arrive(o.idx, t0, t)
	}
	e := o.tr.emitter(out, t0)
	o.op.ProcessBatch(port, ts, e)
	o.tr.done(o.idx, t0, nowNS(), e.child, first, n)
	o.tr.pool.Put(e)
}

// spanKeyed wraps a keyed counter by embedding it, which keeps every marker
// the runtime looks for (Stateful, Recyclable, Resettable, Snapshotter).
type spanKeyed struct {
	keyed
	tr  *tracer
	idx int
}

func (o *spanKeyed) Process(port int, t *spl.Tuple, out spl.Emitter) {
	o.tr.process(o.idx, o.keyed, port, t, out)
}

// spanSplit wraps spl.RoundRobinSplit the same way.
type spanSplit struct {
	*spl.RoundRobinSplit
	tr  *tracer
	idx int
}

func (o *spanSplit) Process(port int, t *spl.Tuple, out spl.Emitter) {
	o.tr.process(o.idx, o.RoundRobinSplit, port, t, out)
}
