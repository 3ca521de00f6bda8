package spl

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"streamelastic/internal/state"
)

// Generator is a source that emits synthetic tuples with a configurable
// payload size. It is the workhorse source for benchmarks: the paper's
// representative benchmarks vary the tuple payload from 1 B to 16384 B.
type Generator struct {
	// PayloadBytes is the size of each tuple's payload.
	PayloadBytes int
	// MaxTuples bounds how many tuples the generator emits; 0 means
	// unbounded.
	MaxTuples uint64
	// Keys is the number of distinct partition keys to cycle through;
	// 0 or 1 means all tuples share key 0.
	Keys uint64
	// Texts, when non-empty, is a corpus the generator cycles through for
	// the Text attribute (for tokenizer-style pipelines).
	Texts []string
	// Batch is how many tuples one Next call emits (0 or 1 means one).
	// Deeper batches feed the engine's compiled-region batch path: the
	// source loop buffers one Next call's emissions and pushes them through
	// the region program in a single pass.
	Batch int

	name    string
	seq     uint64
	payload []byte
}

var _ Source = (*Generator)(nil)

// NewGenerator returns a generator source named name emitting tuples with
// payloadBytes bytes of payload.
func NewGenerator(name string, payloadBytes int) *Generator {
	return &Generator{PayloadBytes: payloadBytes, name: name}
}

// Name returns the operator name.
func (g *Generator) Name() string { return g.name }

// Process is a no-op: generators have no input ports.
func (g *Generator) Process(int, *Tuple, Emitter) {}

// Next emits one batch of tuples (Batch of them, default one) and reports
// whether more remain.
func (g *Generator) Next(out Emitter) bool {
	if g.MaxTuples != 0 && g.seq >= g.MaxTuples {
		return false
	}
	if g.payload == nil && g.PayloadBytes > 0 {
		g.payload = make([]byte, g.PayloadBytes)
		for i := range g.payload {
			g.payload[i] = byte(i)
		}
	}
	n := g.Batch
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		if g.MaxTuples != 0 && g.seq >= g.MaxTuples {
			break
		}
		t := AcquireTuple()
		t.Seq, t.Time = g.seq, int64(g.seq)
		if g.Keys > 1 {
			t.Key = g.seq % g.Keys
		}
		if g.PayloadBytes > 0 {
			// The emitted tuple shares the generator's payload buffer; the
			// runtime clones tuples whenever they cross a scheduler queue,
			// which is exactly where SPL pays its copy cost.
			t.Payload = g.payload
		}
		if len(g.Texts) > 0 {
			t.Text = g.Texts[g.seq%uint64(len(g.Texts))]
		}
		g.seq++
		out.Emit(0, t)
	}
	return true
}

// Reset rewinds the generator's sequence counter.
func (g *Generator) Reset() { g.seq = 0 }

// Work is a synthetic compute operator that performs a configurable number
// of floating-point operations per tuple and forwards the tuple downstream.
// Its cost is read from a shared CostVar so workload phase changes apply to
// running engines.
type Work struct {
	name string
	cost *CostVar
	// sink absorbs the spin result so the compiler cannot eliminate the
	// loop; it is atomic because any scheduler thread may execute the
	// operator concurrently under the dynamic threading model.
	sink atomic.Uint64
}

var _ Operator = (*Work)(nil)

// NewWork returns a compute operator named name whose per-tuple cost is
// read from cost.
func NewWork(name string, cost *CostVar) *Work {
	return &Work{name: name, cost: cost}
}

// Name returns the operator name.
func (w *Work) Name() string { return w.name }

// Cost returns the operator's cost variable.
func (w *Work) Cost() *CostVar { return w.cost }

// Process burns the configured number of FLOPs and forwards the tuple on
// port 0.
func (w *Work) Process(_ int, t *Tuple, out Emitter) {
	w.sink.Store(math.Float64bits(SpinFLOPs(w.cost.FLOPs(), t.Num1)))
	out.Emit(0, t)
}

// SpinFLOPs performs approximately flops floating-point operations seeded
// with x and returns an accumulated value so the compiler cannot eliminate
// the loop.
func SpinFLOPs(flops, x float64) float64 {
	acc := x + 1.0001
	// Each iteration is two FLOPs (one multiply, one add).
	n := int(flops / 2)
	for i := 0; i < n; i++ {
		acc = acc*1.0000001 + 0.3
	}
	return acc
}

// Map applies a user function to each tuple and forwards the result on
// port 0. A nil result drops the tuple.
type Map struct {
	name string
	fn   func(*Tuple) *Tuple
}

var _ Operator = (*Map)(nil)

// NewMap returns a mapping operator.
func NewMap(name string, fn func(*Tuple) *Tuple) *Map {
	return &Map{name: name, fn: fn}
}

// Name returns the operator name.
func (m *Map) Name() string { return m.name }

// Process applies the map function.
func (m *Map) Process(_ int, t *Tuple, out Emitter) {
	if r := m.fn(t); r != nil {
		out.Emit(0, r)
	}
}

// Filter forwards tuples for which the predicate returns true.
type Filter struct {
	name string
	pred func(*Tuple) bool
}

var _ Operator = (*Filter)(nil)

// NewFilter returns a filtering operator.
func NewFilter(name string, pred func(*Tuple) bool) *Filter {
	return &Filter{name: name, pred: pred}
}

// Name returns the operator name.
func (f *Filter) Name() string { return f.name }

// Process forwards t when the predicate accepts it.
func (f *Filter) Process(_ int, t *Tuple, out Emitter) {
	if f.pred(t) {
		out.Emit(0, t)
	}
}

// Tokenize splits the Text attribute on spaces and emits one tuple per
// token, mirroring the word-count example in the paper's Fig. 2.
type Tokenize struct {
	name string
}

var _ Operator = (*Tokenize)(nil)

// NewTokenize returns a tokenizing operator.
func NewTokenize(name string) *Tokenize { return &Tokenize{name: name} }

// Name returns the operator name.
func (tk *Tokenize) Name() string { return tk.name }

// Process emits one tuple per whitespace-separated token of t.Text.
func (tk *Tokenize) Process(_ int, t *Tuple, out Emitter) {
	for _, w := range strings.Fields(t.Text) {
		tok := AcquireTuple()
		tok.Seq, tok.Time, tok.Text, tok.Key = t.Seq, t.Time, w, hashString(w)
		out.Emit(0, tok)
	}
}

func hashString(s string) uint64 {
	// FNV-1a, inlined to avoid per-tuple hasher allocations.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Expand emits Factor tuples per input tuple, each carrying the input's
// attributes with a fan-out index in Num2. It models burst-amplifying
// operators (tokenizers, joins, window flushes) and is the load generator
// for the work-stealing scheduler tests and benchmarks: one dequeued tuple
// turns into a burst the executing worker either keeps on its own deque or
// has stolen from it.
type Expand struct {
	name   string
	factor int
}

var (
	_ Operator   = (*Expand)(nil)
	_ Recyclable = (*Expand)(nil)
)

// NewExpand returns an operator that emits factor output tuples per input.
func NewExpand(name string, factor int) *Expand {
	return &Expand{name: name, factor: factor}
}

// Name returns the operator name.
func (x *Expand) Name() string { return x.name }

// RecyclesTuples marks Expand for input recycling: the burst tuples it emits
// are freshly acquired copies of the input's attributes, so the input — and
// its pooled payload buffer — is dead the moment Process returns. Without
// this the runtime had no release point for it and every expanded tuple's
// input leaked to the garbage collector (the ~90 allocs/op BENCH_4 observed
// in the contended fan-in steady state).
func (x *Expand) RecyclesTuples() {}

// Process emits factor copies of t on port 0.
func (x *Expand) Process(_ int, t *Tuple, out Emitter) {
	for i := 0; i < x.factor; i++ {
		c := AcquireTuple()
		c.Seq, c.Time, c.Key, c.Num1 = t.Seq, t.Time, t.Key, t.Num1
		c.Num2 = float64(i)
		out.Emit(0, c)
	}
}

// RoundRobinSplit distributes input tuples across its output ports in
// round-robin order, implementing the data-parallel split of the paper's
// benchmark graphs (Fig. 8b).
type RoundRobinSplit struct {
	name  string
	width int
	next  int
	mu    sync.Mutex
}

var (
	_ Operator = (*RoundRobinSplit)(nil)
	_ Stateful = (*RoundRobinSplit)(nil)
)

// NewRoundRobinSplit returns a splitter across width output ports.
func NewRoundRobinSplit(name string, width int) *RoundRobinSplit {
	return &RoundRobinSplit{name: name, width: width}
}

// Name returns the operator name.
func (s *RoundRobinSplit) Name() string { return s.name }

// Stateful marks the splitter as serialized: the round-robin cursor is
// shared state.
func (s *RoundRobinSplit) Stateful() {}

// Process forwards t on the next output port in round-robin order.
func (s *RoundRobinSplit) Process(_ int, t *Tuple, out Emitter) {
	s.mu.Lock()
	p := s.next
	s.next = (s.next + 1) % s.width
	s.mu.Unlock()
	out.Emit(p, t)
}

// KeyedCounter maintains per-key counts over a sliding count-based window
// and periodically emits (key, count) tuples. It stands in for the paper's
// windowed Aggregate operator.
//
// The per-key counts live in a state.Map and the window ring in a
// state.Cell, so the operator is checkpointable: incremental snapshots
// carry only keys whose count changed plus the (bounded) ring cursor.
type KeyedCounter struct {
	name      string
	window    int
	emitEvery int

	mu     sync.Mutex
	counts *state.Map[int64]
	cursor *state.Cell[counterCursor]
}

type counterCursor struct {
	ring   []uint64
	pos    int
	filled bool
	seen   int
}

var (
	_ Operator          = (*KeyedCounter)(nil)
	_ Stateful          = (*KeyedCounter)(nil)
	_ Resettable        = (*KeyedCounter)(nil)
	_ state.Snapshotter = (*KeyedCounter)(nil)
)

func encCounterCursor(e *state.Encoder, c counterCursor) {
	e.Uvarint(uint64(len(c.ring)))
	for _, k := range c.ring {
		e.Uvarint(k)
	}
	e.Varint(int64(c.pos))
	e.Bool(c.filled)
	e.Varint(int64(c.seen))
}

func decCounterCursor(d *state.Decoder) counterCursor {
	n := d.Uvarint()
	if n > uint64(d.Remaining()) {
		d.Fail()
		return counterCursor{}
	}
	ring := make([]uint64, n)
	for i := range ring {
		ring[i] = d.Uvarint()
	}
	return counterCursor{ring: ring, pos: int(d.Varint()), filled: d.Bool(), seen: int(d.Varint())}
}

// NewKeyedCounter returns a sliding-window counter over the last window
// tuples that emits current counts every emitEvery tuples.
func NewKeyedCounter(name string, window, emitEvery int) *KeyedCounter {
	return &KeyedCounter{
		name:      name,
		window:    window,
		emitEvery: emitEvery,
		counts:    state.NewMap(0, state.EncInt64, state.DecInt64),
		cursor:    state.NewCell(counterCursor{ring: make([]uint64, window)}, encCounterCursor, decCounterCursor),
	}
}

// Name returns the operator name.
func (k *KeyedCounter) Name() string { return k.name }

// RecyclesTuples marks the counter as safe for tuple recycling: Process
// copies the key into the window ring and never retains or forwards its
// input; emitted aggregates are fresh acquires.
func (k *KeyedCounter) RecyclesTuples() {}

// Stateful marks the counter as serialized.
func (k *KeyedCounter) Stateful() {}

// Reset clears all window state.
func (k *KeyedCounter) Reset() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.counts.Clear()
	k.cursor.Set(counterCursor{ring: make([]uint64, k.window)})
}

// Process slides the window by t and emits the key's current count every
// emitEvery tuples. The evicted key's count drops through one Ref (the key
// is deleted when it reaches 0) and the arriving key's rises through
// another; when the two keys are the same, no count changes and neither
// is touched.
func (k *KeyedCounter) Process(_ int, t *Tuple, out Emitter) {
	k.mu.Lock()
	cur := k.cursor.Ref()
	old, evict := cur.ring[cur.pos], cur.filled
	cur.ring[cur.pos] = t.Key
	cur.pos++
	if cur.pos == k.window {
		cur.pos, cur.filled = 0, true
	}
	cur.seen++
	emit := k.emitEvery > 0 && cur.seen%k.emitEvery == 0
	var count int64
	if evict && old == t.Key {
		if emit {
			count, _ = k.counts.Get(t.Key)
		}
	} else {
		if evict {
			if c := k.counts.Ref(old); *c > 1 {
				*c--
			} else {
				k.counts.Delete(old)
			}
		}
		c := k.counts.Ref(t.Key)
		*c++
		count = *c
	}
	k.mu.Unlock()
	if emit {
		agg := AcquireTuple()
		agg.Seq, agg.Time, agg.Key, agg.Text, agg.Num1 = t.Seq, t.Time, t.Key, t.Text, float64(count)
		out.Emit(0, agg)
	}
}

// Count returns the current window count for key.
func (k *KeyedCounter) Count(key uint64) int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	c, _ := k.counts.Get(key)
	return c
}

// StateTrack enables dirty-key tracking for incremental checkpoints.
func (k *KeyedCounter) StateTrack(on bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.counts.Track(on)
	k.cursor.Track(on)
}

// StateSnapshot encodes the counts and the window ring cursor.
func (k *KeyedCounter) StateSnapshot(enc *state.Encoder, full bool) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := k.counts.Snapshot(enc, full)
	n += k.cursor.Snapshot(enc, full)
	return n
}

// StateRestore applies a snapshot produced by StateSnapshot.
func (k *KeyedCounter) StateRestore(dec *state.Decoder, full bool) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if err := k.counts.Restore(dec, full); err != nil {
		return err
	}
	if err := k.cursor.Restore(dec, full); err != nil {
		return err
	}
	// A snapshot from a differently-sized instance must not leave the
	// ring shorter than the window; pad defensively (corrupt-input
	// hardening, not an expected path).
	cur := k.cursor.Get()
	if len(cur.ring) != k.window {
		ring := make([]uint64, k.window)
		copy(ring, cur.ring)
		cur.ring = ring
		if cur.pos >= k.window {
			cur.pos = 0
		}
		k.cursor.Set(cur)
	}
	return nil
}

// sinkShards stripes CountingSink across independent cache-line-padded
// counters (a power of two). Like obs.Histogram, the shard is picked from the
// tuple's sequence number — no per-goroutine state needed — so concurrent
// workers funneling into one sink spread their increments across lines
// instead of serializing on a single mutex.
const sinkShards = 8

// sinkShard is one padded counter stripe.
type sinkShard struct {
	n atomic.Uint64
	_ [56]byte
}

// CountingSink counts received tuples on sharded, cache-line-padded atomic
// stripes merged lazily by Count. This is the post-Fig.-10 design: the
// paper's data-parallel benchmark observes that a sink tracking throughput
// with a lock-protected local variable becomes a contention point as the
// thread count grows, so the shared lock is gone from the hot path.
type CountingSink struct {
	name   string
	shards [sinkShards]sinkShard
}

var (
	_ Operator   = (*CountingSink)(nil)
	_ Resettable = (*CountingSink)(nil)
	_ Recyclable = (*CountingSink)(nil)
)

// NewCountingSink returns a terminal counting operator.
func NewCountingSink(name string) *CountingSink {
	return &CountingSink{name: name}
}

// Name returns the operator name.
func (c *CountingSink) Name() string { return c.name }

// RecyclesTuples marks the sink as safe for tuple recycling: Process never
// retains the tuple or its payload.
func (c *CountingSink) RecyclesTuples() {}

// Process counts the tuple and emits nothing. The stripe comes from the
// tuple's sequence bits (xor-folded so striding producers still spread), one
// padded atomic add, no shared lock.
func (c *CountingSink) Process(_ int, t *Tuple, _ Emitter) {
	var v uint64
	if t != nil {
		v = t.Seq ^ t.Key
	}
	c.shards[(v^v>>3)&(sinkShards-1)].n.Add(1)
}

// Count returns the number of tuples received so far, merging the stripes.
// Concurrent Process calls may land between stripe reads; the skew is at
// most a few in-flight tuples, fine for throughput accounting.
func (c *CountingSink) Count() uint64 {
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].n.Load()
	}
	return sum
}

// Reset zeroes the sink's counter. Unlike the meter, sinks are reset only
// while the engine is quiesced (between benchmark phases), so storing zero
// per stripe is safe.
func (c *CountingSink) Reset() {
	for i := range c.shards {
		c.shards[i].n.Store(0)
	}
}
