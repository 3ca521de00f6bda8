package main

import (
	"fmt"
	"math/big"
	"sort"
	"sync"
	"sync/atomic"

	"streamelastic/internal/spl"
)

// How a workload's output is checked.
const (
	// checkOrdered: a chain delivers every sequence number once, in order,
	// carrying the ring's key and (sampled) payload.
	checkOrdered = iota
	// checkUnordered: dynamic scheduling may reorder, so the sink keeps a
	// count, a sum and a sum of squares of the sequence numbers instead.
	checkUnordered
	// checkKeyed: the sink receives the (key, count) stream of a
	// spl.KeyedCounter and compares every tuple with a sliding-window
	// reference it advances in lockstep from the input ring.
	checkKeyed
)

const (
	latEvery   = 16 // one tuple in 16 gets a latency sample and a payload check
	sinkShards = 8
	gapSeconds = 128
)

type sinkShard struct {
	n, sum, sq atomic.Uint64
	_          [40]byte
}

// sink is the benchmark's terminal operator: it checks what arrives,
// samples source-to-sink latency and tracks arrival gaps. Like the source it
// runs inside the system under test (spl.Recyclable and spl.BatchProcessor,
// so compiled regions keep their terminal batch step); the traced run
// reports its cost as sink.ns_per_tuple.
type sink struct {
	in      *inputs
	kind    int
	window  uint64
	payload bool // tuples arrive with their payload
	tr      *tracer
	idx     int

	// Ordered and keyed checks run on one thread at a time (the chain is a
	// single region), but that thread changes across reconfigurations and
	// migrations, so the cursor is atomic.
	delivered atomic.Uint64
	next      atomic.Uint64
	ref       []int32 // checkKeyed: reference count per key
	live      atomic.Int64

	shards [sinkShards]sinkShard

	missing, dups, mismatched atomic.Uint64
	badOnce                   sync.Once
	firstBad                  string

	lat    []int64
	latIdx atomic.Int64

	gapsOn  atomic.Bool
	gapBase atomic.Int64
	lastArr atomic.Int64
	gaps    [gapSeconds]atomic.Int64
}

func newSink(in *inputs, w *workload, latCap int, tr *tracer) *sink {
	s := &sink{in: in, kind: w.check, window: uint64(w.window), payload: w.sinkPayload, tr: tr, lat: make([]int64, latCap)}
	if s.kind == checkKeyed {
		s.ref = make([]int32, w.keys)
	}
	if tr != nil {
		s.idx = tr.addStage("sink", false)
	}
	return s
}

func (s *sink) Name() string    { return "bench-sink" }
func (s *sink) RecyclesTuples() {}

func (s *sink) Process(_ int, t *spl.Tuple, _ spl.Emitter) {
	one := [1]*spl.Tuple{t}
	s.consume(one[:])
}

func (s *sink) ProcessBatch(_ int, ts []*spl.Tuple, _ spl.Emitter) { s.consume(ts) }

func (s *sink) consume(ts []*spl.Tuple) {
	now := nowNS()
	if s.gapsOn.Load() {
		s.gap(now)
	}
	first, n := ts[0].Seq, len(ts)
	if s.kind == checkUnordered {
		var sum, sq uint64
		for _, t := range ts {
			sum += t.Seq
			sq += t.Seq * t.Seq
			s.record(t, now)
		}
		sh := &s.shards[(first^first>>3)&(sinkShards-1)]
		sh.sum.Add(sum)
		sh.sq.Add(sq)
		sh.n.Add(uint64(n))
	} else {
		exp := s.next.Load()
		for _, t := range ts {
			switch {
			case t.Seq == exp:
				exp++
			case t.Seq > exp:
				s.missing.Add(t.Seq - exp)
				s.bad("sequence gap: got seq %d, expected %d", t.Seq, exp)
				exp = t.Seq + 1
			default:
				s.dups.Add(1)
				s.bad("duplicate or reordered: got seq %d, expected %d", t.Seq, exp)
				continue
			}
			s.record(t, now)
		}
		s.next.Store(exp)
		s.delivered.Add(uint64(n))
	}
	if s.tr != nil {
		for _, t := range ts {
			s.tr.arrive(s.idx, now, t)
		}
		s.tr.done(s.idx, now, nowNS(), 0, first, n)
	}
}

// record checks one tuple against the input ring and samples its latency.
func (s *sink) record(t *spl.Tuple, now int64) {
	r := t.Seq & s.in.mask
	key := uint64(s.in.keys[r])
	sampled := t.Seq&(latEvery-1) == 0
	if s.kind == checkKeyed {
		if t.Seq >= s.window {
			old := s.in.keys[(t.Seq-s.window)&s.in.mask]
			if s.ref[old]--; s.ref[old] == 0 {
				s.live.Add(-1)
			}
		}
		if s.ref[key]++; s.ref[key] == 1 {
			s.live.Add(1)
		}
		if t.Key != key || int32(t.Num1) != s.ref[key] {
			s.mismatched.Add(1)
			s.bad("seq %d: got (key %d, count %v), reference says (key %d, count %d)", t.Seq, t.Key, t.Num1, key, s.ref[key])
		}
	} else if t.Key != key {
		s.mismatched.Add(1)
		s.bad("seq %d: key %d, input ring says %d", t.Seq, t.Key, key)
	}
	if sampled && s.payload && (len(t.Payload) != s.in.payload || crcOf(t.Payload) != s.in.sums[r]) {
		s.mismatched.Add(1)
		s.bad("seq %d: payload of %d bytes fails its checksum", t.Seq, len(t.Payload))
	}
	if sampled && t.Time != 0 {
		if i := s.latIdx.Add(1) - 1; int(i) < len(s.lat) {
			s.lat[i] = now - t.Time
		}
	}
}

func (s *sink) bad(format string, args ...any) {
	s.badOnce.Do(func() { s.firstBad = fmt.Sprintf(format, args...) })
}

func (s *sink) gap(now int64) {
	prev := s.lastArr.Swap(now)
	sec := (now - s.gapBase.Load()) / 1e9
	if prev == 0 || sec < 0 || sec >= gapSeconds {
		return
	}
	g := &s.gaps[sec]
	for d := now - prev; ; {
		cur := g.Load()
		if d <= cur || g.CompareAndSwap(cur, d) {
			return
		}
	}
}

// beginGaps starts (or restarts) per-second arrival-gap tracking.
func (s *sink) beginGaps() {
	now := nowNS()
	for i := range s.gaps {
		s.gaps[i].Store(0)
	}
	s.gapBase.Store(now)
	s.lastArr.Store(now)
	s.gapsOn.Store(true)
}

// medianGap stops tracking and returns the median, over the first seconds
// whole seconds, of the longest gap in each.
func (s *sink) medianGap(seconds int) float64 {
	s.gapsOn.Store(false)
	if seconds > gapSeconds {
		seconds = gapSeconds
	}
	v := make([]float64, 0, seconds)
	for i := 0; i < seconds; i++ {
		v = append(v, float64(s.gaps[i].Load()))
	}
	return median(v)
}

// count is the number of tuples delivered so far.
func (s *sink) count() uint64 {
	if s.kind != checkUnordered {
		return s.delivered.Load()
	}
	var n uint64
	for i := range s.shards {
		n += s.shards[i].n.Load()
	}
	return n
}

// latencies returns the sorted latency samples taken so far and resets the
// sample buffer.
func (s *sink) latencies() []int64 {
	n := int(s.latIdx.Swap(0))
	if n > len(s.lat) {
		n = len(s.lat)
	}
	out := append([]int64(nil), s.lat[:n]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// failures closes the exactly-once check after the job has drained: every
// one of the emitted sequence numbers must have arrived once. It returns the
// number of failed operations.
func (s *sink) failures(emitted uint64) uint64 {
	if s.kind == checkUnordered {
		var n, sum, sq uint64
		for i := range s.shards {
			n += s.shards[i].n.Load()
			sum += s.shards[i].sum.Load()
			sq += s.shards[i].sq.Load()
		}
		switch {
		case n < emitted:
			s.missing.Add(emitted - n)
			s.bad("%d of %d emitted tuples never reached the sink", emitted-n, emitted)
		case n > emitted:
			s.dups.Add(n - emitted)
			s.bad("sink saw %d tuples, source emitted %d", n, emitted)
		default:
			wantSum, wantSq := seqSums(emitted)
			if sum != wantSum || sq != wantSq {
				s.mismatched.Add(1)
				s.bad("sink saw %d tuples but not each sequence number once (sum %d want %d)", n, sum, wantSum)
			}
		}
	} else if next := s.next.Load(); next < emitted {
		s.missing.Add(emitted - next)
		s.bad("last %d of %d emitted tuples never reached the sink", emitted-next, emitted)
	}
	return s.missing.Load() + s.dups.Load() + s.mismatched.Load()
}

// seqSums returns the sum and the sum of squares of 0..n-1, modulo 2^64.
func seqSums(n uint64) (sum, sq uint64) {
	mod := new(big.Int).Lsh(big.NewInt(1), 64)
	b := new(big.Int).SetUint64(n)
	a := new(big.Int).Sub(b, big.NewInt(1))
	s := new(big.Int).Mul(a, b)
	s.Rsh(s, 1)
	c := new(big.Int).Lsh(b, 1)
	c.Sub(c, big.NewInt(1))
	q := new(big.Int).Mul(a, b)
	q.Mul(q, c)
	q.Div(q, big.NewInt(6))
	return s.Mod(s, mod).Uint64(), q.Mod(q, mod).Uint64()
}
