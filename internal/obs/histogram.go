package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of logarithmic buckets: bucket i covers raw
// values in [2^i, 2^(i+1)), so 64 buckets span any int64 duration in
// nanoseconds.
const histBuckets = 64

// histShards spreads concurrent observers across independent cache-line
// groups (a power of two). The shard is picked from the observed value
// itself — no per-goroutine state, no unsafe — which is enough to break up
// write contention because neighboring latency samples differ in their low
// bits.
const histShards = 4

// histShard is one shard's buckets plus its count/sum, padded so two shards
// never share a cache line.
type histShard struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	_       [48]byte
}

// Histogram is a sharded, lock-free, log2-bucketed duration histogram.
// Observe is three atomic adds and allocates nothing, so it can sit on the
// engine's per-tuple path behind the sampling gate. Buckets are powers of
// two in nanoseconds; the exposition scales them to seconds.
type Histogram struct {
	shards [histShards]histShard
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	n := int64(d)
	if n < 0 {
		n = 0
	}
	v := uint64(n)
	idx := 0
	if v > 0 {
		idx = bits.Len64(v) - 1
	}
	s := &h.shards[(v^v>>7)&uint64(histShards-1)]
	s.buckets[idx].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
}

// Snapshot merges the shards into one point-in-time view. Concurrent
// observers may land between shard reads; the skew is at most a few
// in-flight samples, fine for monitoring.
func (h *Histogram) Snapshot() HistSnapshot {
	out := HistSnapshot{Buckets: make([]uint64, histBuckets), Scale: 1e-9}
	var rawSum uint64
	for i := range h.shards {
		s := &h.shards[i]
		for b := 0; b < histBuckets; b++ {
			out.Buckets[b] += s.buckets[b].Load()
		}
		out.Count += s.count.Load()
		rawSum += s.sum.Load()
	}
	out.Sum = float64(rawSum) * 1e-9
	return out
}

// HistSnapshot is a point-in-time view of any log2-bucketed histogram —
// the registry's own histograms and external ones bridged through
// SetHistogramFunc (the transport batch-size buckets).
type HistSnapshot struct {
	// Buckets[i] counts observations whose raw value fell in [2^i, 2^(i+1)).
	Buckets []uint64
	// Count is the total number of observations; Sum is their total in
	// exported units.
	Count uint64
	Sum   float64
	// Scale converts a raw bucket bound to the exported unit: 1e-9 for
	// nanosecond histograms exported in seconds, 1 (or 0, meaning 1) for
	// unit-less histograms like batch sizes.
	Scale float64
}

func (s HistSnapshot) scale() float64 {
	if s.Scale == 0 {
		return 1
	}
	return s.Scale
}

// UpperBound returns bucket i's exclusive upper bound in exported units.
func (s HistSnapshot) UpperBound(i int) float64 {
	return math.Ldexp(1, i+1) * s.scale()
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) in
// exported units: the top of the bucket containing it. With no
// observations it returns 0.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if cum >= target {
			return s.UpperBound(i)
		}
	}
	return s.UpperBound(len(s.Buckets) - 1)
}

// Mean returns the mean observation in exported units, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}
