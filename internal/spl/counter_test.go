package spl

import (
	"math/rand"
	"testing"

	"streamelastic/internal/state"
)

// countRef is the naive sliding-window counter KeyedCounter must match.
type countRef struct {
	ring   []uint64
	pos    int
	filled bool
	counts map[uint64]int64
}

// add slides the window by key and returns the key's new count, and
// whether the key leaving the window was the arriving one.
func (r *countRef) add(key uint64) (int64, bool) {
	same := false
	if r.filled {
		old := r.ring[r.pos]
		same = old == key
		if r.counts[old]--; r.counts[old] == 0 {
			delete(r.counts, old)
		}
	}
	r.ring[r.pos] = key
	if r.pos++; r.pos == len(r.ring) {
		r.pos, r.filled = 0, true
	}
	r.counts[key]++
	return r.counts[key], same
}

// TestKeyedCounterMatchesReference streams Zipf keys (so the evicted key
// is often the arriving one) through a tracked KeyedCounter and checks
// every emitted count against a naive counter. Midway, a full cut plus the
// incremental cuts after it are restored into a fresh counter, which must
// agree on every key's count and then emit the same counts as the
// original on the rest of the stream.
func TestKeyedCounterMatchesReference(t *testing.T) {
	const keys, window, n = 512, 128, 20000
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.1, 1, keys-1)
	stream := make([]uint64, n)
	for i := range stream {
		stream[i] = zipf.Uint64()
	}

	src := NewKeyedCounter("src", window, 1)
	src.StateTrack(true)
	ref := &countRef{ring: make([]uint64, window), counts: map[uint64]int64{}}
	var emitted float64
	out := EmitterFunc(func(_ int, agg *Tuple) {
		emitted = agg.Num1
		agg.Release()
	})
	var cuts [][]byte
	cut := func(full bool) {
		var enc state.Encoder
		src.StateSnapshot(&enc, full)
		cuts = append(cuts, enc.Bytes())
	}
	var dst *KeyedCounter
	var dstEmitted float64
	dstOut := EmitterFunc(func(_ int, agg *Tuple) {
		dstEmitted = agg.Num1
		agg.Release()
	})
	same := 0
	tup := &Tuple{}
	for i, k := range stream {
		switch {
		case i == n/4:
			cuts = cuts[:0]
			cut(true)
		case i > n/4 && i < n/2 && i%97 == 0:
			cut(false)
		case i == n/2:
			cut(false)
			dst = NewKeyedCounter("dst", window, 1)
			for j, c := range cuts {
				if err := dst.StateRestore(state.NewDecoder(c), j == 0); err != nil {
					t.Fatalf("restoring cut %d: %v", j, err)
				}
			}
			for key := uint64(0); key < keys; key++ {
				if got, want := dst.Count(key), ref.counts[key]; got != want || src.Count(key) != want {
					t.Fatalf("after restore, key %d: dst %d, src %d, want %d", key, got, src.Count(key), want)
				}
			}
		}
		tup.Key = k
		src.Process(0, tup, out)
		want, s := ref.add(k)
		if s {
			same++
		}
		if emitted != float64(want) {
			t.Fatalf("tuple %d (key %d): emitted count %v, want %d", i, k, emitted, want)
		}
		if dst != nil {
			dst.Process(0, tup, dstOut)
			if dstEmitted != float64(want) {
				t.Fatalf("tuple %d (key %d): restored counter emitted %v, want %d", i, k, dstEmitted, want)
			}
		}
	}
	if same < 100 {
		t.Fatalf("only %d tuples evicted their own key; the stream does not test that case", same)
	}
	if len(cuts) < 10 {
		t.Fatalf("only %d cuts restored", len(cuts))
	}
	for key := uint64(0); key < keys; key++ {
		if got, want := src.Count(key), ref.counts[key]; got != want || dst.Count(key) != want {
			t.Fatalf("key %d: src %d, dst %d, want %d", key, got, dst.Count(key), want)
		}
	}
}

// TestKeyedCounterIsNotBatchProcessor pins the counter to per-tuple
// Process. Wrappers embed *KeyedCounter and override only Process (the
// end-to-end benchmark's bulkCounter copies each input's payload onto the
// count it emits); a ProcessBatch here would be promoted through the
// embedding, and the engine would call it and skip the override.
func TestKeyedCounterIsNotBatchProcessor(t *testing.T) {
	var op Operator = NewKeyedCounter("c", 8, 1)
	if _, ok := op.(BatchProcessor); ok {
		t.Fatal("*KeyedCounter implements BatchProcessor")
	}
}
