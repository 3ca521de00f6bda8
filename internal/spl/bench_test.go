package spl

import (
	"math/rand"
	"testing"
	"time"

	"streamelastic/internal/state"
)

func BenchmarkWorkOp100FLOPs(b *testing.B) {
	w := NewWork("w", NewCostVar(100))
	t := &Tuple{Num1: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Process(0, t, DiscardEmitter)
	}
}

func BenchmarkWorkOp10KFLOPs(b *testing.B) {
	w := NewWork("w", NewCostVar(10_000))
	t := &Tuple{Num1: 1}
	for i := 0; i < b.N; i++ {
		w.Process(0, t, DiscardEmitter)
	}
}

// BenchmarkTupleAcquireRelease measures acquiring and then releasing a
// batch of 64 tuples (one op), the way an engine thread builds and retires
// a batch; parallel runs one batch loop per P.
func BenchmarkTupleAcquireRelease(b *testing.B) {
	const batch = 64
	cycle := func(ts *[batch]*Tuple) {
		for i := range ts {
			ts[i] = AcquireTuple()
		}
		for _, tp := range ts {
			tp.Release()
		}
	}
	b.Run("serial", func(b *testing.B) {
		var ts [batch]*Tuple
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cycle(&ts)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			var ts [batch]*Tuple
			for pb.Next() {
				cycle(&ts)
			}
		})
	})
}

func BenchmarkTupleClone1KB(b *testing.B) {
	t := &Tuple{Seq: 1, Payload: make([]byte, 1024)}
	b.ReportAllocs()
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		_ = t.Clone()
	}
}

func BenchmarkTupleClone16KB(b *testing.B) {
	t := &Tuple{Seq: 1, Payload: make([]byte, 16384)}
	b.SetBytes(16384)
	for i := 0; i < b.N; i++ {
		_ = t.Clone()
	}
}

func BenchmarkTokenize(b *testing.B) {
	tk := NewTokenize("tok")
	t := &Tuple{Text: "the quick brown fox jumps over the lazy dog"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tk.Process(0, t, DiscardEmitter)
	}
}

// BenchmarkKeyedCounter runs the counter in the shapes of the end-to-end
// workloads that use it: keyed_ckpt (2^16 Zipf 1.1 keys, window 2^16,
// tracking on, an incremental cut every 2^16 tuples) and resize_bulk (64
// uniform keys, window 64, untracked). Both emit on every tuple, reuse one
// input tuple and release what they emit, and start with a full window.
func BenchmarkKeyedCounter(b *testing.B) {
	for _, c := range []struct {
		name         string
		keys, window int
		zipf         float64
		cutEvery     int
	}{
		{"keyed_ckpt", 1 << 16, 1 << 16, 1.1, 1 << 16},
		{"resize_bulk", 64, 64, 0, 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			zipf := rand.NewZipf(rng, max(c.zipf, 1.01), 1, uint64(c.keys-1))
			stream := make([]uint64, 1<<18)
			for i := range stream {
				if c.zipf > 0 {
					stream[i] = zipf.Uint64()
				} else {
					stream[i] = uint64(rng.Intn(c.keys))
				}
			}
			k := NewKeyedCounter("agg", c.window, 1)
			k.StateTrack(c.cutEvery > 0)
			release := EmitterFunc(func(_ int, t *Tuple) { t.Release() })
			var enc state.Encoder
			tup := &Tuple{}
			step := func(i int) {
				tup.Key = stream[i&(len(stream)-1)]
				k.Process(0, tup, release)
				if c.cutEvery > 0 && (i+1)%c.cutEvery == 0 {
					enc.Reset()
					k.StateSnapshot(&enc, false)
				}
			}
			for i := 0; i < 2*c.window; i++ {
				step(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
		})
	}
}

func BenchmarkTimeWindowSliding(b *testing.B) {
	w := NewTimeWindow("w", 60*time.Second, time.Second, AggCount)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Process(0, &Tuple{
			Time: int64(i) * int64(10*time.Millisecond),
			Key:  uint64(i % 16),
			Num1: 1,
		}, DiscardEmitter)
	}
}

func BenchmarkReorderInOrder(b *testing.B) {
	r := NewReorder("r", 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Process(0, &Tuple{Seq: uint64(i)}, DiscardEmitter)
	}
}

func BenchmarkKeyedJoinProbe(b *testing.B) {
	j := NewKeyedJoin("join")
	for k := uint64(0); k < 64; k++ {
		j.Process(1, &Tuple{Key: k, Num1: float64(k)}, DiscardEmitter)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Process(0, &Tuple{Key: uint64(i % 64), Num1: 1}, DiscardEmitter)
	}
}

func BenchmarkSpinFLOPsCalibration(b *testing.B) {
	// Measures how close SpinFLOPs(N) is to N actual FLOPs of work; the
	// ns/op divided by N gives seconds-per-FLOP on this host.
	for i := 0; i < b.N; i++ {
		SpinFLOPs(1000, 1)
	}
}
