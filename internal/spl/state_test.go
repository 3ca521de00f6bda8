package spl

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"streamelastic/internal/state"
)

// mirror drives src through `rounds` batches, mirroring its state into dst
// via one full snapshot followed by an incremental snapshot per batch —
// the exact sequence the checkpoint coordinator produces. After mirror
// returns, dst must be behaviorally identical to src.
func mirror(t *testing.T, src, dst state.Snapshotter, rounds int, feed func(round int)) {
	t.Helper()
	src.StateTrack(true)
	var enc state.Encoder
	src.StateSnapshot(&enc, true)
	if err := dst.StateRestore(state.NewDecoder(enc.Bytes()), true); err != nil {
		t.Fatalf("full restore: %v", err)
	}
	for r := 0; r < rounds; r++ {
		feed(r)
		enc.Reset()
		src.StateSnapshot(&enc, false)
		if err := dst.StateRestore(state.NewDecoder(enc.Bytes()), false); err != nil {
			t.Fatalf("incremental restore round %d: %v", r, err)
		}
	}
}

// gather returns an emitter appending into out.
func gather(out *[]*Tuple) Emitter {
	return EmitterFunc(func(_ int, t *Tuple) { *out = append(*out, t) })
}

func TestKeyedJoinSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := NewKeyedJoin("src")
	dst := NewKeyedJoin("dst")
	mirror(t, src, dst, 8, func(round int) {
		for i := 0; i < 50; i++ {
			k := uint64(rng.Intn(64))
			if rng.Intn(5) == 0 {
				// Overwrites and fresh keys both land in the dirty set.
				src.Process(1, &Tuple{Key: k, Num1: -1}, DiscardEmitter)
			} else {
				src.Process(1, &Tuple{Key: k, Num1: float64(round*100 + i)}, DiscardEmitter)
			}
		}
	})
	if src.Size() != dst.Size() {
		t.Fatalf("table size src=%d dst=%d", src.Size(), dst.Size())
	}
	// Identical probes must enrich identically.
	for k := uint64(0); k < 80; k++ {
		var a, b []*Tuple
		src.Process(0, &Tuple{Key: k, Num1: 1}, gather(&a))
		dst.Process(0, &Tuple{Key: k, Num1: 1}, gather(&b))
		if len(a) != len(b) {
			t.Fatalf("key %d: src emitted %d, dst %d", k, len(a), len(b))
		}
		if len(a) == 1 && (a[0].Num2 != b[0].Num2 || a[0].Key != b[0].Key) {
			t.Fatalf("key %d: src=%+v dst=%+v", k, a[0], b[0])
		}
	}
}

func TestTimeWindowSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mk := func(name string) *TimeWindow {
		return NewTimeWindow(name, 8*time.Second, 2*time.Second, AggSum)
	}
	src, dst := mk("src"), mk("dst")
	tm := int64(0)
	mirror(t, src, dst, 6, func(round int) {
		for i := 0; i < 40; i++ {
			tm += int64(rng.Intn(2)) * int64(time.Second)
			src.Process(0, &Tuple{Time: tm, Key: uint64(rng.Intn(4)), Num1: float64(rng.Intn(10))}, DiscardEmitter)
		}
	})
	// The same suffix stream must close the same windows with the same
	// aggregates. Pane-close emission order is map-random: sort.
	var a, b []*Tuple
	ea, eb := gather(&a), gather(&b)
	for i := 0; i < 60; i++ {
		tm += int64(rng.Intn(3)) * int64(time.Second)
		tup := Tuple{Time: tm, Key: uint64(rng.Intn(4)), Num1: float64(rng.Intn(10))}
		ta, tb := tup, tup
		src.Process(0, &ta, ea)
		dst.Process(0, &tb, eb)
	}
	key := func(x *Tuple) [2]int64 { return [2]int64{x.Time, int64(x.Key)} }
	sort.Slice(a, func(i, j int) bool {
		return key(a[i]) != key(a[j]) && (a[i].Time < a[j].Time || (a[i].Time == a[j].Time && a[i].Key < a[j].Key))
	})
	sort.Slice(b, func(i, j int) bool {
		return key(b[i]) != key(b[j]) && (b[i].Time < b[j].Time || (b[i].Time == b[j].Time && b[i].Key < b[j].Key))
	})
	if len(a) != len(b) {
		t.Fatalf("src closed %d windows, dst %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Time != b[i].Time || a[i].Key != b[i].Key || a[i].Num1 != b[i].Num1 || a[i].Num2 != b[i].Num2 {
			t.Fatalf("window %d: src=%+v dst=%+v", i, a[i], b[i])
		}
	}
}

func TestKeyedCounterSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := NewKeyedCounter("src", 32, 7)
	dst := NewKeyedCounter("dst", 32, 7)
	mirror(t, src, dst, 8, func(round int) {
		for i := 0; i < 45; i++ {
			src.Process(0, &Tuple{Key: uint64(rng.Intn(10)), Seq: uint64(i)}, DiscardEmitter)
		}
	})
	for k := uint64(0); k < 12; k++ {
		if src.Count(k) != dst.Count(k) {
			t.Fatalf("key %d: src count %d, dst %d", k, src.Count(k), dst.Count(k))
		}
	}
	// The suffix stream exercises the restored ring cursor: the same old
	// keys must slide out of both windows in lockstep.
	var a, b []*Tuple
	ea, eb := gather(&a), gather(&b)
	for i := 0; i < 100; i++ {
		k := uint64(rng.Intn(10))
		src.Process(0, &Tuple{Key: k}, ea)
		dst.Process(0, &Tuple{Key: k}, eb)
	}
	if len(a) != len(b) {
		t.Fatalf("emitted %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Num1 != b[i].Num1 {
			t.Fatalf("emit %d: src=(%d,%v) dst=(%d,%v)", i, a[i].Key, a[i].Num1, b[i].Key, b[i].Num1)
		}
	}
}

func TestReorderSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := NewReorder("src", 1, 64)
	dst := NewReorder("dst", 1, 64)
	// Feed a shuffled prefix with holes so the buffer and cursor both
	// carry state at snapshot time.
	seqs := rng.Perm(40)
	var srcOut []*Tuple
	mirror(t, src, dst, 4, func(round int) {
		for i := round * 10; i < (round+1)*10; i++ {
			src.Process(0, &Tuple{Seq: uint64(seqs[i] + 1)}, gather(&srcOut))
		}
	})
	// Both must now release the identical remaining stream.
	rest := rng.Perm(40)
	var a, b []*Tuple
	ea, eb := gather(&a), gather(&b)
	for _, s := range rest {
		src.Process(0, &Tuple{Seq: uint64(s + 41)}, ea)
		dst.Process(0, &Tuple{Seq: uint64(s + 41)}, eb)
	}
	if len(a) != len(b) {
		t.Fatalf("released %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq {
			t.Fatalf("release %d: src seq %d, dst seq %d", i, a[i].Seq, b[i].Seq)
		}
	}
	// Replayed (already released) sequences are dropped by the restored
	// cursor exactly as by the live one.
	var ra, rb []*Tuple
	src.Process(0, &Tuple{Seq: 1}, gather(&ra))
	dst.Process(0, &Tuple{Seq: 1}, gather(&rb))
	if len(ra) != 0 || len(rb) != 0 {
		t.Fatalf("replayed seq released: src=%d dst=%d", len(ra), len(rb))
	}
}

// TestSnapshotRestoreCorruptInputs pins the no-panic contract for all four
// stateful operators against truncated snapshots.
func TestSnapshotRestoreCorruptInputs(t *testing.T) {
	ops := func() []state.Snapshotter {
		return []state.Snapshotter{
			NewKeyedJoin("j"),
			NewTimeWindow("w", time.Second, 0, AggCount),
			NewKeyedCounter("c", 8, 0),
			NewReorder("r", 0, 8),
		}
	}
	srcs := ops()
	for i, src := range srcs {
		src.StateTrack(true)
		switch o := src.(type) {
		case *KeyedJoin:
			for k := uint64(0); k < 20; k++ {
				o.Process(1, &Tuple{Key: k, Num1: 1}, DiscardEmitter)
			}
		case *TimeWindow:
			for s := int64(0); s < 20; s++ {
				o.Process(0, &Tuple{Time: s * int64(time.Second), Key: uint64(s % 3), Num1: 1}, DiscardEmitter)
			}
		case *KeyedCounter:
			for k := uint64(0); k < 20; k++ {
				o.Process(0, &Tuple{Key: k}, DiscardEmitter)
			}
		case *Reorder:
			o.Process(0, &Tuple{Seq: 5}, DiscardEmitter)
			o.Process(0, &Tuple{Seq: 7}, DiscardEmitter)
		}
		var enc state.Encoder
		src.StateSnapshot(&enc, true)
		full := append([]byte(nil), enc.Bytes()...)
		for cut := 0; cut < len(full); cut++ {
			fresh := ops()[i]
			if err := fresh.StateRestore(state.NewDecoder(full[:cut]), true); err == nil && cut < len(full)-1 {
				// Some prefixes decode cleanly (e.g. an empty-map header);
				// only panics are failures here, errors are the contract.
				_ = err
			}
		}
	}
}
