package state

import (
	"math/rand"
	"testing"
)

// seedMap fixes m's slot-hash seed so a failing run replays exactly. Only
// valid while m is empty.
func seedMap[V any](m *Map[V], seed uint64) {
	for i := range m.ranges {
		m.ranges[i].seed = seed
	}
}

// refMap is the reference model: a Go map plus a dirty-key set, the
// semantics Map had when it was built on both.
type refMap struct {
	data  map[uint64]float64
	dirty map[uint64]bool
	track bool
}

func (r *refMap) mark(k uint64) {
	if r.track {
		r.dirty[k] = true
	}
}

// wrapsOnRemove reports whether removing k from m would shift an entry
// across the end of its range's table back to index 0.
func wrapsOnRemove(m *Map[float64], k uint64) bool {
	if k == 0 {
		return false
	}
	r, h := m.locate(k)
	if r.slots == nil {
		return false
	}
	mask := uint64(len(r.slots) - 1)
	i := h & mask
	for r.slots[i].key != k {
		if r.slots[i].key == 0 {
			return false
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; r.slots[j].key != 0; j = (j + 1) & mask {
		if j == 0 {
			return true
		}
	}
	return false
}

func checkSame(t *testing.T, step int, what string, m *Map[float64], want map[uint64]float64) {
	t.Helper()
	if m.Len() != len(want) {
		t.Fatalf("step %d: %s Len = %d, want %d", step, what, m.Len(), len(want))
	}
	seen := 0
	m.Range(func(k uint64, v float64) bool {
		if w, ok := want[k]; !ok || w != v {
			t.Fatalf("step %d: %s has %d=%v, want %v (present %v)", step, what, k, v, w, ok)
		}
		seen++
		return true
	})
	if seen != len(want) {
		t.Fatalf("step %d: %s Range visited %d keys, want %d", step, what, seen, len(want))
	}
	for k, w := range want {
		if v, ok := m.Get(k); !ok || v != w {
			t.Fatalf("step %d: %s Get(%d) = %v, %v; want %v", step, what, k, v, ok, w)
		}
	}
}

// TestMapMatchesReference drives Map and the reference model with the same
// random Put, Ref, Delete, Get, Clear, Track and incremental Restore calls
// over ~300 keys (key 0 and never-present keys included), and at every cut
// restores the
// snapshot into a peer: the peer must equal the reference, and DirtyLen
// must equal the reference's dirty-set size. Two ranges of ~150 keys
// force several table doublings per seed, and backward shifts that wrap
// around a table's end.
func TestMapMatchesReference(t *testing.T) {
	var wraps int
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		m := NewMap(2, EncFloat64, DecFloat64)
		seedMap(m, uint64(seed)*0x9e3779b97f4a7c15)
		ref := &refMap{data: map[uint64]float64{}, dirty: map[uint64]bool{}}
		peer := NewMap(2, EncFloat64, DecFloat64)
		var enc Encoder
		var cuts, grows int
		key := func() uint64 {
			if rng.Intn(40) == 0 {
				return 1<<40 + uint64(rng.Intn(1000)) // never put
			}
			return uint64(rng.Intn(300))
		}
		fullCut := func(step int) {
			enc.Reset()
			if n := m.Snapshot(&enc, true); n != len(ref.data) {
				t.Fatalf("step %d: full snapshot wrote %d entries, want %d", step, n, len(ref.data))
			}
			clear(ref.dirty)
			if err := peer.Restore(NewDecoder(enc.Bytes()), true); err != nil {
				t.Fatal(err)
			}
			checkSame(t, step, "peer after full restore", peer, ref.data)
		}
		fullCut(0)
		for step := 1; step <= 100000; step++ {
			before := len(m.ranges[0].slots) + len(m.ranges[1].slots)
			switch op := rng.Intn(100); {
			case op < 30:
				k, v := key(), float64(rng.Intn(1000))
				m.Put(k, v)
				ref.data[k] = v
				ref.mark(k)
			case op < 50:
				k := key()
				*m.Ref(k)++
				ref.data[k]++
				ref.mark(k)
			case op < 75:
				k := key()
				if !ref.track && wrapsOnRemove(m, k) {
					wraps++
				}
				m.Delete(k)
				delete(ref.data, k)
				ref.mark(k)
			case op < 92:
				k := key()
				v, ok := m.Get(k)
				if w, wok := ref.data[k]; ok != wok || v != w {
					t.Fatalf("seed %d step %d: Get(%d) = %v, %v; want %v, %v", seed, step, k, v, ok, w, wok)
				}
			case op < 93:
				// Merge a frame into the live map and into the peer alike:
				// restored entries change values but not the dirty marks.
				var f Encoder
				n := 1 + rng.Intn(4)
				f.Uvarint(uint64(n))
				for j := 0; j < n; j++ {
					k := key()
					f.Uvarint(k)
					if rng.Intn(3) == 0 {
						f.Byte(0)
						delete(ref.data, k)
						continue
					}
					v := float64(rng.Intn(1000))
					f.Byte(1)
					f.Float64(v)
					ref.data[k] = v
				}
				for _, into := range []*Map[float64]{m, peer} {
					if err := into.Restore(NewDecoder(f.Bytes()), false); err != nil {
						t.Fatal(err)
					}
				}
			case op < 94:
				m.Clear()
				for k := range ref.data {
					ref.mark(k)
				}
				clear(ref.data)
			case op < 96:
				on := !ref.track
				m.Track(on)
				ref.track = on
				clear(ref.dirty)
				if on {
					// Untracked writes are not in the next incremental cut,
					// so a chain restarts from a full snapshot.
					fullCut(step)
				}
			default:
				if m.DirtyLen() != len(ref.dirty) {
					t.Fatalf("seed %d step %d: DirtyLen = %d, want %d", seed, step, m.DirtyLen(), len(ref.dirty))
				}
				if !ref.track || rng.Intn(8) == 0 {
					fullCut(step)
					break
				}
				enc.Reset()
				if n := m.Snapshot(&enc, false); n != len(ref.dirty) {
					t.Fatalf("step %d: incremental snapshot wrote %d entries, want %d", step, n, len(ref.dirty))
				}
				clear(ref.dirty)
				if m.DirtyLen() != 0 {
					t.Fatalf("step %d: DirtyLen = %d after a cut", step, m.DirtyLen())
				}
				if err := peer.Restore(NewDecoder(enc.Bytes()), false); err != nil {
					t.Fatal(err)
				}
				checkSame(t, step, "peer after incremental restore", peer, ref.data)
				cuts++
			}
			if len(m.ranges[0].slots)+len(m.ranges[1].slots) > before {
				grows++
			}
			if m.Len() != len(ref.data) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, m.Len(), len(ref.data))
			}
		}
		checkSame(t, -1, "map", m, ref.data)
		if grows < 8 || cuts == 0 {
			t.Fatalf("seed %d: weak run: %d grows, %d incremental cuts", seed, grows, cuts)
		}
	}
	if wraps == 0 {
		t.Fatal("no removal shifted an entry across the end of a table")
	}
}

// TestMapRemoveShiftsAcrossWrap pins backward-shift deletion across the end
// of the table: three keys homed on the last slot occupy it and slots 0
// and 1; removing the first must move the other two back, still findable.
func TestMapRemoveShiftsAcrossWrap(t *testing.T) {
	m := NewMap(1, EncFloat64, DecFloat64)
	seedMap(m, 12345)
	m.Put(1<<50, 0) // allocate the 8-slot table
	m.Delete(1 << 50)
	r := &m.ranges[0]
	var ks []uint64
	for k := uint64(1); len(ks) < 3; k++ {
		if mix(k^r.seed)&7 == 7 {
			ks = append(ks, k)
		}
	}
	for i, k := range ks {
		m.Put(k, float64(i))
	}
	if r.slots[7].key != ks[0] || r.slots[0].key != ks[1] || r.slots[1].key != ks[2] {
		t.Fatalf("unexpected layout %+v", r.slots)
	}
	m.Delete(ks[0])
	if r.slots[7].key != ks[1] || r.slots[0].key != ks[2] || r.slots[1].key != 0 {
		t.Fatalf("backward shift did not wrap: %+v", r.slots)
	}
	for i, k := range ks[1:] {
		if v, ok := m.Get(k); !ok || v != float64(i+1) {
			t.Fatalf("Get(%d) = %v, %v after the shift", k, v, ok)
		}
	}
}

// TestMapSteadyStateAllocs pins the hot paths at zero allocations once the
// table and the marked list have reached their working size, with
// tracking off and on (cuts included).
func TestMapSteadyStateAllocs(t *testing.T) {
	for _, track := range []bool{false, true} {
		m := NewMap(0, EncInt64, DecInt64)
		m.Track(track)
		var enc Encoder
		i := 0
		op := func() {
			k := uint64(i & 255)
			*m.Ref(k)++
			m.Put(k+256, 1)
			_, _ = m.Get(k)
			m.Delete(k + 256)
			if track && i&127 == 0 {
				enc.Reset()
				m.Snapshot(&enc, false)
			}
			i++
		}
		for i < 4096 {
			op()
		}
		if got := testing.AllocsPerRun(2000, op); got != 0 {
			t.Fatalf("track=%v: Get/Ref/Put/Delete allocate %.2f/op", track, got)
		}
	}
}

// BenchmarkMapRef is the keyed counter's update on a tracked map: one Ref
// per tuple over 2^16 Zipf 1.1 keys, with an incremental cut every 2^16
// updates.
func BenchmarkMapRef(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 1<<16-1)
	keys := make([]uint64, 1<<18)
	for i := range keys {
		keys[i] = zipf.Uint64()
	}
	m := NewMap(0, EncInt64, DecInt64)
	m.Track(true)
	var enc Encoder
	step := func(i int) {
		*m.Ref(keys[i&(len(keys)-1)])++
		if (i+1)&(1<<16-1) == 0 {
			enc.Reset()
			m.Snapshot(&enc, false)
		}
	}
	for i := 0; i < len(keys); i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
