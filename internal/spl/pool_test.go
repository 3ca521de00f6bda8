package spl

import (
	"runtime"
	"sync"
	"testing"

	"streamelastic/internal/racebuild"
)

func TestPayloadClassBoundaries(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{1, 0}, {63, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << maxPayloadClassBits, numPayloadClasses - 1},
		{1<<maxPayloadClassBits + 1, -1},
	}
	for _, c := range cases {
		if got := payloadClass(c.n); got != c.class {
			t.Errorf("payloadClass(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestAcquirePayloadSizes(t *testing.T) {
	for _, n := range []int{1, 64, 65, 1000, 4096, 1 << 20} {
		tp := AcquireTuple()
		tp.AcquirePayload(n)
		if len(tp.Payload) != n {
			t.Fatalf("AcquirePayload(%d): len = %d", n, len(tp.Payload))
		}
		if !tp.PayloadPooled() {
			t.Fatalf("AcquirePayload(%d): buffer not pooled", n)
		}
		tp.Release()
	}

	// Oversized payloads fall back to plain allocation.
	tp := AcquireTuple()
	tp.AcquirePayload(1<<maxPayloadClassBits + 1)
	if tp.PayloadPooled() {
		t.Fatal("oversized payload claimed to be pooled")
	}
	if len(tp.Payload) != 1<<maxPayloadClassBits+1 {
		t.Fatalf("oversized payload len = %d", len(tp.Payload))
	}
	tp.Release()
}

func TestReleaseZeroesTuple(t *testing.T) {
	tp := AcquireTuple()
	tp.Seq, tp.Key, tp.Text, tp.Num1 = 7, 9, "x", 3.5
	tp.AcquirePayload(100)
	tp.Release()
	// The next acquire (possibly the same struct) must always be zeroed.
	got := AcquireTuple()
	if got.Seq != 0 || got.Key != 0 || got.Text != "" || got.Num1 != 0 || got.Payload != nil || got.payloadBox != nil {
		t.Fatalf("acquired tuple not zeroed: %+v", got)
	}
	got.Release()
}

func TestReleaseForeignTupleSafe(t *testing.T) {
	// Tuples built with a literal (and payloads owned elsewhere) may be
	// released: the struct is recycled, the payload is left to the GC.
	shared := make([]byte, 32)
	tp := &Tuple{Seq: 1, Payload: shared}
	if tp.PayloadPooled() {
		t.Fatal("literal tuple claims pooled payload")
	}
	tp.Release()
	if shared[0] != 0 { // buffer untouched, still owned by the caller
		t.Fatal("release scribbled on a foreign payload buffer")
	}
}

func TestClonePooledIndependence(t *testing.T) {
	orig := &Tuple{Seq: 3, Payload: []byte{1, 2, 3, 4}}
	c := orig.Clone()
	if !c.PayloadPooled() {
		t.Fatal("clone payload not drawn from the pool")
	}
	c.Payload[0] = 99
	if orig.Payload[0] != 1 {
		t.Fatal("clone aliases the original payload")
	}
	c.Release()
	if orig.Payload[0] != 1 || orig.Seq != 3 {
		t.Fatal("releasing the clone disturbed the original")
	}
}

// TestCloneReleaseSteadyStateAllocFree is the pool's core guarantee: a
// warmed clone/release cycle — the per-crossing work of the dynamic
// threading model — performs no allocations.
func TestCloneReleaseSteadyStateAllocFree(t *testing.T) {
	orig := &Tuple{Seq: 1, Payload: make([]byte, 1024)}
	// Warm the pools.
	for i := 0; i < 64; i++ {
		orig.Clone().Release()
	}
	avg := testing.AllocsPerRun(2000, func() {
		orig.Clone().Release()
	})
	if avg > 0.05 {
		t.Fatalf("clone/release cycle allocates %.3f allocs/op, want ~0", avg)
	}
}

// TestExpandCycleSteadyStateAllocFree pins the recyclable-operator fix for
// the fan-in leak (BENCH_4's ~90 allocs/op): Expand emits fresh tuples and
// the runtime releases its input afterwards, so one full input-clone ->
// expand -> release-everything cycle must draw entirely from the pools.
func TestExpandCycleSteadyStateAllocFree(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race-mode sync.Pool drops Puts; guard runs without -race")
	}
	x := NewExpand("x", 8)
	if _, ok := any(x).(Recyclable); !ok {
		t.Fatal("Expand must be Recyclable so the runtime can release its input")
	}
	src := &Tuple{Seq: 7, Payload: make([]byte, 64)}
	sink := EmitterFunc(func(_ int, t *Tuple) { t.Release() })
	cycle := func() {
		in := src.Clone() // the queue-crossing copy
		x.Process(0, in, sink)
		in.Release() // the runtime's recyclable-input release
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(2000, cycle); avg > 0.05 {
		t.Fatalf("expand cycle allocates %.3f allocs/op, want ~0", avg)
	}
}

// zeroed reports whether tp is the zero tuple AcquireTuple must hand out.
func zeroed(tp *Tuple) bool {
	return tp.Seq == 0 && tp.Key == 0 && tp.Time == 0 && tp.Text == "" && tp.Num1 == 0 &&
		tp.Num2 == 0 && tp.Payload == nil && tp.payloadBox == nil && tp.arena == nil
}

// TestTupleCacheReuseOnOneP pins the per-P cache's fast path: with one P,
// a released tuple is the next one acquired, zeroed.
func TestTupleCacheReuseOnOneP(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race builds compile the per-P tuple cache out")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tp := AcquireTuple()
	tp.Seq, tp.Text = 5, "x"
	tp.AcquirePayload(100)
	tp.Release()
	got := AcquireTuple()
	defer got.Release()
	if got != tp {
		t.Fatal("acquire after release on one P did not reuse the released tuple")
	}
	if !zeroed(got) {
		t.Fatalf("reused tuple not zeroed: %+v", got)
	}
}

// TestTupleCacheSpillsWithoutAliasing releases three stacks' worth of
// distinct tuples on one P, so two thirds spill past its stack into
// sync.Pool, and requires the acquires that follow to hand each tuple out
// at most once.
func TestTupleCacheSpillsWithoutAliasing(t *testing.T) {
	const n = 3 * tupleCacheSize
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tp := range acquireN(n) {
		tp.Seq = 1
		tp.Release()
	}
	seen := make(map[*Tuple]bool, n)
	got := acquireN(n)
	for _, tp := range got {
		if seen[tp] {
			t.Fatal("one tuple handed out twice")
		}
		seen[tp] = true
		if !zeroed(tp) {
			t.Fatalf("acquired tuple not zeroed: %+v", tp)
		}
	}
	for _, tp := range got {
		tp.Release()
	}
}

func acquireN(n int) []*Tuple {
	ts := make([]*Tuple, n)
	for i := range ts {
		ts[i] = AcquireTuple()
	}
	return ts
}

// churnExclusive runs workers goroutines that acquire batches of varying
// size (up to past one stack), stamp each tuple with their owner token,
// yield, and check every stamp is still theirs before releasing — so a
// tuple held by two goroutines at once fails the test. Every batch also
// hands one tuple to another goroutine through a channel, which checks and
// releases it, so tuples change P as well.
func churnExclusive(t *testing.T, workers, rounds int) {
	t.Helper()
	handoff := make(chan *Tuple, workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failure string
	fail := func(msg string) {
		mu.Lock()
		if failure == "" {
			failure = msg
		}
		mu.Unlock()
	}
	check := func(tp *Tuple) {
		if tp.Key == 0 || tp.Num1 != float64(tp.Key) {
			fail("a handed-off tuple's stamp changed while it was held")
		}
		tp.Release()
	}
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(owner uint64) {
			defer wg.Done()
			batch := make([]*Tuple, 0, tupleCacheSize+64)
			for r := 0; r < rounds; r++ {
				batch = batch[:0]
				for i := 0; i < 1+(r*37+int(owner)*11)%cap(batch); i++ {
					tp := AcquireTuple()
					if !zeroed(tp) {
						fail("acquired a tuple that was not zeroed (held elsewhere)")
					}
					tp.Key, tp.Num1 = owner, float64(owner)
					batch = append(batch, tp)
				}
				runtime.Gosched()
				for _, tp := range batch[1:] {
					if tp.Key != owner || tp.Num1 != float64(owner) {
						fail("a tuple's owner stamp changed while it was held")
					}
					tp.Release()
				}
				select {
				case handoff <- batch[0]:
				default:
					check(batch[0])
				}
				select {
				case tp := <-handoff:
					check(tp)
				default:
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	close(handoff)
	for tp := range handoff {
		check(tp)
	}
	if failure != "" {
		t.Fatal(failure)
	}
}

// TestTupleCacheExclusiveAcrossGoroutines checks no tuple is ever held
// twice while goroutines churn the per-P stacks at several P counts.
func TestTupleCacheExclusiveAcrossGoroutines(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		churnExclusive(t, 8, 200)
		runtime.GOMAXPROCS(prev)
	}
}

// TestTupleCacheGOMAXPROCSBeyondTable raises GOMAXPROCS past the table
// sized at init: Ps without a stack must fall back to sync.Pool, neither
// indexing out of range nor aliasing tuples.
func TestTupleCacheGOMAXPROCSBeyondTable(t *testing.T) {
	procs := len(tupleCaches) + 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	churnExclusive(t, 2*procs, 100)
}

// TestTupleCacheSteadyStateAllocFree guards the acquire/release cycle of a
// 64-tuple batch: once warm it draws everything from the free lists.
func TestTupleCacheSteadyStateAllocFree(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race-mode sync.Pool drops Puts; guard runs without -race")
	}
	var batch [64]*Tuple
	cycle := func() {
		for i := range batch {
			batch[i] = AcquireTuple()
		}
		for _, tp := range batch {
			tp.Release()
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg > 0.05 {
		t.Fatalf("64-tuple acquire/release batch allocates %.3f allocs/op, want ~0", avg)
	}
}
