package pe

import (
	"sync/atomic"
	"testing"
	"time"

	"streamelastic/internal/obs"
	"streamelastic/internal/spl"
)

// TestFreezeParksWriterWithoutDrops pins the per-edge freeze contract the
// migration executor depends on: a frozen edge stops delivering, and
// producers that spend the log's budget park on the thaw instead of timing
// out into the drop counter, however short BlockTimeout is. After the thaw
// the timeout applies again. With 100 ms every appended tuple is delivered
// in order. With 1 µs the frozen backlog still fills the two-block log once
// the writer resumes, so the timeout may drop by policy: what arrives is
// exactly what was sent, in order, and sent plus dropped covers every
// tuple.
func TestFreezeParksWriterWithoutDrops(t *testing.T) {
	for _, tc := range []struct {
		name     string
		timeout  time.Duration
		lossless bool
	}{
		{"timeout_100ms", 100 * time.Millisecond, true},
		{"timeout_1us", time.Microsecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) { testFreezeParks(t, tc.timeout, tc.lossless) })
	}
}

func testFreezeParks(t *testing.T, timeout time.Duration, lossless bool) {
	send, recv := loopbackPair(t)
	exp := newExportOp("x")
	exp.cfg = TransportConfig{
		RetransmitBytes: 2 * logBlockBytes,
		BlockTimeout:    timeout,
	}.withDefaults()
	exp.connect(send, "")
	defer exp.close()
	imp := newImportSource("i")
	imp.connect(recv, nil)
	defer imp.close()

	var got atomic.Uint64
	var seqs []uint64
	collect := spl.EmitterFunc(func(_ int, tp *spl.Tuple) {
		seqs = append(seqs, tp.Seq)
		got.Add(1)
		tp.Release()
	})
	drainStop := make(chan struct{})
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		for {
			select {
			case <-drainStop:
				return
			default:
			}
			if !imp.Next(collect) {
				return
			}
		}
	}()
	defer func() { close(drainStop); <-drainDone }()

	const n = 20
	exp.freeze()
	staged := make(chan struct{})
	go func() {
		defer close(staged)
		for i := 0; i < n; i++ {
			tp := spl.AcquireTuple()
			tp.Seq = uint64(i)
			tp.AcquirePayload(16 << 10)
			exp.Process(0, tp, nil)
			tp.Release()
		}
	}()

	// Two blocks hold about six 16 KiB tuples; the producer must park on the
	// thaw, not drop, even though BlockTimeout elapses many times over.
	time.Sleep(400 * time.Millisecond)
	select {
	case <-staged:
		t.Fatal("producer appended 20 tuples of 16 KiB into a frozen two-block log: nothing parked")
	default:
	}
	if d := exp.Dropped(); d != 0 {
		t.Fatalf("frozen edge dropped %d tuples", d)
	}
	if g := got.Load(); g != 0 {
		t.Fatalf("frozen edge delivered %d tuples", g)
	}

	exp.unfreeze()
	<-staged
	sent := exp.Sent()
	deadline := time.Now().Add(10 * time.Second)
	for got.Load() < sent && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if g := got.Load(); g != sent {
		t.Fatalf("delivered %d tuples after thaw, want the %d sent", g, sent)
	}
	if d := exp.Dropped(); sent+d != n {
		t.Fatalf("sent %d + dropped %d, want %d", sent, d, n)
	}
	if lossless && sent != n {
		t.Fatalf("dropped %d tuples across freeze/unfreeze", n-sent)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("seq[%d] = %d after %d: reordered across the thaw", i, seqs[i], seqs[i-1])
		}
	}
}

// TestFreezeFrozenFlag pins freeze/unfreeze idempotence on an unconnected
// export (no writer to park — just the flag and thaw channel lifecycle).
func TestFreezeFrozenFlag(t *testing.T) {
	exp := newExportOp("x")
	exp.cfg = TransportConfig{}.withDefaults()
	if exp.frozen.Load() {
		t.Fatal("new export born frozen")
	}
	exp.freeze()
	exp.freeze() // idempotent
	if !exp.frozen.Load() {
		t.Fatal("freeze did not latch")
	}
	exp.unfreeze()
	exp.unfreeze() // idempotent
	if exp.frozen.Load() {
		t.Fatal("unfreeze did not clear")
	}
}

// TestTransportMetricsRebindOnChurn pins the fix for histogram registration
// on dynamically re-dialed streams: re-registering transport series for a
// replacement endpoint under the same (stream, dir, peer) labels must not
// panic (the old *Func registrars did) and must not skip — the series swap
// to the new endpoint's collectors, so a migrated edge's metrics follow the
// live endpoint instead of a retired one.
func TestTransportMetricsRebindOnChurn(t *testing.T) {
	r := obs.NewRegistry(obs.Label{Key: "pe", Value: "0"})

	expA := newExportOp("a")
	expA.cfg = TransportConfig{}.withDefaults()
	expA.batches[0].Store(7) // drain-size histogram bucket
	registerExportMetrics(r, expA, 3, "1")

	// Churn the edge: same stream id and peer, new endpoint object. Before
	// the Set* registrars this panicked on the duplicate histogram family.
	expB := newExportOp("b")
	expB.cfg = TransportConfig{}.withDefaults()
	expB.batches[0].Store(11)
	expB.batches[2].Store(1)
	registerExportMetrics(r, expB, 3, "1")

	var hists []obs.Sample
	for _, s := range r.Gather() {
		if s.Name == obs.MetricTransportDrainSize {
			hists = append(hists, s)
		}
	}
	if len(hists) != 1 {
		t.Fatalf("drain-size series after churn = %d, want exactly 1 (no stale duplicate)", len(hists))
	}
	h := hists[0].Hist
	if h == nil {
		t.Fatal("drain-size sample has no histogram snapshot")
	}
	if h.Count != 12 {
		t.Fatalf("histogram count = %d, want the replacement endpoint's 12", h.Count)
	}

	// A different peer label is a different series, not a rebind.
	expC := newExportOp("c")
	expC.cfg = TransportConfig{}.withDefaults()
	registerExportMetrics(r, expC, 3, "2")
	count := 0
	for _, s := range r.Gather() {
		if s.Name == obs.MetricTransportDrainSize {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("drain-size series across two peers = %d, want 2", count)
	}

	// Import side churns the same way.
	impA := newImportSource("ia")
	registerImportMetrics(r, impA, 3, "0")
	impB := newImportSource("ib")
	registerImportMetrics(r, impB, 3, "0")
	tuples := 0
	for _, s := range r.Gather() {
		if s.Name == obs.MetricTransportTuples {
			for _, l := range s.Labels {
				if l.Key == "dir" && l.Value == "import" {
					tuples++
				}
			}
		}
	}
	if tuples != 1 {
		t.Fatalf("import tuple series after churn = %d, want 1", tuples)
	}
}
