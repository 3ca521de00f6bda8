package exec

import (
	"context"
	"testing"
	"time"

	"streamelastic/internal/fault"
	"streamelastic/internal/graph"
	"streamelastic/internal/spl"
	"streamelastic/internal/state"
)

// buildCounterGraph is the checkpoint unit-test topology: a bounded keyed
// generator feeding one KeyedCounter into a counting sink. The counter is
// node 1.
func buildCounterGraph(t testing.TB) (*graph.Graph, *spl.KeyedCounter) {
	t.Helper()
	g := graph.New()
	gen := spl.NewGenerator("src", 8)
	gen.MaxTuples = 1
	src := g.AddSource(gen, nil)
	ctr := spl.NewKeyedCounter("ctr", 64, 0)
	cid := g.AddOperator(ctr, nil)
	if err := g.Connect(src, 0, cid, 0, 1); err != nil {
		t.Fatal(err)
	}
	sink := spl.NewCountingSink("snk")
	sid := g.AddOperator(sink, nil)
	if err := g.Connect(cid, 0, sid, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g, ctr
}

const ctrNode = 1

func newTestCheckpointer(t testing.TB, opts Options, cfg CheckpointConfig) (*Checkpointer, *spl.KeyedCounter, *Engine) {
	t.Helper()
	g, ctr := buildCounterGraph(t)
	e, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Store == nil {
		cfg.Store = state.NewMemStore()
	}
	return NewCheckpointer(e, cfg), ctr, e
}

func feedKeys(ctr *spl.KeyedCounter, keys ...uint64) {
	for _, k := range keys {
		ctr.Process(0, &spl.Tuple{Key: k}, spl.DiscardEmitter)
	}
}

func TestCheckpointCommitAndLaunchRestore(t *testing.T) {
	store := state.NewMemStore()
	var floor uint64
	wm := uint64(0)
	c, ctr, _ := newTestCheckpointer(t, Options{}, CheckpointConfig{
		Store:       store,
		Watermark:   func() uint64 { return wm },
		CommitFloor: func(w uint64) { floor = w },
	})
	feedKeys(ctr, 1, 2, 3, 3)
	wm = 42
	if !c.CheckpointNow() {
		t.Fatal("first checkpoint did not commit")
	}
	if floor != 42 {
		t.Fatalf("commit floor %d, want 42", floor)
	}
	st := c.Stats()
	if st.Checkpoints != 1 || st.Epoch != 1 || st.Watermark != 42 || st.StatefulOps != 1 {
		t.Fatalf("stats after first commit: %+v", st)
	}

	// A fresh process restores the committed cut at launch.
	c2, ctr2, _ := newTestCheckpointer(t, Options{}, CheckpointConfig{Store: store})
	if err := c2.Restore(); err != nil {
		t.Fatal(err)
	}
	if got := ctr2.Count(3); got != 2 {
		t.Fatalf("restored count(3) = %d, want 2", got)
	}
	if got := ctr2.Count(1); got != 1 {
		t.Fatalf("restored count(1) = %d, want 1", got)
	}
	// The epoch sequence resumes where the previous process stopped.
	if !c2.CheckpointNow() {
		t.Fatal("post-restore checkpoint did not commit")
	}
	if st := c2.Stats(); st.Epoch != 2 {
		t.Fatalf("post-restore epoch %d, want 2", st.Epoch)
	}
}

func TestIncrementalCheckpointCapturesOnlyDirtyKeys(t *testing.T) {
	store := state.NewMemStore()
	c, ctr, _ := newTestCheckpointer(t, Options{}, CheckpointConfig{Store: store})
	for k := uint64(1); k <= 40; k++ {
		feedKeys(ctr, k)
	}
	feedKeys(ctr, 1, 2, 3)
	if !c.CheckpointNow() { // epoch 1, full
		t.Fatal("full checkpoint failed")
	}
	recs, _ := store.Load()
	fullRecs := len(recs)

	// A clean interval commits an empty epoch: no data records appended.
	if !c.CheckpointNow() {
		t.Fatal("clean checkpoint failed")
	}
	if recs, _ = store.Load(); len(recs) != fullRecs {
		t.Fatalf("clean epoch appended records: %d -> %d", fullRecs, len(recs))
	}

	feedKeys(ctr, 9)
	if !c.CheckpointNow() { // epoch 3, incremental
		t.Fatal("incremental checkpoint failed")
	}
	recs, _ = store.Load()
	if len(recs) != fullRecs+1 {
		t.Fatalf("incremental epoch appended %d records, want 1", len(recs)-fullRecs)
	}
	last := recs[len(recs)-1]
	if last.Full || last.Epoch != 3 {
		t.Fatalf("incremental record: full=%v epoch=%d", last.Full, last.Epoch)
	}
	if len(last.Data) >= len(recs[0].Data) {
		t.Fatalf("incremental record (%dB) not smaller than full (%dB)", len(last.Data), len(recs[0].Data))
	}

	// Full + incremental chain restores to the merged state.
	c2, ctr2, _ := newTestCheckpointer(t, Options{}, CheckpointConfig{Store: store})
	if err := c2.Restore(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{1, 2, 3, 9} {
		if ctr2.Count(k) != ctr.Count(k) {
			t.Fatalf("key %d: restored %d, live %d", k, ctr2.Count(k), ctr.Count(k))
		}
	}
}

// TestCheckpointSkippedWhileQuarantined pins the consistency guard: a cut
// taken while a stateful operator is dropping tuples would stamp a
// watermark past input that operator never saw.
func TestCheckpointSkippedWhileQuarantined(t *testing.T) {
	c, ctr, e := newTestCheckpointer(t, Options{PanicBudget: 1}, CheckpointConfig{})
	feedKeys(ctr, 1)
	e.sup.nodes[ctrNode].until.Store(time.Now().Add(time.Hour).UnixNano())
	if c.CheckpointNow() {
		t.Fatal("checkpoint committed while the stateful operator was quarantined")
	}
	if st := c.Stats(); st.Skipped != 1 || st.Checkpoints != 0 {
		t.Fatalf("stats: %+v", st)
	}
	e.sup.nodes[ctrNode].until.Store(0)
	if !c.CheckpointNow() {
		t.Fatal("checkpoint still refused after release")
	}
}

// TestQuarantineRecoveryDropsStaleState is the drop-then-restore
// regression: state mutated after the last committed cut (including by
// tuples half-processed around a panic) must be rolled back on recovery,
// and the transport rewound to the cut's watermark so the gap replays.
func TestQuarantineRecoveryDropsStaleState(t *testing.T) {
	var rewound []uint64
	wm := uint64(0)
	c, ctr, e := newTestCheckpointer(t, Options{PanicBudget: 2, QuarantineBase: time.Millisecond}, CheckpointConfig{
		Watermark: func() uint64 { return wm },
		Rewind:    func(to uint64) { rewound = append(rewound, to) },
	})
	feedKeys(ctr, 7, 7, 8)
	wm = 300
	if !c.CheckpointNow() {
		t.Fatal("checkpoint failed")
	}

	// Post-checkpoint mutations that a recovery must discard.
	feedKeys(ctr, 7, 7, 7, 9)
	if ctr.Count(7) != 5 {
		t.Fatalf("precondition: count(7) = %d, want 5", ctr.Count(7))
	}

	// Exhaust the panic budget to quarantine the counter, then expire the
	// quarantine: the supervisor must park the node on the checkpointer
	// (recoverSentinel) instead of releasing it with stale state.
	now := time.Now()
	e.sup.notePanic(ctrNode, now)
	e.sup.notePanic(ctrNode, now)
	if e.sup.nodes[ctrNode].until.Load() == 0 {
		t.Fatal("counter not quarantined after exhausting the budget")
	}
	e.sup.nodes[ctrNode].until.Store(1) // force expiry
	if !e.sup.quarantined(ctrNode, time.Now().UnixNano()) {
		t.Fatal("expired quarantine released directly: stale state kept")
	}
	if got := e.sup.nodes[ctrNode].until.Load(); got != recoverSentinel {
		t.Fatalf("until = %d, want recoverSentinel", got)
	}

	var node int
	select {
	case node = <-c.recoverCh:
	default:
		t.Fatal("supervisor did not request recovery")
	}
	c.recover([]int{node})

	if got := ctr.Count(7); got != 2 {
		t.Fatalf("count(7) after recovery = %d, want 2 (checkpoint value)", got)
	}
	if got := ctr.Count(9); got != 0 {
		t.Fatalf("count(9) after recovery = %d, want 0", got)
	}
	if len(rewound) != 1 || rewound[0] != 300 {
		t.Fatalf("rewind calls %v, want [300]", rewound)
	}
	if e.sup.nodes[ctrNode].until.Load() != 0 {
		t.Fatal("operator still quarantined after recovery")
	}
	if st := c.Stats(); st.Restores != 1 {
		t.Fatalf("restores = %d, want 1", st.Restores)
	}
}

// TestRecoverBeforeFirstCommitResets pins the zero-epoch path: with
// nothing committed the cut is the stream's beginning, so recovery resets
// state and rewinds to zero — sound because acks were gated at zero.
func TestRecoverBeforeFirstCommitResets(t *testing.T) {
	var rewound []uint64
	c, ctr, _ := newTestCheckpointer(t, Options{PanicBudget: 1}, CheckpointConfig{
		Rewind: func(to uint64) { rewound = append(rewound, to) },
	})
	feedKeys(ctr, 5, 5, 6)
	c.recover([]int{ctrNode})
	if got := ctr.Count(5); got != 0 {
		t.Fatalf("count(5) after zero-epoch recovery = %d, want 0", got)
	}
	if len(rewound) != 1 || rewound[0] != 0 {
		t.Fatalf("rewind calls %v, want [0]", rewound)
	}
}

func TestCheckpointCrashFaultForcesFull(t *testing.T) {
	inj := fault.New(1)
	store := state.NewMemStore()
	c, ctr, _ := newTestCheckpointer(t, Options{Fault: inj}, CheckpointConfig{Store: store})
	feedKeys(ctr, 1, 2)
	if !c.CheckpointNow() { // epoch 1, full
		t.Fatal("baseline checkpoint failed")
	}

	feedKeys(ctr, 3)
	inj.Arm(fault.CkptCrash, 0, fault.Plan{Nth: 1, MaxFires: 1})
	if c.CheckpointNow() {
		t.Fatal("checkpoint committed through a CkptCrash")
	}
	if st := c.Stats(); st.Errors != 1 || st.Epoch != 1 {
		t.Fatalf("stats after crash: %+v", st)
	}
	recs, _ := store.Load()
	for _, r := range recs {
		if r.Epoch > 1 {
			t.Fatalf("uncommitted epoch %d visible after crash", r.Epoch)
		}
	}

	// The crashed epoch drained the dirty sets, so the next checkpoint
	// must be full or key 3 would never be recaptured.
	if !c.CheckpointNow() {
		t.Fatal("post-crash checkpoint failed")
	}
	recs, _ = store.Load()
	last := recs[len(recs)-1]
	if !last.Full {
		t.Fatal("post-crash checkpoint was incremental: dirty keys lost")
	}
	c2, ctr2, _ := newTestCheckpointer(t, Options{}, CheckpointConfig{Store: store})
	if err := c2.Restore(); err != nil {
		t.Fatal(err)
	}
	if ctr2.Count(3) != 1 {
		t.Fatalf("key dirtied in crashed epoch lost: count(3) = %d", ctr2.Count(3))
	}
}

func TestRestoreTornFaultFailsCleanly(t *testing.T) {
	inj := fault.New(2)
	c, ctr, _ := newTestCheckpointer(t, Options{Fault: inj, PanicBudget: 1}, CheckpointConfig{})
	feedKeys(ctr, 1, 2, 3, 4)
	if !c.CheckpointNow() {
		t.Fatal("checkpoint failed")
	}
	inj.Arm(fault.RestoreTorn, 0, fault.Plan{Nth: 1, MaxFires: 1})
	c.recover([]int{ctrNode}) // must not panic
	if st := c.Stats(); st.Errors == 0 {
		t.Fatal("torn restore not counted as an error")
	}
}

// TestStatefulHotPathZeroAllocs pins the non-checkpointing hot path: with
// dirty tracking off, steady-state keyed-state updates allocate nothing.
func TestStatefulHotPathZeroAllocs(t *testing.T) {
	j := spl.NewKeyedJoin("j")
	tup := &spl.Tuple{}
	for k := uint64(0); k < 512; k++ {
		tup.Key, tup.Num1 = k, 1
		j.Process(1, tup, spl.DiscardEmitter)
	}
	k := uint64(0)
	if got := testing.AllocsPerRun(2000, func() {
		tup.Key, tup.Num1 = k&511, 2
		j.Process(1, tup, spl.DiscardEmitter)
		k++
	}); got != 0 {
		t.Fatalf("KeyedJoin build path allocates %.1f/op with tracking off", got)
	}

	ctr := spl.NewKeyedCounter("c", 256, 0)
	for i := uint64(0); i < 1024; i++ {
		tup.Key = i & 63
		ctr.Process(0, tup, spl.DiscardEmitter)
	}
	k = 0
	if got := testing.AllocsPerRun(2000, func() {
		tup.Key = k & 63
		ctr.Process(0, tup, spl.DiscardEmitter)
		k++
	}); got != 0 {
		t.Fatalf("KeyedCounter hot path allocates %.1f/op with tracking off", got)
	}
}

// benchCkptChain is the checkpoint overhead pipeline: keyed generator ->
// KeyedCounter -> sink, live under the scheduler.
func benchCkptChain(b *testing.B) (*graph.Graph, *spl.KeyedCounter) {
	b.Helper()
	g := graph.New()
	gen := spl.NewGenerator("src", 64)
	gen.Keys = 1 << 10
	src := g.AddSource(gen, nil)
	ctr := spl.NewKeyedCounter("ctr", 4096, 1)
	cid := g.AddOperator(ctr, nil)
	if err := g.Connect(src, 0, cid, 0, 1); err != nil {
		b.Fatal(err)
	}
	sink := spl.NewCountingSink("snk")
	sid := g.AddOperator(sink, nil)
	if err := g.Connect(cid, 0, sid, 0, 1); err != nil {
		b.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		b.Fatal(err)
	}
	return g, ctr
}

// BenchmarkCheckpoint measures live pipeline throughput with checkpointing
// off and at 1s / 100ms intervals against a real file-backed log — the
// overhead sweep recorded in BENCH_8.json.
func BenchmarkCheckpoint(b *testing.B) {
	run := func(b *testing.B, interval time.Duration) {
		g, _ := benchCkptChain(b)
		e, err := New(g, Options{MaxThreads: 4})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		defer e.Stop()
		if interval > 0 {
			log, err := state.OpenFileLog(b.TempDir() + "/bench.ckpt")
			if err != nil {
				b.Fatal(err)
			}
			c := NewCheckpointer(e, CheckpointConfig{Store: log, Interval: interval})
			c.Start()
			defer c.Stop()
		}
		time.Sleep(20 * time.Millisecond) // warm up
		b.ResetTimer()
		start := e.SinkCount()
		t0 := time.Now()
		target := time.Duration(b.N) * 100 * time.Microsecond
		if target < 300*time.Millisecond {
			target = 300 * time.Millisecond
		}
		time.Sleep(target)
		elapsed := time.Since(t0).Seconds()
		b.StopTimer()
		b.ReportMetric(float64(e.SinkCount()-start)/elapsed, "tuples/s")
	}
	b.Run("off", func(b *testing.B) { run(b, 0) })
	b.Run("1s", func(b *testing.B) { run(b, time.Second) })
	b.Run("100ms", func(b *testing.B) { run(b, 100*time.Millisecond) })
}

// gatedStore holds every Commit until the test lets it through, so a cut can
// be kept "in progress" for as long as the test needs.
type gatedStore struct {
	state.Store
	entered chan struct{}
	release chan struct{}
}

func (g *gatedStore) Commit(epoch uint64) error {
	g.entered <- struct{}{}
	<-g.release
	return g.Store.Commit(epoch)
}

// TestRequestCutCoalescesAndYieldsToQuarantine pins commit-on-pressure's
// contract with its callers: RequestCut never blocks, any number of requests
// made while a cut is in progress buy exactly one further cut, and a request
// that finds a stateful operator quarantined is dropped without pausing the
// engine or counting a skipped cut.
func TestRequestCutCoalescesAndYieldsToQuarantine(t *testing.T) {
	gate := &gatedStore{Store: state.NewMemStore(), entered: make(chan struct{}), release: make(chan struct{})}
	c, ctr, e := newTestCheckpointer(t, Options{PanicBudget: 1}, CheckpointConfig{Store: gate, Interval: time.Hour})
	c.Start()
	waitEntered := func(what string) {
		t.Helper()
		select {
		case <-gate.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never reached its commit", what)
		}
	}

	feedKeys(ctr, 1)
	c.RequestCut()
	waitEntered("the requested cut")
	for i := 0; i < 5; i++ {
		c.RequestCut() // all land while the first cut is still committing
	}
	gate.release <- struct{}{}
	waitEntered("the coalesced follow-up cut")
	gate.release <- struct{}{}

	// Quarantined: the request is consumed and nothing else happens.
	e.sup.nodes[ctrNode].until.Store(time.Now().Add(time.Hour).UnixNano())
	c.RequestCut()
	for deadline := time.Now().Add(10 * time.Second); len(c.cutCh) > 0; {
		if time.Now().After(deadline) {
			t.Fatal("run loop never picked the request up")
		}
		time.Sleep(100 * time.Microsecond)
	}
	c.Stop() // returns once the loop has finished whatever it was handling
	if st := c.Stats(); st.Checkpoints != 2 || st.Pressure != 2 || st.Skipped != 0 {
		t.Fatalf("after 1+5 requests and one under quarantine: %+v, want 2 checkpoints, both on request, none skipped", st)
	}
}

// TestIncrementalCheckpointAllocs pins a steady cut's garbage: with one
// KeyedCounter over a FileLog, an incremental CheckpointNow reuses the
// operator's encoding buffer and the log's frame scratch, so after warm-up
// it allocates at most once — no copy of the snapshot, no per-record body.
func TestIncrementalCheckpointAllocs(t *testing.T) {
	log, err := state.OpenFileLog(t.TempDir() + "/pe.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	c, ctr, _ := newTestCheckpointer(t, Options{}, CheckpointConfig{Store: log, FullEvery: 1 << 30})
	defer c.Stop()
	tup := &spl.Tuple{}
	k := uint64(0)
	cut := func() {
		for i := 0; i < 32; i++ {
			tup.Key = k % 1024
			ctr.Process(0, tup, spl.DiscardEmitter)
			k += 7
		}
		if !c.CheckpointNow() {
			t.Fatal("checkpoint did not commit")
		}
	}
	for i := 0; i < 64; i++ { // one full, then incrementals that size the buffers
		cut()
	}
	if got := testing.AllocsPerRun(200, cut); got > 1 {
		t.Fatalf("incremental CheckpointNow allocates %.1f times per cut, want <= 1", got)
	}
	if st := c.Stats(); st.Errors != 0 {
		t.Fatalf("checkpoint errors: %+v", st)
	}
}

// TestIdleCheckpointerTakesNoCut pins that a checkpointer with nothing to
// capture — no snapshotter and no input watermark — neither pauses nor
// commits: a PE that only exports would otherwise stop its engine every
// interval to write an empty epoch.
func TestIdleCheckpointerTakesNoCut(t *testing.T) {
	newEngine := func() *Engine {
		g := graph.New()
		gen := spl.NewGenerator("src", 8)
		gen.MaxTuples = 1
		src := g.AddSource(gen, nil)
		sid := g.AddOperator(spl.NewCountingSink("snk"), nil)
		if err := g.Connect(src, 0, sid, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
		e, err := New(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	store := state.NewMemStore()
	c := NewCheckpointer(newEngine(), CheckpointConfig{Store: store})
	if c.CheckpointNow() {
		t.Fatal("idle checkpointer committed an epoch")
	}
	if st := c.Stats(); st.Checkpoints != 0 || st.Skipped != 0 || st.StatefulOps != 0 {
		t.Fatalf("idle checkpointer stats %+v, want no activity", st)
	}
	if recs, _ := store.Load(); len(recs) != 0 {
		t.Fatalf("idle checkpointer stored %d records", len(recs))
	}
	if n := c.pauseHist.Snapshot().Count; n != 0 {
		t.Fatalf("idle checkpointer paused the engine %d times", n)
	}

	// With an input watermark the same graph does cut: the commit is what
	// advances a gated import's ack floor.
	var floor uint64
	c2 := NewCheckpointer(newEngine(), CheckpointConfig{
		Store:       state.NewMemStore(),
		Watermark:   func() uint64 { return 9 },
		CommitFloor: func(wm uint64) { floor = wm },
	})
	if !c2.CheckpointNow() || floor != 9 {
		t.Fatalf("watermarked checkpointer: floor %d, want a commit at 9", floor)
	}
	if n := c2.pauseHist.Snapshot().Count; n != 1 {
		t.Fatalf("watermarked cut recorded %d pauses, want 1", n)
	}
}
