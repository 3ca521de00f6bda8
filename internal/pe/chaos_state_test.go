package pe

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamelastic/internal/exec"
	"streamelastic/internal/fault"
	"streamelastic/internal/graph"
	"streamelastic/internal/obs"
	"streamelastic/internal/spl"
)

// The chaos-state pipeline: PE0 runs the generator; PE1 imports the stream
// and runs keyer -> KeyedJoin -> Reorder -> byte-recording sink. The keyer
// splits every tuple into a build (key = seq mod K, value = seq) and a
// probe (key = (seq+1) mod K), so the join's answer for probe s is the
// value built K-1 tuples earlier — state that a recovery must restore
// exactly or the output bytes change. Probes of the first K-1 tuples find
// no build entry and are dropped (inner join), deterministically.
const (
	chaosStateTuples = 30000
	chaosStateKeys   = 16
)

// chaosStateWant is the released-output count: probes s in [K-1, n).
const chaosStateWant = chaosStateTuples - chaosStateKeys + 1

// splitKeyer fans one generated tuple into a build/probe pair. Stateless:
// replay simply re-runs it.
type splitKeyer struct{}

func (splitKeyer) Name() string { return "keyer" }

func (splitKeyer) Process(_ int, t *spl.Tuple, out spl.Emitter) {
	b := spl.AcquireTuple()
	b.Seq = t.Seq
	b.Key = t.Seq % chaosStateKeys
	b.Num1 = float64(t.Seq)
	out.Emit(0, b) // build side first: the table is updated before the probe
	t.Key = (t.Seq + 1) % chaosStateKeys
	out.Emit(1, t)
}

// byteSink records the released stream as bytes — the exactly-once check
// is literal byte equality against a fault-free run.
type byteSink struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	count atomic.Uint64
}

func (s *byteSink) Name() string { return "bytesink" }

func (s *byteSink) RecyclesTuples() {}

func (s *byteSink) Process(_ int, t *spl.Tuple, _ spl.Emitter) {
	var rec [16]byte
	binary.LittleEndian.PutUint64(rec[:8], t.Seq)
	binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(t.Num2))
	s.mu.Lock()
	s.buf.Write(rec[:])
	s.mu.Unlock()
	s.count.Add(1)
}

func (s *byteSink) output() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}

// goldenOutput is the analytically expected sink byte stream: for each
// probe s >= K-1, (s, float64(s+1-K)).
func goldenOutput() []byte {
	var buf bytes.Buffer
	for s := uint64(chaosStateKeys - 1); s < chaosStateTuples; s++ {
		var rec [16]byte
		binary.LittleEndian.PutUint64(rec[:8], s)
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(float64(s+1-chaosStateKeys)))
		buf.Write(rec[:])
	}
	return buf.Bytes()
}

func keyedJoinJob(t *testing.T) (*graph.Graph, *byteSink) {
	t.Helper()
	g := graph.New()
	gen := spl.NewGenerator("src", 16)
	gen.MaxTuples = chaosStateTuples
	src := g.AddSource(gen, spl.NewCostVar(10))
	kid := g.AddOperator(splitKeyer{}, spl.NewCostVar(10))
	if err := g.Connect(src, 0, kid, 0, 1); err != nil {
		t.Fatal(err)
	}
	jid := g.AddOperator(spl.NewKeyedJoin("join"), spl.NewCostVar(50))
	if err := g.Connect(kid, 0, jid, 1, 1); err != nil { // build port
		t.Fatal(err)
	}
	if err := g.Connect(kid, 1, jid, 0, 1); err != nil { // probe port
		t.Fatal(err)
	}
	rid := g.AddOperator(spl.NewReorder("reorder", chaosStateKeys-1, 4096), spl.NewCostVar(10))
	if err := g.Connect(jid, 0, rid, 0, 1); err != nil {
		t.Fatal(err)
	}
	sink := &byteSink{}
	sid := g.AddOperator(sink, spl.NewCostVar(0))
	if err := g.Connect(rid, 0, sid, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g, sink
}

// chaosStateExecOpts is the supervision config for stateful recovery runs.
// Budget 1: every contained panic engages the quarantine, so the lost
// invocation is always inside the replayed window. A budget of 2 would let
// the first panic drop a tuple with no recovery owed — at-most-once,
// today's behavior.
func chaosStateExecOpts() exec.Options {
	return exec.Options{
		PanicBudget:    1,
		QuarantineBase: 5 * time.Millisecond,
		QuarantineMax:  50 * time.Millisecond,
		PanicDecay:     time.Hour,
	}
}

// launchChaosState starts the two-PE job. checkpointing toggles the
// coordinator; arm is called between Launch and Start so fault sites can be
// resolved through the plan.
func launchChaosState(t *testing.T, inj *fault.Injector, checkpointing bool, arm func(*Job)) (*Job, *byteSink) {
	t.Helper()
	g, sink := keyedJoinJob(t)
	job, err := Launch(g, Assignment{0, 1, 1, 1, 1}, Options{
		DisableElasticity: true,
		// Backpressure instead of drops, and a small retransmit window (four
		// blocks against ~2 MB of traffic) so the generator cannot outrun the
		// ack floor — the run is forced through many checkpoint cycles, the
		// pressure-driven ones included.
		Transport: TransportConfig{BlockTimeout: time.Minute, RetransmitBytes: 4 * logBlockBytes},
		Fault:     inj,
		Checkpoint: CheckpointOptions{
			Enabled:  checkpointing,
			Dir:      t.TempDir(),
			Interval: 10 * time.Millisecond,
		},
		Exec: chaosStateExecOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if arm != nil {
		arm(job)
	}
	if err := job.Start(context.Background()); err != nil {
		job.Stop()
		t.Fatal(err)
	}
	return job, sink
}

// waitSink waits until the sink count reaches want or stops growing.
func waitSink(t *testing.T, sink *byteSink, want uint64, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	last, stagnant := uint64(0), 0
	for time.Now().Before(end) {
		n := sink.count.Load()
		if n >= want {
			return
		}
		if n == last {
			stagnant++
			if n > 0 && stagnant > 400 { // ~2s without progress
				return
			}
		} else {
			last, stagnant = n, 0
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosStateExactlyOnceByteIdentical is the acceptance test for
// stateful exactly-once recovery: with operator panics, connection kills,
// and checkpoint crashes injected mid-run, the released output must be
// byte-identical to a fault-free run — same tuples, same values, same
// order, no gaps, no duplicates.
func TestChaosStateExactlyOnceByteIdentical(t *testing.T) {
	golden := goldenOutput()

	// Fault-free baseline, checkpointing on. The injector is non-nil but
	// never armed so both runs execute in the same (uncompiled) mode.
	job, sink := launchChaosState(t, fault.New(1), true, nil)
	waitSink(t, sink, chaosStateWant, 60*time.Second)
	if !job.DrainAndStop(30 * time.Second) {
		t.Fatal("fault-free run did not drain")
	}
	if !bytes.Equal(sink.output(), golden) {
		t.Fatalf("fault-free output differs from golden: %d bytes vs %d", len(sink.output()), len(golden))
	}

	// Faulted run: panics on the join past its budget (drop-then-restore
	// recovery), connection kills (retransmit from the ring), and a
	// checkpoint crash (torn epoch, never committed).
	inj := fault.New(42)
	job2, sink2 := launchChaosState(t, inj, true, func(j *Job) {
		joinSite := fault.OpSite(1, int(j.PEs[1].Plan.LocalOf[2]))
		inj.Arm(fault.OpPanic, joinSite, fault.Plan{EveryN: 4000, MaxFires: 3})
		inj.Arm(fault.ConnKill, 0, fault.Plan{EveryN: 2500, MaxFires: 2})
		inj.Arm(fault.CkptCrash, 1, fault.Plan{Nth: 2})
	})
	waitSink(t, sink2, chaosStateWant, 120*time.Second)
	stats := job2.CheckpointStats()
	if !job2.DrainAndStop(30 * time.Second) {
		t.Fatal("faulted run did not drain")
	}
	joinSite := fault.OpSite(1, int(job2.PEs[1].Plan.LocalOf[2]))
	if got := inj.Fires(fault.OpPanic, joinSite); got != 3 {
		t.Errorf("join panics fired %d times, want 3", got)
	}
	if got := inj.Fires(fault.ConnKill, 0); got != 2 {
		t.Errorf("conn kills fired %d times, want 2", got)
	}
	if got := inj.Fires(fault.CkptCrash, 1); got != 1 {
		t.Errorf("checkpoint crash fired %d times, want 1", got)
	}

	if !bytes.Equal(sink2.output(), golden) {
		a, b := sink2.output(), golden
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		t.Fatalf("faulted output not byte-identical to fault-free: %d vs %d bytes, first divergence at %d",
			len(a), len(b), i)
	}

	// The recovery machinery must actually have run: every panic tripped a
	// quarantine whose expiry restored state, and the crash was counted.
	sup := job2.PEs[1].Eng.Supervision()
	if sup.Quarantines != 3 {
		t.Errorf("quarantines = %d, want 3", sup.Quarantines)
	}
	st := stats[1]
	if st.Restores < 3 {
		t.Errorf("restores = %d, want >= 3 (one per quarantine recovery)", st.Restores)
	}
	if st.Errors == 0 {
		t.Error("checkpoint crash left no error count")
	}
	if st.Checkpoints == 0 {
		t.Error("no checkpoint ever committed")
	}
}

// TestChaosStateDisabledIsTodaysBehavior pins the compatibility baseline:
// with checkpointing off and no faults the output is unchanged, and the
// job runs exactly as before this subsystem existed (no ack gating, no
// coordinator).
func TestChaosStateDisabledIsTodaysBehavior(t *testing.T) {
	job, sink := launchChaosState(t, fault.New(7), false, nil)
	waitSink(t, sink, chaosStateWant, 60*time.Second)
	if !job.DrainAndStop(30 * time.Second) {
		t.Fatal("job did not drain with checkpointing disabled")
	}
	if !bytes.Equal(sink.output(), goldenOutput()) {
		t.Fatal("checkpoint-disabled output differs from golden")
	}
	for _, st := range job.CheckpointStats() {
		if st.Checkpoints != 0 || st.Restores != 0 {
			t.Fatalf("disabled job recorded checkpoint activity: %+v", st)
		}
	}
}

// TestChaosStateStorageFaultsDegradeGracefully injects the storage-level
// faults — a committed-but-corrupted record (CRC-skipped at load) and a
// torn read during restore — under a panic-triggered recovery. Byte
// identity is not promised on this path; what is promised: no harness
// panic, the decoder fails cleanly, the pipeline keeps flowing, and the
// released stream never duplicates or reorders a sequence.
func TestChaosStateStorageFaultsDegradeGracefully(t *testing.T) {
	inj := fault.New(23)
	job, sink := launchChaosState(t, inj, true, func(j *Job) {
		joinSite := fault.OpSite(1, int(j.PEs[1].Plan.LocalOf[2]))
		inj.Arm(fault.OpPanic, joinSite, fault.Plan{EveryN: 5000, MaxFires: 2})
		inj.Arm(fault.CkptCorrupt, 1, fault.Plan{Nth: 1})
		inj.Arm(fault.RestoreTorn, 1, fault.Plan{Nth: 1})
	})
	waitSink(t, sink, chaosStateWant, 60*time.Second)
	stats := job.CheckpointStats()
	if !job.DrainAndStop(30 * time.Second) {
		t.Fatal("job did not drain under storage faults")
	}
	out := sink.output()
	if len(out) == 0 || len(out)%16 != 0 {
		t.Fatalf("sink recorded %d bytes", len(out))
	}
	// Sequences must still be strictly increasing: replay may lose probes
	// to the degraded restore, but must never duplicate or reorder.
	prev := uint64(0)
	for off := 0; off < len(out); off += 16 {
		seq := binary.LittleEndian.Uint64(out[off : off+8])
		if off > 0 && seq <= prev {
			t.Fatalf("released seq %d after %d: duplicate or reorder under degraded recovery", seq, prev)
		}
		prev = seq
	}
	if stats[1].Restores == 0 {
		t.Error("no recovery ran: storage fault points never exercised")
	}
	if got := inj.Fires(fault.CkptCorrupt, 1); got != 1 {
		t.Errorf("checkpoint corruption fired %d times, want 1", got)
	}
}

// TestExportOnlyPETakesNoCut runs the keyed job with checkpointing to a
// file log. PE0 only generates and exports: no stateful operator and no
// gated import, so its checkpointer has nothing to capture and must take no
// cut — no pause, no empty epoch in pe0.ckpt — while PE1 cuts every
// interval. The output stays exactly-once, and a relaunch from the same
// directory restores PE1's last committed epoch.
func TestExportOnlyPETakesNoCut(t *testing.T) {
	dir := t.TempDir()
	const interval = 10 * time.Millisecond
	launch := func() (*Job, *graph.Graph, *byteSink) {
		g, sink := keyedJoinJob(t)
		job, err := Launch(g, Assignment{0, 1, 1, 1, 1}, Options{
			DisableElasticity: true,
			Transport:         TransportConfig{BlockTimeout: time.Minute, RetransmitBytes: 4 * logBlockBytes},
			Checkpoint:        CheckpointOptions{Enabled: true, Dir: dir, Interval: interval},
		})
		if err != nil {
			t.Fatal(err)
		}
		return job, g, sink
	}
	job, _, sink := launch()
	if err := job.Start(context.Background()); err != nil {
		job.Stop()
		t.Fatal(err)
	}
	// Wait for the whole output and for at least three interval cuts on
	// PE1 — so PE0's ticker has fired at least as often.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := job.CheckpointStats()[1]
		if sink.count.Load() >= chaosStateWant && st.Checkpoints-st.Pressure >= 3 {
			break
		}
		if time.Now().After(deadline) {
			job.Stop()
			t.Fatalf("sink %d of %d tuples, PE1 stats %+v", sink.count.Load(), chaosStateWant, st)
		}
		time.Sleep(time.Millisecond)
	}
	if !job.DrainAndStop(30 * time.Second) {
		t.Fatal("job did not drain")
	}
	if !bytes.Equal(sink.output(), goldenOutput()) {
		t.Fatal("output differs from golden")
	}
	stats := job.CheckpointStats()
	if st := stats[0]; st.Checkpoints != 0 || st.Skipped != 0 || st.Errors != 0 || st.StatefulOps != 0 {
		t.Fatalf("export-only PE0 checkpoint stats %+v, want no cut", st)
	}
	if stats[1].Checkpoints < 3 || stats[1].Errors != 0 {
		t.Fatalf("PE1 checkpoint stats %+v, want >= 3 cuts and no errors", stats[1])
	}
	var metrics bytes.Buffer
	if err := obs.WritePrometheusAll(&metrics, job.Registries()...); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		obs.MetricCkptTotal + `{pe="0"} 0`,
		obs.MetricCkptPause + `_count{pe="0"} 0`,
		obs.MetricCkptPause + `_count{pe="1"} ` + strconv.FormatUint(stats[1].Checkpoints, 10),
	} {
		if !strings.Contains(metrics.String(), series+"\n") {
			t.Errorf("/metrics lacks %q", series)
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, "pe0.ckpt")); err != nil || fi.Size() != 0 {
		t.Fatalf("pe0.ckpt: %v, want an empty log (stat error %v)", fi, err)
	}

	// Relaunch from the same logs: PE1 restores its committed join table,
	// PE0 has nothing to restore.
	job2, g2, _ := launch()
	defer job2.Stop()
	re := job2.CheckpointStats()
	if re[1].Restores != 1 || re[1].Epoch == 0 || re[1].Epoch > stats[1].Epoch {
		t.Fatalf("relaunched PE1 %+v, want one restore of an epoch in [1, %d]", re[1], stats[1].Epoch)
	}
	if n := g2.Node(2).Op.(*spl.KeyedJoin).Size(); n != chaosStateKeys {
		t.Fatalf("relaunched join holds %d keys, want %d", n, chaosStateKeys)
	}
	if re[0].Restores != 0 || re[0].Epoch != 0 {
		t.Fatalf("relaunched PE0 %+v, want nothing restored", re[0])
	}
}
