package pe

import (
	"bytes"
	"context"
	"testing"
	"time"

	"streamelastic/internal/core"
	"streamelastic/internal/exec"
	"streamelastic/internal/fault"
	"streamelastic/internal/monitor"
)

// chaosResult is everything one seeded chaos run produces, for the
// determinism comparison and the conservation checks.
type chaosResult struct {
	sink    *seqSink
	stream  StreamStats
	sup     exec.SupervisionStats
	panics  uint64
	fused   uint64 // tuples PE1 ran through compiled region programs
	log     []byte
	drained bool
}

// runChaosOnce runs the two-PE seqJob under a seeded injector that kills
// the stream's connection, corrupts frames on the wire, and panics the
// downstream work operator past its panic budget, then drains gracefully.
// Chaos hooks fire once per staged tuple and once per operator invocation,
// so the injector's event ranks — and therefore its log — are a pure
// function of the seed, not of framing or batching.
func runChaosOnce(t *testing.T, seed int64, n uint64) chaosResult {
	t.Helper()
	g, sink := seqJob(t, n)
	assign := Assignment{0, 0, 1, 1}
	inj := fault.New(seed)
	job, err := Launch(g, assign, Options{
		DisableElasticity: true,
		// Backpressure instead of drops: conservation must close exactly.
		Transport: TransportConfig{BlockTimeout: time.Minute},
		Fault:     inj,
		Exec: exec.Options{
			PanicBudget: 2,
			// Short quarantines: the producing PE runs the whole stream in a
			// few milliseconds, and the six panics need 240 invocations
			// outside the quarantine windows for the plan — and so the log —
			// to complete however quickly the wire delivers.
			QuarantineBase: 200 * time.Microsecond,
			QuarantineMax:  time.Millisecond,
			PanicDecay:     time.Hour, // no forgiveness mid-test: counts stay predictable
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Arm after Launch so the downstream work operator's local node id can
	// be resolved through the plan; tuples only flow after Start, so no
	// events are lost. Global node 2 is the PE1-side work operator.
	wSite := fault.OpSite(1, int(job.PEs[1].Plan.LocalOf[2]))
	inj.Arm(fault.ConnKill, 0, fault.Plan{EveryN: 2500, MaxFires: 3})
	inj.Arm(fault.FrameCorrupt, 0, fault.Plan{EveryN: 3000, MaxFires: 2})
	inj.Arm(fault.OpPanic, wSite, fault.Plan{EveryN: 40, MaxFires: 6})

	if err := job.Start(context.Background()); err != nil {
		job.Stop()
		t.Fatal(err)
	}
	// Every emitted tuple eventually lands somewhere countable: the sink,
	// a contained panic, or a quarantine drop.
	accounted := func() uint64 {
		return sink.count.Load() + job.PEs[1].Eng.OperatorPanics() +
			job.PEs[1].Eng.Supervision().Dropped
	}
	deadline := time.Now().Add(120 * time.Second)
	for accounted() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	res := chaosResult{sink: sink, drained: job.DrainAndStop(30 * time.Second)}
	res.stream = job.StreamStats()[0]
	res.sup = job.PEs[1].Eng.Supervision()
	res.panics = job.PEs[1].Eng.OperatorPanics()
	res.fused = job.PEs[1].Eng.SchedStats().FusedTuples
	res.log = inj.LogBytes()
	if got := inj.Fires(fault.ConnKill, 0); got != 3 {
		t.Errorf("conn kills fired %d times, want 3", got)
	}
	if got := inj.Fires(fault.FrameCorrupt, 0); got != 2 {
		t.Errorf("frame corruptions fired %d times, want 2", got)
	}
	if got := inj.Fires(fault.OpPanic, wSite); got != 6 {
		t.Errorf("operator panics fired %d times, want 6", got)
	}
	return res
}

// TestChaosExactlyOnceUnderFaults is the acceptance test for the
// self-healing runtime: with connection kills, wire corruption, and
// operator panics injected mid-run — the corruptions landing mid-batch-frame
// and the panics firing inside PE1's compiled region — the stream still
// delivers exactly-once (no duplicates) and every emitted tuple is accounted
// for: delivered, counted as a contained panic, or counted as a quarantine
// drop. Running the same seed twice must produce a byte-identical fault log.
func TestChaosExactlyOnceUnderFaults(t *testing.T) {
	const n = 12000
	const seed = 42
	res := runChaosOnce(t, seed, n)

	if !res.drained {
		t.Fatal("job did not drain under injected faults")
	}
	if res.sink.dups != 0 {
		t.Fatalf("%d duplicated tuples reached the sink", res.sink.dups)
	}
	delivered := res.sink.count.Load()
	if total := delivered + res.panics + res.sup.Dropped; total != n {
		t.Fatalf("conservation broken: delivered %d + panics %d + quarantine drops %d = %d, want %d",
			delivered, res.panics, res.sup.Dropped, total, n)
	}
	st := res.stream
	if st.Sent != n || st.Received != n || st.Dropped != 0 {
		t.Fatalf("wire counters sent=%d received=%d dropped=%d, want %d/%d/0",
			st.Sent, st.Received, st.Dropped, n, n)
	}
	if st.Reconnects == 0 {
		t.Fatal("no reconnects recorded despite injected connection kills")
	}
	if st.Retransmits == 0 {
		t.Fatal("no retransmits recorded: reconnects did not resume from the ring")
	}
	if st.Resumes == 0 {
		t.Fatal("import never re-accepted a connection")
	}
	if res.sup.Quarantines == 0 {
		t.Fatal("panic budget never tripped a quarantine")
	}
	if res.sup.Releases == 0 {
		t.Fatal("no quarantine was ever released")
	}
	if res.sup.Dropped == 0 {
		t.Fatal("quarantine engaged but dropped nothing")
	}
	if res.fused == 0 {
		t.Fatal("PE1 never ran its compiled region: the faults did not exercise the production path")
	}

	// Determinism artifact: an identical seed over identical per-site event
	// streams yields a byte-identical fault log.
	res2 := runChaosOnce(t, seed, n)
	if !bytes.Equal(res.log, res2.log) {
		t.Fatalf("fault logs differ across same-seed runs:\nrun1:\n%srun2:\n%s", res.log, res2.log)
	}
}

// TestChaosReconnectResumesFromRing kills the stream's connection exactly
// once mid-run and verifies the recovery machinery end to end: the import
// re-accepts, the export redials and retransmits the unacknowledged window,
// and the sink still sees every sequence number exactly once.
func TestChaosReconnectResumesFromRing(t *testing.T) {
	const n = 3000
	g, sink := seqJob(t, n)
	inj := fault.New(7)
	inj.Arm(fault.ConnKill, 0, fault.Plan{Nth: 500})
	job, err := Launch(g, Assignment{0, 0, 1, 1}, Options{
		DisableElasticity: true,
		Transport:         TransportConfig{BlockTimeout: time.Minute},
		Fault:             inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(context.Background()); err != nil {
		job.Stop()
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for sink.count.Load() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !job.DrainAndStop(30 * time.Second) {
		t.Fatal("job did not drain after the connection kill")
	}
	if got := inj.Fires(fault.ConnKill, 0); got != 1 {
		t.Fatalf("conn kill fired %d times, want 1", got)
	}
	if sink.dups != 0 {
		t.Fatalf("%d duplicated tuples", sink.dups)
	}
	if len(sink.seen) != n {
		t.Fatalf("received %d distinct tuples, want %d", len(sink.seen), n)
	}
	st := job.StreamStats()[0]
	if st.Reconnects != 1 {
		t.Fatalf("reconnects = %d, want 1", st.Reconnects)
	}
	if st.Resumes != 1 {
		t.Fatalf("import resumes = %d, want 1", st.Resumes)
	}
	if st.Retransmits == 0 {
		t.Fatal("reconnect did not retransmit from the ring")
	}
	if st.Sent != n || st.Received != n || st.Dropped != 0 {
		t.Fatalf("wire counters sent=%d received=%d dropped=%d, want %d/%d/0",
			st.Sent, st.Received, st.Dropped, n, n)
	}
}

// TestChaosWatchdogFreezesAdaptation stalls the export writer long enough
// for the watchdog to trip and verifies the full control loop: the PE's
// coordinator stops adapting (PhaseFrozen trace events with an unchanged
// configuration) while unhealthy, then thaws once the stall clears.
func TestChaosWatchdogFreezesAdaptation(t *testing.T) {
	g, _ := seqJob(t, 2_000_000) // effectively unbounded for this test's lifetime
	inj := fault.New(3)
	inj.Arm(fault.WriterStall, 0, fault.Plan{Nth: 200, Delay: 600 * time.Millisecond})
	job, err := Launch(g, Assignment{0, 0, 1, 1}, Options{
		Exec:           exec.Options{AdaptPeriod: 20 * time.Millisecond},
		Elastic:        core.DefaultConfig(),
		Fault:          inj,
		EnableWatchdog: true,
		// HealthyAfter holds the trip 200 ms past the stall: the stalled
		// edge also holds the coordinator's first ApplyPlacement in the
		// pause barrier for the whole stall (a producer waiting for edge
		// space never parks), so the coordinator only steps — and records
		// frozen events — once the barrier releases.
		Watchdog: monitor.WatchdogConfig{
			Interval:       10 * time.Millisecond,
			UnhealthyAfter: 2,
			HealthyAfter:   20,
		},
		StallAfter: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(context.Background()); err != nil {
		job.Stop()
		t.Fatal(err)
	}
	defer job.Stop()

	wd := job.PEs[0].Watchdog
	deadline := time.Now().Add(30 * time.Second)
	for wd.Status().Trips == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if wd.Status().Trips == 0 {
		t.Fatal("watchdog never tripped on the injected writer stall")
	}
	for wd.Status().Recovers == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := wd.Status()
	if st.Recovers == 0 {
		t.Fatalf("watchdog never recovered after the stall cleared: %+v", st)
	}
	if st.LastCause == "" {
		t.Fatal("tripped watchdog recorded no cause")
	}

	// The coordinator must have observed the freeze: PhaseFrozen events in
	// the trace, and no configuration movement inside a frozen window.
	trace := job.PEs[0].Coord.Trace()
	frozen := 0
	for i, e := range trace {
		if e.Phase != core.PhaseFrozen {
			continue
		}
		frozen++
		if i > 0 && trace[i-1].Phase == core.PhaseFrozen {
			prev := trace[i-1]
			if e.Threads != prev.Threads || e.Queues != prev.Queues {
				t.Fatalf("configuration moved while frozen: %d/%d threads, %d/%d queues",
					prev.Threads, e.Threads, prev.Queues, e.Queues)
			}
		}
	}
	if frozen == 0 {
		t.Fatal("coordinator trace has no frozen events despite a watchdog trip")
	}
}

// TestChaosThreePEOneEdgeKilled splits the pipeline across three PEs and
// kills the PE1->PE2 edge's connection mid-run while the PE0->PE1 edge runs
// undisturbed. Conservation must close exactly on both edges: every tuple
// crosses each boundary once, the killed edge reconnects and resumes from
// its log, and the other edge never reconnects.
func TestChaosThreePEOneEdgeKilled(t *testing.T) {
	const n = 8000
	g, sink := seqJob(t, n)
	inj := fault.New(19)
	job, err := Launch(g, Assignment{0, 1, 1, 2}, Options{
		DisableElasticity: true,
		Transport:         TransportConfig{BlockTimeout: time.Minute},
		Fault:             inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	var calmStream, killedStream = -1, -1
	for _, ce := range job.Streams() {
		if ce.FromPE == 0 {
			calmStream = ce.Stream
		} else {
			killedStream = ce.Stream
		}
	}
	if calmStream < 0 || killedStream < 0 {
		t.Fatalf("expected a PE0->PE1 and a PE1->PE2 stream, got %+v", job.Streams())
	}
	inj.Arm(fault.ConnKill, killedStream, fault.Plan{Nth: 2000})
	if err := job.Start(context.Background()); err != nil {
		job.Stop()
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for sink.count.Load() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !job.DrainAndStop(30 * time.Second) {
		t.Fatal("job did not drain under a connection kill")
	}
	if got := inj.Fires(fault.ConnKill, killedStream); got != 1 {
		t.Fatalf("conn kill fired %d times, want 1", got)
	}
	if sink.dups != 0 {
		t.Fatalf("%d duplicated tuples", sink.dups)
	}
	if len(sink.seen) != n {
		t.Fatalf("received %d distinct tuples, want %d", len(sink.seen), n)
	}
	for _, st := range job.StreamStats() {
		if st.Sent != n || st.Received != n || st.Dropped != 0 {
			t.Fatalf("stream %d counters sent=%d received=%d dropped=%d, want %d/%d/0",
				st.Stream, st.Sent, st.Received, st.Dropped, n, n)
		}
		switch st.Stream {
		case calmStream:
			if st.BytesSent == 0 {
				t.Fatalf("stream %d sent no wire bytes", st.Stream)
			}
			if st.Reconnects != 0 || st.Resumes != 0 {
				t.Fatalf("undisturbed edge recovered: reconnects=%d resumes=%d, want 0/0", st.Reconnects, st.Resumes)
			}
		case killedStream:
			// Bytes need not agree exactly: the kill loses in-flight bytes
			// and the resume rewrites them, so sent >= received.
			if st.BytesSent == 0 || st.BytesReceived == 0 || st.BytesSent < st.BytesReceived {
				t.Fatalf("wire bytes implausible: sent %d received %d", st.BytesSent, st.BytesReceived)
			}
			if st.Reconnects != 1 || st.Resumes != 1 {
				t.Fatalf("killed edge recovery: reconnects=%d resumes=%d, want 1/1", st.Reconnects, st.Resumes)
			}
			if st.Retransmits == 0 {
				t.Fatal("killed edge reconnected without retransmitting from its log")
			}
		}
	}
}

// TestChaosOperatorSlowdownContained injects per-invocation slowdowns and
// verifies the injector's delay class works through the engine hook without
// disturbing delivery.
func TestChaosOperatorSlowdownContained(t *testing.T) {
	const n = 400
	g, sink := seqJob(t, n)
	inj := fault.New(11)
	job, err := Launch(g, Assignment{0, 0, 1, 1}, Options{
		DisableElasticity: true,
		Transport:         TransportConfig{BlockTimeout: time.Minute},
		Fault:             inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	wSite := fault.OpSite(1, int(job.PEs[1].Plan.LocalOf[2]))
	inj.Arm(fault.OpSlow, wSite, fault.Plan{EveryN: 100, MaxFires: 3, Delay: 20 * time.Millisecond})
	if err := job.Start(context.Background()); err != nil {
		job.Stop()
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for sink.count.Load() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !job.DrainAndStop(30 * time.Second) {
		t.Fatal("job did not drain with injected slowdowns")
	}
	if got := inj.Fires(fault.OpSlow, wSite); got != 3 {
		t.Fatalf("slowdowns fired %d times, want 3", got)
	}
	if sink.dups != 0 || len(sink.seen) != n {
		t.Fatalf("delivery disturbed: %d distinct, %d dups, want %d/0",
			len(sink.seen), sink.dups, n)
	}
}
