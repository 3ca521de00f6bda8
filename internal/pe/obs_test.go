package pe

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"streamelastic/internal/core"
	"streamelastic/internal/exec"
	"streamelastic/internal/fault"
	"streamelastic/internal/graph"
	"streamelastic/internal/monitor"
	"streamelastic/internal/obs"
	"streamelastic/internal/spl"
)

// syncBuf is an io.Writer safe to read while the watchdog goroutine dumps
// into it.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestWatchdogTripDumpsFlightRecorder injects a writer stall long enough to
// trip PE0's watchdog and asserts the trip automatically produces a
// flight-recorder dump on Options.FlightDump, with the trip itself and the
// injected fault recorded as events.
func TestWatchdogTripDumpsFlightRecorder(t *testing.T) {
	g, _ := seqJob(t, 2_000_000) // effectively unbounded for this test's lifetime
	inj := fault.New(3)
	inj.Arm(fault.WriterStall, 0, fault.Plan{Nth: 200, Delay: 600 * time.Millisecond})
	dump := &syncBuf{}
	job, err := Launch(g, Assignment{0, 0, 1, 1}, Options{
		Exec:           exec.Options{AdaptPeriod: 20 * time.Millisecond},
		Elastic:        core.DefaultConfig(),
		Fault:          inj,
		EnableWatchdog: true,
		Watchdog: monitor.WatchdogConfig{
			Interval:       10 * time.Millisecond,
			UnhealthyAfter: 2,
			HealthyAfter:   4,
		},
		StallAfter: 30 * time.Millisecond,
		FlightDump: dump,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(context.Background()); err != nil {
		job.Stop()
		t.Fatal(err)
	}
	defer job.Stop()

	deadline := time.Now().Add(30 * time.Second)
	// The trip event is the dump's last line, written after the header: wait
	// for it, not for the header, or the poll can land between the two.
	for !strings.Contains(dump.String(), "watchdog-trip") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	text := dump.String()
	if !strings.Contains(text, "=== flight-recorder dump (watchdog trip pe0") {
		t.Fatalf("no automatic dump after watchdog trip; dump buffer:\n%s", text)
	}
	if !strings.Contains(text, "watchdog-trip") {
		t.Fatalf("dump does not carry the trip event:\n%s", text)
	}
	if !strings.Contains(text, "fault") || !strings.Contains(text, "writer-stall") {
		t.Fatalf("dump does not carry the injected fault:\n%s", text)
	}

	var sawTrip, sawFault bool
	for _, ev := range job.FlightRecorder().Events() {
		switch ev.Kind {
		case obs.EvWatchdogTrip:
			sawTrip = true
			if ev.PE != 0 || ev.Detail == "" {
				t.Fatalf("trip event malformed: %+v", ev)
			}
		case obs.EvFault:
			sawFault = true
		}
	}
	if !sawTrip || !sawFault {
		t.Fatalf("recorder missing events: trip=%v fault=%v", sawTrip, sawFault)
	}

	// The watchdog gauges must reflect the trip on PE0's registry.
	trips := uint64(0)
	for _, s := range job.Registries()[0].Gather() {
		if s.Name == obs.MetricWatchdogTrips {
			trips = s.U
		}
	}
	if trips == 0 {
		t.Fatal("watchdog_trips_total stayed 0 on PE0's registry after a trip")
	}

	// On-demand dump works too and is self-describing.
	var manual bytes.Buffer
	job.DumpFlight(&manual, "test requested")
	if !strings.Contains(manual.String(), "=== flight-recorder dump (test requested) ===") {
		t.Fatalf("manual dump header missing:\n%s", manual.String())
	}
}

// TestJobRegistriesExposeTransportSeries runs a small two-PE job to
// completion and checks the per-PE registries carry the transport series
// (export on PE0, import on PE1), the engine series, and that the job's
// Statuses provider folds them back into per-stream rows matching
// StreamStats.
func TestJobRegistriesExposeTransportSeries(t *testing.T) {
	const n = 5000
	g, sink := seqJob(t, n)
	job, err := Launch(g, Assignment{0, 0, 1, 1}, Options{DisableElasticity: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(context.Background()); err != nil {
		job.Stop()
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for sink.count.Load() < n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if !job.DrainAndStop(30 * time.Second) {
		t.Fatal("job did not drain")
	}

	regs := job.Registries()
	if len(regs) != 2 {
		t.Fatalf("got %d registries, want 2", len(regs))
	}
	find := func(pe int, name, dir string) *obs.Sample {
		for _, s := range regs[pe].Gather() {
			if s.Name != name {
				continue
			}
			matched := dir == ""
			for _, l := range s.Labels {
				if l.Key == "dir" && l.Value == dir {
					matched = true
				}
			}
			if matched {
				cp := s
				return &cp
			}
		}
		return nil
	}
	ss := job.StreamStats()[0]
	exp := find(0, obs.MetricTransportTuples, "export")
	if exp == nil || exp.U != ss.Sent {
		t.Fatalf("export tuples series = %+v, want %d", exp, ss.Sent)
	}
	imp := find(1, obs.MetricTransportTuples, "import")
	if imp == nil || imp.U != ss.Received {
		t.Fatalf("import tuples series = %+v, want %d", imp, ss.Received)
	}
	for pe := 0; pe < 2; pe++ {
		if s := find(pe, obs.MetricSinkTuples, ""); s == nil {
			t.Fatalf("pe%d registry missing %s", pe, obs.MetricSinkTuples)
		}
		if s := find(pe, obs.MetricSchedLocalPushes, ""); s == nil {
			t.Fatalf("pe%d registry missing %s", pe, obs.MetricSchedLocalPushes)
		}
	}

	sts := job.Statuses()
	if len(sts) != 2 || sts[0].Name != "pe0" || sts[1].Name != "pe1" {
		t.Fatalf("statuses = %+v", sts)
	}
	if len(sts[0].Streams) != 1 || sts[0].Streams[0].Dir != "export" ||
		sts[0].Streams[0].Tuples != ss.Sent {
		t.Fatalf("pe0 stream rows = %+v, want one export of %d", sts[0].Streams, ss.Sent)
	}
	if len(sts[1].Streams) != 1 || sts[1].Streams[0].Dir != "import" ||
		sts[1].Streams[0].Tuples != ss.Received {
		t.Fatalf("pe1 stream rows = %+v, want one import of %d", sts[1].Streams, ss.Received)
	}
	if sts[1].SinkTuples != n {
		t.Fatalf("pe1 sink tuples = %d, want %d", sts[1].SinkTuples, n)
	}
}

// TestPressureCutsCarryTheStreamAndShowUp runs the checkpointed two-PE job
// with the periodic tick effectively off (one hour) and a four-block window:
// acks are gated at the last commit, so the stream can only finish if the
// import's commit-on-pressure requests keep cutting. It then checks every
// surface the mechanism reports on: CheckpointStats, /metrics, /statusz and
// the flight recorder, plus the export's window gauge while traffic flows.
func TestPressureCutsCarryTheStreamAndShowUp(t *testing.T) {
	g, sink := keyedJoinJob(t)
	const budget = 4 * logBlockBytes
	job, err := Launch(g, Assignment{0, 1, 1, 1, 1}, Options{
		DisableElasticity: true,
		Transport:         TransportConfig{BlockTimeout: time.Minute, RetransmitBytes: budget},
		Checkpoint:        CheckpointOptions{Enabled: true, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(context.Background()); err != nil {
		job.Stop()
		t.Fatal(err)
	}
	exp := job.PEs[0].Plan.exports[0]
	var peak int64
	deadline := time.Now().Add(60 * time.Second)
	for sink.count.Load() < chaosStateWant && time.Now().Before(deadline) {
		if w := exp.UnackedBytes(); w > peak {
			peak = w
		}
		time.Sleep(200 * time.Microsecond)
	}
	if got := sink.count.Load(); got < chaosStateWant {
		t.Fatalf("stream stalled at %d of %d tuples: pressure cuts did not free the window", got, chaosStateWant)
	}
	if peak <= 0 || peak > budget {
		t.Fatalf("window gauge peaked at %d bytes, want within (0, %d]", peak, budget)
	}
	// Stop first: the counters below are compared with each other, and a cut
	// landing between two reads would make them disagree.
	if !job.DrainAndStop(30 * time.Second) {
		t.Fatal("job did not drain")
	}
	if !bytes.Equal(sink.output(), goldenOutput()) {
		t.Fatal("output differs from golden")
	}
	if w := exp.UnackedBytes(); w != 0 {
		t.Fatalf("window gauge reads %d after close, want 0", w)
	}

	st := job.CheckpointStats()[1]
	if st.Pressure == 0 || st.Pressure != st.Checkpoints {
		t.Fatalf("pressure cuts %d of %d checkpoints, want all of them (the tick never fired)", st.Pressure, st.Checkpoints)
	}
	var metrics bytes.Buffer
	if err := obs.WritePrometheusAll(&metrics, job.Registries()...); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		obs.MetricCkptPressure + `{pe="1"} ` + strconv.FormatUint(st.Pressure, 10),
		obs.MetricTransportUnackedBytes + `{dir="export",pe="0",peer="1",stream="0"}`,
	} {
		if !strings.Contains(metrics.String(), series) {
			t.Errorf("/metrics lacks %q", series)
		}
	}
	sts := job.Statuses()
	if sts[1].Checkpoint == nil || sts[1].Checkpoint.PressureCuts != st.Pressure {
		t.Errorf("/statusz pe1 checkpoint = %+v, want %d pressure cuts", sts[1].Checkpoint, st.Pressure)
	}
	var asked uint64
	for _, ev := range job.FlightRecorder().Events() {
		if ev.Kind != obs.EvPressureCut {
			continue
		}
		asked++
		if ev.PE != 1 || ev.A != 0 || ev.B < budget/pressureShare {
			t.Errorf("pressure-cut event %+v: want pe 1, stream 0, at least %d bytes", ev, budget/pressureShare)
		}
	}
	if asked < st.Pressure {
		t.Errorf("%d pressure-cut events for %d pressure cuts", asked, st.Pressure)
	}
}

// TestDefaultGatedWindowCarriesTheStream runs a checkpointed two-PE job on
// the default transport budget with the periodic tick effectively off, so
// only commit-on-pressure cuts can free the sender's window. The export's
// block log gets the gated default (16 MiB) and the import asks for a cut at
// half of it; ~40 MiB of 1 KiB tuples must then arrive exactly once through
// at least three pressure cuts, the window never holding more than the
// budget.
func TestDefaultGatedWindowCarriesTheStream(t *testing.T) {
	const n = 40_000
	g := graph.New()
	gen := spl.NewGenerator("src", 1024)
	gen.MaxTuples = n
	src := g.AddSource(gen, spl.NewCostVar(0))
	sink := newSeqSink()
	sid := g.AddOperator(sink, spl.NewCostVar(0))
	if err := g.Connect(src, 0, sid, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	job, err := Launch(g, Assignment{0, 1}, Options{
		DisableElasticity: true,
		Transport:         TransportConfig{BlockTimeout: time.Minute},
		Checkpoint:        CheckpointOptions{Enabled: true, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	exp := job.PEs[0].Plan.exports[0]
	const budget = 16 << 20
	if exp.log.budget != budget {
		t.Fatalf("export log budget %d, want the 16 MiB gated default", exp.log.budget)
	}
	if high := job.PEs[1].Plan.imports[0].pressHigh.Load(); high != budget/2 {
		t.Fatalf("import pressure mark %d, want 8 MiB", high)
	}
	if err := job.Start(context.Background()); err != nil {
		job.Stop()
		t.Fatal(err)
	}
	var peak int64
	deadline := time.Now().Add(60 * time.Second)
	for sink.count.Load() < n && time.Now().Before(deadline) {
		if w := exp.UnackedBytes(); w > peak {
			peak = w
		}
		time.Sleep(200 * time.Microsecond)
	}
	if got := sink.count.Load(); got < n {
		job.Stop()
		t.Fatalf("stream stalled at %d of %d tuples: pressure cuts did not free the window", got, n)
	}
	if !job.DrainAndStop(30 * time.Second) {
		t.Fatal("job did not drain")
	}
	if sink.dups != 0 || len(sink.seen) != n {
		t.Fatalf("%d distinct tuples and %d duplicates, want %d and 0", len(sink.seen), sink.dups, n)
	}
	ss := job.StreamStats()[0]
	if ss.BytesSent < 3*8<<20 {
		t.Fatalf("only %d wire bytes sent, want at least three pressure marks' worth", ss.BytesSent)
	}
	if peak <= 0 || peak > budget {
		t.Fatalf("window gauge peaked at %d bytes, want within (0, %d]", peak, budget)
	}
	st := job.CheckpointStats()[1]
	if st.Pressure < 3 || st.Pressure != st.Checkpoints {
		t.Fatalf("pressure cuts %d of %d checkpoints, want at least 3 and all of them", st.Pressure, st.Checkpoints)
	}
	t.Logf("%d wire bytes, %d pressure cuts, window peak %d bytes", ss.BytesSent, st.Pressure, peak)
}
