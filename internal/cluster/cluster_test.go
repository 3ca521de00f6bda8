package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamelastic/internal/core"
	"streamelastic/internal/exec"
	"streamelastic/internal/fault"
	"streamelastic/internal/graph"
	"streamelastic/internal/monitor"
	"streamelastic/internal/obs"
	"streamelastic/internal/pe"
	"streamelastic/internal/spl"
)

// recSink collects (seq -> key, count) keyed by sequence, so the
// exactly-once comparison is order-insensitive (the aggregate stream's
// content is deterministic; its interleaving across a migration is not).
type recSink struct {
	mu    sync.Mutex
	recs  map[uint64][2]uint64
	dups  atomic.Uint64
	count atomic.Uint64
}

func newRecSink() *recSink { return &recSink{recs: make(map[uint64][2]uint64)} }

func (s *recSink) Name() string { return "recsink" }

func (s *recSink) RecyclesTuples() {}

func (s *recSink) Process(_ int, t *spl.Tuple, _ spl.Emitter) {
	rec := [2]uint64{t.Key, uint64(t.Num1)}
	s.mu.Lock()
	if _, ok := s.recs[t.Seq]; ok {
		s.dups.Add(1)
	} else {
		s.recs[t.Seq] = rec
		s.count.Add(1)
	}
	s.mu.Unlock()
}

// output renders the collected records in sequence order as bytes — the
// byte-identity artifact for run-to-run comparison.
func (s *recSink) output() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	seqs := make([]uint64, 0, len(s.recs))
	for seq := range s.recs {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	out := make([]byte, 0, len(seqs)*24)
	var rec [24]byte
	for _, seq := range seqs {
		r := s.recs[seq]
		binary.LittleEndian.PutUint64(rec[0:], seq)
		binary.LittleEndian.PutUint64(rec[8:], r[0])
		binary.LittleEndian.PutUint64(rec[16:], r[1])
		out = append(out, rec[:]...)
	}
	return out
}

// chainJob builds the 6-node linear pipeline the cluster tests scale:
// throttled generator -> work -> keyed counter (stateful, snapshot-carried
// across migrations) -> work -> work -> recording sink. Linear so every
// PE has at most one import, which (with a single engine thread) makes
// per-operator invocation order equal generator order — the property that
// keeps injected operator panics deterministic across runs.
func chainJob(t testing.TB, maxTuples uint64, rate float64) (*graph.Graph, *recSink) {
	t.Helper()
	g := graph.New()
	gen := spl.NewGenerator("src", 8)
	gen.MaxTuples = maxTuples
	gen.Keys = 16
	var root spl.Source = gen
	if rate > 0 {
		root = spl.NewThrottle(gen, rate)
	}
	src := g.AddSource(root, spl.NewCostVar(10))
	w1 := g.AddOperator(spl.NewWork("w1", spl.NewCostVar(40)), spl.NewCostVar(40))
	ctr := g.AddOperator(spl.NewKeyedCounter("ctr", 64, 1), spl.NewCostVar(60))
	w2 := g.AddOperator(spl.NewWork("w2", spl.NewCostVar(40)), spl.NewCostVar(40))
	w3 := g.AddOperator(spl.NewWork("w3", spl.NewCostVar(40)), spl.NewCostVar(40))
	sink := newRecSink()
	sid := g.AddOperator(sink, spl.NewCostVar(0))
	for _, e := range [][2]graph.NodeID{{src, w1}, {w1, ctr}, {ctr, w2}, {w2, w3}, {w3, sid}} {
		if err := g.Connect(e[0], 0, e[1], 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g, sink
}

// testPEOpts is the deterministic per-PE config: one engine thread, no
// elasticity (an all-manual placement, so invocation order = arrival order),
// blocking backpressure, a panic budget far above any armed fault plan so
// injected panics drop exactly the tuple being processed and never
// quarantine.
func testPEOpts(inj *fault.Injector) pe.Options {
	return pe.Options{
		DisableElasticity: true,
		Fault:             inj,
		Transport:         pe.TransportConfig{BlockTimeout: time.Minute},
		Exec: exec.Options{
			MaxThreads:  1,
			PanicBudget: 1000,
			PanicDecay:  time.Hour,
		},
	}
}

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitSinkCount waits until the sink stops growing at or beyond want.
func waitSinkCount(t *testing.T, sink *recSink, want uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	last, stagnant := uint64(0), 0
	for time.Now().Before(deadline) {
		n := sink.count.Load()
		if n >= want {
			return
		}
		if n == last {
			stagnant++
			if n > 0 && stagnant > 600 { // ~3s without progress
				return
			}
		} else {
			last, stagnant = n, 0
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func scrapeStatus(t *testing.T, url string) []monitor.Status {
	t.Helper()
	resp, err := http.Get(url + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []monitor.Status
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterGrowShrinkConservation scales a live stateful pipeline 2 -> 4
// -> 2 mid-stream, with no faults, across four region migrations. With a
// minute-long BlockTimeout nothing ever drops, so every generated sequence
// reaches the sink exactly once. A millisecond timeout may drop tuples on a
// full edge outside a freeze, so that case asserts only that nothing is
// duplicated and every migration completes: a frozen edge parks its
// producers whatever the timeout.
func TestClusterGrowShrinkConservation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		exact   bool
	}{
		{"block_1m", time.Minute, true},
		{"block_1ms", time.Millisecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const tuples = 60000
			g, sink := chainJob(t, tuples, 150000)
			opts := testPEOpts(fault.New(1))
			opts.Transport.BlockTimeout = tc.timeout
			m, err := New(g, Options{
				Spec: WidthSpec{Min: 2, Max: 4, Step: 1, Desired: 2},
				PE:   opts,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Start(context.Background()); err != nil {
				m.Stop()
				t.Fatal(err)
			}
			defer m.Stop()

			if got := m.Status().Allocated; got != 2 {
				t.Fatalf("initial allocation = %d, want 2", got)
			}
			if got := len(m.Registries()); got != 3 {
				t.Fatalf("registries = %d, want 3 (cluster + 2 members)", got)
			}

			m.SetDesired(4)
			waitFor(t, "grow to 4", 30*time.Second, func() bool {
				st := m.Status()
				return st.Allocated == 4 && st.Pending == ""
			})
			if got := len(m.Registries()); got != 5 {
				t.Fatalf("registries after grow = %d, want 5", got)
			}

			m.SetDesired(2)
			waitFor(t, "shrink to 2", 30*time.Second, func() bool {
				st := m.Status()
				return st.Allocated == 2 && st.Pending == ""
			})

			waitSinkCount(t, sink, tuples, 60*time.Second)
			if !m.DrainAndStop(30 * time.Second) {
				t.Fatal("fleet did not drain")
			}

			if d := sink.dups.Load(); d != 0 {
				t.Fatalf("sink saw %d duplicate sequences", d)
			}
			n := sink.count.Load()
			if tc.exact && n != tuples {
				t.Fatalf("sink saw %d unique sequences, want %d (exactly-once conservation)", n, tuples)
			}
			t.Logf("sink saw %d of %d sequences", n, tuples)
			st := m.Status()
			if st.MigrationsCompleted != 4 {
				t.Errorf("migrations completed = %d, want 4 (2 splits + 2 merges)", st.MigrationsCompleted)
			}
			if st.MigrationsAborted != 0 {
				t.Errorf("migrations aborted = %d, want 0", st.MigrationsAborted)
			}
			if st.Generation != 4 {
				t.Errorf("generation = %d, want 4", st.Generation)
			}
		})
	}
}

// TestClusterStatusz pins the /statusz surface: the synthetic cluster
// status leads with the width spec and migration ledger, members follow
// under their stable ids, and /metrics carries the cluster width series.
func TestClusterStatusz(t *testing.T) {
	g, sink := chainJob(t, 20000, 100000)
	m, err := New(g, Options{
		Spec: WidthSpec{Min: 2, Max: 4, Step: 2, Desired: 2},
		PE:   testPEOpts(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(context.Background()); err != nil {
		m.Stop()
		t.Fatal(err)
	}
	defer m.Stop()

	srv := httptest.NewServer(monitor.ObservabilityHandler(m))
	defer srv.Close()

	sts := scrapeStatus(t, srv.URL)
	if len(sts) != 3 {
		t.Fatalf("statusz rows = %d, want 3", len(sts))
	}
	cs := sts[0]
	if cs.Name != "cluster" || cs.Width == nil || cs.Migrations == nil {
		t.Fatalf("first status = %+v, want synthetic cluster row", cs)
	}
	if cs.Width.Min != 2 || cs.Width.Max != 4 || cs.Width.Step != 2 || cs.Width.Allocated != 2 {
		t.Fatalf("width = %+v", cs.Width)
	}
	if sts[1].Name != "pe0" || sts[2].Name != "pe1" {
		t.Fatalf("member names = %q, %q", sts[1].Name, sts[2].Name)
	}

	m.SetDesired(4)
	waitFor(t, "grow to 4", 30*time.Second, func() bool {
		st := m.Status()
		return st.Allocated == 4 && st.Pending == ""
	})
	sts = scrapeStatus(t, srv.URL)
	if got := sts[0].Width.Allocated; got != 4 {
		t.Fatalf("allocated after grow = %d, want 4", got)
	}
	if got := sts[0].Migrations.Completed; got != 2 {
		t.Fatalf("migrations on statusz = %d, want 2", got)
	}
	// New members surface under fresh stable ids, never reusing retired
	// ones; exactly one original survives the single split.
	names := map[string]bool{}
	for _, s := range sts[1:] {
		names[s.Name] = true
	}
	if len(names) != 4 {
		t.Fatalf("member rows = %d, want 4", len(names))
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<20)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	metrics := string(body[:n])
	for _, want := range []string{"cluster_width_allocated", "cluster_width_desired", "cluster_migrations_completed_total"} {
		if !contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	waitSinkCount(t, sink, 20000, 60*time.Second)
	m.DrainAndStop(30 * time.Second)
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestClusterOptionValidation pins the rejected configurations: the one PE
// option migration cannot take is checkpointing, whose ack gating breaks the
// seeded resume handshake, and the width spec must fit the graph.
func TestClusterOptionValidation(t *testing.T) {
	g, _ := chainJob(t, 10, 0)
	base := Options{Spec: WidthSpec{Min: 1, Max: 2}}

	bad := base
	bad.PE.Checkpoint.Enabled = true
	if _, err := New(g, bad); err == nil {
		t.Error("checkpointing accepted")
	}
	bad = base
	bad.PE.WarmStart = []core.ConfigSnapshot{{Placement: make([]bool, 5), Threads: 1}}
	if _, err := New(g, bad); err == nil {
		t.Error("non-empty WarmStart accepted")
	}
	bad = base
	bad.Spec = WidthSpec{Min: 2, Max: 100}
	if _, err := New(g, bad); err == nil {
		t.Error("width beyond node count accepted")
	}
}

// syncBuf is an io.Writer safe to read while a watchdog goroutine dumps
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

// TestClusterWatchdogTripDumps stalls the first member's export writer long
// enough to trip its watchdog and checks that the trip writes a
// flight-recorder dump to Options.PE.FlightDump, as a pe.Launch job's PEs
// do.
func TestClusterWatchdogTripDumps(t *testing.T) {
	g, _ := chainJob(t, 2_000_000, 100000) // effectively unbounded for this test's lifetime
	inj := fault.New(3)
	inj.Arm(fault.WriterStall, 0, fault.Plan{Nth: 200, Delay: 600 * time.Millisecond})
	dump := &syncBuf{}
	opts := testPEOpts(inj)
	opts.EnableWatchdog = true
	opts.Watchdog = monitor.WatchdogConfig{Interval: 10 * time.Millisecond, UnhealthyAfter: 2, HealthyAfter: 4}
	opts.StallAfter = 30 * time.Millisecond
	opts.FlightDump = dump
	m, err := New(g, Options{Spec: WidthSpec{Min: 2, Max: 2, Step: 1, Desired: 2}, PE: opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(context.Background()); err != nil {
		m.Stop()
		t.Fatal(err)
	}
	defer m.Stop()

	// The trip event is the dump's last line, written after the header: wait
	// for it, not for the header, or the poll can land between the two.
	waitFor(t, "a watchdog trip dump", 30*time.Second, func() bool {
		return strings.Contains(dump.String(), "watchdog-trip")
	})
	if text := dump.String(); !strings.Contains(text, "=== flight-recorder dump (watchdog trip pe0: ") {
		t.Fatalf("dump does not name the tripped member:\n%s", text)
	}
}

// TestClusterMemberIdentity grows a fleet with elasticity on and checks that
// every flight-recorder event recorded after the grow carries the stable id
// of a live member: the replacement PEs' coordinators and engines tag their
// events with their member ids (the ids on their registries and /statusz
// rows), never with their fleet positions.
func TestClusterMemberIdentity(t *testing.T) {
	g, _ := chainJob(t, 2_000_000, 50000) // effectively unbounded for this test's lifetime
	opts := testPEOpts(nil)
	opts.DisableElasticity = false
	opts.Exec.AdaptPeriod = 10 * time.Millisecond
	m, err := New(g, Options{Spec: WidthSpec{Min: 2, Max: 3, Step: 1, Desired: 2}, PE: opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(context.Background()); err != nil {
		m.Stop()
		t.Fatal(err)
	}
	defer m.Stop()

	m.SetDesired(3)
	waitFor(t, "grow to 3", 30*time.Second, func() bool {
		st := m.Status()
		return st.Allocated == 3 && st.Pending == ""
	})
	rec := m.FlightRecorder()
	after := rec.Len()
	live := map[int32]bool{}
	var fresh []int32
	for _, id := range m.Members() {
		live[int32(id)] = true
		if id >= 2 {
			fresh = append(fresh, int32(id))
		}
	}
	if len(fresh) != 2 {
		t.Fatalf("members after one split = %v, want two new ids", m.Members())
	}
	waitFor(t, "adaptation events from every new member", 20*time.Second, func() bool {
		seen := map[int32]bool{}
		for _, ev := range rec.Events() {
			if ev.Seq > after && ev.Kind == obs.EvAdapt {
				seen[ev.PE] = true
			}
		}
		return seen[fresh[0]] && seen[fresh[1]]
	})
	for _, ev := range rec.Events() {
		if ev.Seq > after && ev.PE >= 0 && !live[ev.PE] {
			t.Errorf("event %s (seq %d) tagged pe=%d, not a live member id %v", ev.Kind, ev.Seq, ev.PE, m.Members())
		}
	}
}
