package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamelastic/internal/spl"
)

// The smoke tests run every probe and every workload end to end, briefly.
// They assert correctness (exactly-once output, every metric present), never
// speed.

func smokeSeconds() float64 {
	if testing.Short() {
		return 1
	}
	return 2
}

func TestProbes(t *testing.T) {
	probeScale = 0.01
	defer func() { probeScale = 1 }()
	for _, w := range workloads {
		p, err := runProbes(w, genInputs(1, w), t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, name := range []string{
			"spl.pool_ns_per_tuple", "spl.clone_ns_per_tuple", "queue.mpmc_ns_per_tuple", "queue.deque_ns_per_tuple",
			"state.update_ns_per_tuple", "state.cut_ns_per_dirty_key", "state.filelog_commit_ms",
			"core.step_us", "sim.step_us", "obs.observe_ns", "flop_ns",
		} {
			if p[name] <= 0 {
				t.Errorf("%s: probe %s = %v, want > 0", w.name, name, p[name])
			}
		}
	}
}

func TestWorkloadsUntraced(t *testing.T) {
	for _, w := range workloads {
		rep, err := runUntraced(w, runOpts{seed: 1, seconds: smokeSeconds(), setups: 2, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d notes=%v", w.name, rep.Correct, rep.Failed, rep.Attempted, rep.notes)
		}
		for _, d := range endToEnd {
			if m, ok := rep.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: metric %s = %+v", w.name, d.name, m)
			}
		}
	}
}

func TestWorkloadsTraced(t *testing.T) {
	probeScale = 0.01
	defer func() { probeScale = 1 }()
	for _, w := range workloads {
		dir := t.TempDir()
		rep, err := runTraced(w, runOpts{seed: 2, seconds: 2 * smokeSeconds(), outDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d notes=%v", w.name, rep.Correct, rep.Failed, rep.notes)
		}
		for _, d := range perLayer {
			if _, ok := rep.Metrics[d.name]; !ok {
				t.Errorf("%s: metric %s missing", w.name, d.name)
			}
		}
		for _, name := range []string{"gen.ns_per_tuple", "sink.ns_per_tuple", "exec.region_ns_per_tuple"} {
			if rep.Metrics[name].Value <= 0 {
				t.Errorf("%s: traced row %s = %v, want > 0", w.name, name, rep.Metrics[name].Value)
			}
		}
		b, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []map[string]any
		if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s: span file has %d spans, err %v", w.name, len(spans), err)
		}
	}
}

// TestSeedChangesOnlyInputs pins the -seed contract: same seed, same ring;
// another seed, another ring.
func TestSeedChangesOnlyInputs(t *testing.T) {
	w := findWorkload("keyed_ckpt")
	a, b, c := genInputs(7, w), genInputs(7, w), genInputs(8, w)
	same := func(x, y *inputs) bool {
		return string(x.block[:4096]) == string(y.block[:4096]) && x.keys[12345] == y.keys[12345] && x.sums[999] == y.sums[999]
	}
	if !same(a, b) || same(a, c) {
		t.Fatal("inputs are not a function of the seed alone")
	}
}

// TestSinkCatchesFaults feeds the sink a stream with a lost tuple, a
// corrupted one and a duplicate; each must count as a failed operation.
func TestSinkCatchesFaults(t *testing.T) {
	w := findWorkload("wire_small")
	in := genInputs(1, w)
	src := newSource(in, 8, nil)
	snk := newSink(in, w, 16, nil)
	src.emitCount(32)
	n := 0
	feed := spl.EmitterFunc(func(_ int, tp *spl.Tuple) {
		switch n++; n {
		case 5:
			return // lost
		case 9:
			tp.Key++ // corrupted
		case 13:
			snk.Process(0, tp, nil) // delivered twice
		}
		snk.Process(0, tp, nil)
	})
	for i := 0; i < 4; i++ {
		src.Next(feed)
	}
	if got := snk.failures(src.emitted.Load()); got != 3 {
		t.Fatalf("sink reported %d failures (first: %q), want 3", got, snk.firstBad)
	}
	if !strings.Contains(snk.firstBad, "seq 5") {
		t.Errorf("first offending tuple reported as %q, want the gap at seq 5", snk.firstBad)
	}
}

func TestSeqSums(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 7, 1000} {
		var wantSum, wantSq uint64
		for i := uint64(0); i < n; i++ {
			wantSum += i
			wantSq += i * i
		}
		if sum, sq := seqSums(n); sum != wantSum || sq != wantSq {
			t.Errorf("seqSums(%d) = %d, %d; want %d, %d", n, sum, sq, wantSum, wantSq)
		}
	}
	// Past 64 bits the sums wrap; one more term must still add n and n*n.
	n := uint64(1) << 40
	s0, q0 := seqSums(n)
	s1, q1 := seqSums(n + 1)
	if s1-s0 != n || q1-q0 != n*n {
		t.Errorf("seqSums does not wrap modulo 2^64 at n = 2^40")
	}
}

// TestQuartiles pins the A/A report's quartiles to what Python's
// statistics.quantiles(v, n=4) returns for the same ten values.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}

// TestContract keeps BENCHMARK.json and the program's metric tables in step.
func TestContract(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) || len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d, %d",
			len(c.Workloads), len(c.EndToEnd), len(c.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, c.Workloads[i].Name, w.name)
		}
	}
	for i, d := range endToEnd {
		if got := c.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound <= 0 || got.Bound > boundCap {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the program", i, got, d)
		}
	}
	for i, d := range perLayer {
		if got := c.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the program", i, got, d)
		}
	}
}

// TestWatchdog runs a workload with a deliberately wedged operator in a
// child process: the run must exit 2 through the watchdog, not hang.
func TestWatchdog(t *testing.T) {
	if os.Getenv("BENCH_WEDGE_CHILD") == "1" {
		stallLimit = time.Second
		_, err := runJob(findWorkload("wire_small"), runOpts{seed: 1, seconds: 1, setups: 1, outDir: os.Getenv("BENCH_WEDGE_DIR"), wedge: true})
		t.Fatalf("wedged run returned (err %v) instead of dying", err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestWatchdog$")
	cmd.Env = append(os.Environ(), "BENCH_WEDGE_CHILD=1", "BENCH_WEDGE_DIR="+t.TempDir())
	var stderr strings.Builder
	cmd.Stderr = &stderr
	done := make(chan error, 1)
	go func() { done <- cmd.Run() }()
	select {
	case err := <-done:
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("wedged run ended with %v, want exit status 2\n%s", err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "watchdog: no tuple reached the sink") || !strings.Contains(stderr.String(), "goroutine") {
			t.Fatalf("watchdog exit without a reason and a goroutine dump:\n%s", stderr.String())
		}
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("wedged run hung past its deadline")
	}
}
