// Command benchmark is the repository's end-to-end benchmark: four workloads
// run from an in-process generator to a checking sink through the live
// runtime, reporting six user-visible metrics per run and, in a traced run,
// a per-layer table. README.md documents workloads, phases and metrics;
// BENCHMARK.json is the contract the driver reads.
//
//	benchmark -workload wire_small -seed 1 -seconds 24 -trace 0
//	benchmark -workload keyed_ckpt -seed 1 -seconds 24 -trace 1
//	benchmark -aa 5 -seconds 24
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// setupRepeats is how many times an untraced run sets the job up; setup_s
// is the median. One process start cannot be repeated, but everything after
// it can, and the median of three is what makes setup_s stable enough to
// gate.
const setupRepeats = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: wire_small, elastic_skew, keyed_ckpt or resize_bulk")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs (and of nothing else)")
		seconds = flag.Float64("seconds", 24, "measured seconds: half saturated, half paced")
		trace   = flag.Int("trace", 0, "1 runs the probes, an untraced and a traced job (half the seconds each) and prints the per-layer metrics")
		outDir  = flag.String("out", "benchmark/out", "directory for span files and per-job temporary files")
		aa      = flag.Int("aa", 0, "run two interleaved sets of N runs per workload and print medians, quartiles, gaps and derived bounds")
		wedge   = flag.Bool("wedge", false, "test only: add an operator that blocks forever, to exercise the watchdog")
	)
	flag.Parse()
	// The benchmark was defined on a 2-core box; pinning keeps its numbers
	// comparable on a larger one.
	runtime.GOMAXPROCS(2)

	if *aa > 0 {
		if err := runAA(*aa, *seconds, *seed, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(1)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		os.Exit(1)
	}
	fmt.Printf("workload=%s seed=%d seconds=%v trace=%d nproc=%d gomaxprocs=%d %s payload=%dB paced_rate=%v/s warmup=%d\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.payload, w.pacedRate, w.warmup)

	opts := runOpts{seed: *seed, seconds: *seconds, setups: setupRepeats, outDir: *outDir, wedge: *wedge}
	var (
		out report
		err error
	)
	if *trace == 0 {
		out, err = runUntraced(w, opts)
	} else {
		out, err = runTraced(w, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	out.print()
	if !out.Correct {
		os.Exit(1)
	}
}

// ungatedP99 prefixes the note with which an untraced run reports its p99
// latency; the A/A check reads it back.
const ungatedP99 = "latency_p99_ms="

// report is a run's verdict. Its JSON form is the last line of output, in
// the shape the driver reads.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	defs  []metricDef
	notes []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(defs []metricDef, values map[string]float64, rs ...*result) report {
	out := report{Correct: true, Metrics: make(map[string]metric), defs: defs}
	for _, d := range defs {
		out.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	for _, r := range rs {
		out.Attempted += r.attempted
		out.Failed += r.failed
		out.notes = append(out.notes, r.problems...)
		if r.failed > 0 || len(r.problems) > 0 {
			out.Correct = false
		}
	}
	return out
}

func (r report) print() {
	for _, d := range r.defs {
		fmt.Printf("%-32s %16.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func runUntraced(w *workload, o runOpts) (report, error) {
	r, err := runJob(w, o)
	if err != nil {
		return report{}, err
	}
	out := newReport(endToEnd, endToEndValues(r), r)
	out.notes = append(out.notes, fmt.Sprintf("%s%g ms (reported, not gated)", ungatedP99, quantileNS(r.lat, 0.99)/1e6))
	out.notes = append(out.notes, fmt.Sprintf("latency from %d samples (1 tuple in %d); set-ups %.3v s; sat slices %.4v tuples/s", len(r.lat), latEvery, r.setups, r.sat.slices))
	return out, nil
}

// runTraced spends the run's seconds on two jobs of the same workload and
// seed: an untraced one for the counter rows and as the reference for the
// tracing overhead, then a traced one for the span rows.
func runTraced(w *workload, o runOpts) (report, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return report{}, err
	}
	tmp, err := os.MkdirTemp(o.outDir, "probe-")
	if err != nil {
		return report{}, err
	}
	probes, err := runProbes(w, genInputs(o.seed, w), tmp)
	_ = os.RemoveAll(tmp)
	if err != nil {
		return report{}, err
	}
	o.seconds /= 2
	o.setups = 1
	ref, err := runJob(w, o)
	if err != nil {
		return report{}, err
	}
	o.traced = true
	tr, err := runJob(w, o)
	if err != nil {
		return report{}, err
	}
	path, err := tr.tr.write(o.outDir, w.name)
	if err != nil {
		return report{}, err
	}
	values, notes := perLayerValues(ref, tr, probes)
	out := newReport(perLayer, values, ref, tr)
	out.notes = append(out.notes, notes...)
	names := make([]string, 0, len(tr.tr.stages))
	for _, st := range tr.tr.stages {
		names = append(names, fmt.Sprintf("%s=%.0f", st.name, ratio(float64(st.self.Load()), float64(st.tuples.Load()))))
	}
	out.notes = append(out.notes, fmt.Sprintf("spans written to %s; self ns/tuple by stage: %v", path, names))
	return out, nil
}
