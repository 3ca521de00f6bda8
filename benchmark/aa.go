package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// boundFloor is the least bound each end-to-end metric gets; boundCap is the
// most the contract allows. The driver refuses a benchmark whose ten-run
// spread exceeds a metric's bound, so a metric that spreads more than the cap
// on any workload cannot gate at all.
var boundFloor = map[string]float64{
	"setup_s": 0.10, "tuples_per_s": 0.05, "cpu_ns_per_tuple": 0.05,
	"latency_p50_ms": 0.10, "latency_p99_ms": 0.25, "peak_rss_mb": 0.10,
}

// aaMetrics is what the A/A check tabulates: the end-to-end metrics plus
// the p99 latency every untraced run prints, so the evidence that keeps it
// out of the gated set stays current.
var aaMetrics = append(append([]metricDef(nil), endToEnd...), metricDef{"latency_p99_ms", "ms", "lower"})

const boundCap = 0.25

// runAA is the A/A check: on the same binary, two interleaved sets of n
// untraced runs per workload (one process per run, a fresh seed each), then
// per workload and end-to-end metric each set's median and quartiles, the
// spread of all 2n values (interquartile range over median, which is what
// the driver holds against the bound), the relative gap between the two
// medians, and the bound the pair wants: max(floor, 2 x gap, 3 x spread). A
// metric's bound is the largest any workload wants, capped at boundCap.
func runAA(n int, seconds float64, seed int64, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ w, m string }
	sets := [2]map[key][]float64{{}, {}}
	start := time.Now()
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				s := seed + int64(2*i+set)
				cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(s, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-out", outDir)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w\n%s", w.name, s, err, out)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var rep report
				if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, s, err)
				}
				fmt.Printf("run set=%c %s seed=%d failed=%d/%d", 'A'+set, w.name, s, rep.Failed, rep.Attempted)
				for _, d := range aaMetrics {
					v := rep.Metrics[d.name].Value
					if _, gated := rep.Metrics[d.name]; !gated {
						v = ungated(lines)
					}
					sets[set][key{w.name, d.name}] = append(sets[set][key{w.name, d.name}], v)
					fmt.Printf(" %s=%.6g", d.name, v)
				}
				fmt.Println()
			}
		}
	}
	fmt.Printf("\n%d runs of %vs in %v, nproc=%d gomaxprocs=%d\n\n", 2*n*len(workloads), seconds, time.Since(start).Round(time.Second), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("%-13s %-17s %12s %12s %12s | %12s %12s %12s | %7s %7s %7s\n",
		"workload", "metric", "A.q1", "A.median", "A.q3", "B.q1", "B.median", "B.q3", "spread", "gap", "wants")
	want, widest := map[string]float64{}, map[string]float64{}
	for _, w := range workloads {
		for _, d := range aaMetrics {
			a, b := sets[0][key{w.name, d.name}], sets[1][key{w.name, d.name}]
			all := append(append([]float64(nil), a...), b...)
			q1, q3 := quartiles(all)
			spread := (q3 - q1) / median(all)
			gap := math.Abs(median(a)-median(b)) / median(a)
			need := math.Max(boundFloor[d.name], math.Max(2*gap, 3*spread))
			if d.name == "setup_s" { // the driver does not hold setup_s to its spread
				need, spread = math.Max(boundFloor[d.name], 2*gap), 0
			}
			want[d.name] = math.Max(want[d.name], need)
			widest[d.name] = math.Max(widest[d.name], spread)
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			fmt.Printf("%-13s %-17s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %7.4f %7.4f %7.4f\n",
				w.name, d.name, aq1, median(a), aq3, bq1, median(b), bq3, spread, gap, need)
		}
	}
	fmt.Printf("\nbound per metric = the largest any workload wants, rounded up to 0.01 and capped at %.2f:\n", boundCap)
	for _, d := range aaMetrics {
		b := math.Min(boundCap, math.Ceil(want[d.name]*100)/100)
		verdict := ""
		switch {
		case widest[d.name] > boundCap:
			verdict = fmt.Sprintf("  -- spreads %.2f on one workload: cannot gate, reported per layer as e2e.%s", widest[d.name], d.name)
		case want[d.name] > boundCap:
			verdict = fmt.Sprintf("  -- capped: wants %.2f, the widest spread %.2f is above a third of the bound", want[d.name], widest[d.name])
		}
		fmt.Printf("  %-17s %.2f%s\n", d.name, b, verdict)
	}
	return nil
}

// ungated finds the p99 latency note among a run's output lines.
func ungated(lines [][]byte) float64 {
	for _, l := range lines {
		if rest, ok := bytes.CutPrefix(l, []byte("note: "+ungatedP99)); ok {
			v, _ := strconv.ParseFloat(string(bytes.Fields(rest)[0]), 64) // 0 shows up as a zero row
			return v
		}
	}
	return 0
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// driver uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}
