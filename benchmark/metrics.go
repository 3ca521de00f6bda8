package main

import (
	"fmt"
	"math"

	"streamelastic/internal/obs"
)

// metricDef is one row of the benchmark's metric tables. BENCHMARK.json
// repeats name, unit and direction (and, for end-to-end metrics, the bound);
// a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// The end-to-end metrics, the same on every workload. latency_p99_ms was to
// be the sixth; AA_SEED.txt shows why it cannot gate (on elastic_skew it
// follows whichever configuration the controllers settled on and moves 4x
// between runs of the same code), so by the issue's own rule it is reported
// per layer, as e2e.latency_p99_ms, and printed by untraced runs as a note.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"tuples_per_s", "tuples/s", "higher"},
	{"cpu_ns_per_tuple", "ns", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// The per-layer metrics, grouped by the module they measure. README.md says
// how each is taken and which end-to-end metric it should move.
var perLayer = []metricDef{
	{"e2e.latency_p99_ms", "ms", "lower"},

	{"gen.ns_per_tuple", "ns", "lower"},
	{"sink.ns_per_tuple", "ns", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"sink.max_gap_ms", "ms", "lower"},

	{"spl.pool_ns_per_tuple", "ns", "lower"},
	{"spl.clone_ns_per_tuple", "ns", "lower"},
	{"spl.allocs_per_tuple", "count", "lower"},
	{"spl.gc_pause_ms", "ms", "lower"},

	{"queue.mpmc_ns_per_tuple", "ns", "lower"},
	{"queue.deque_ns_per_tuple", "ns", "lower"},
	{"queue.wait_p50_us", "us", "lower"},
	{"queue.wait_p99_us", "us", "lower"},
	{"queue.depth_mean", "count", "lower"},

	{"exec.region_ns_per_tuple", "ns", "lower"},
	{"exec.fused_share", "ratio", "higher"},
	{"exec.steals_per_ktuple", "count", "lower"},
	{"exec.parks_per_s", "1/s", "lower"},
	{"exec.overflow_share", "ratio", "lower"},
	{"exec.op_exec_p50_us", "us", "lower"},
	{"exec.ckpt_cuts", "count", "higher"},
	{"exec.ckpt_skipped", "count", "lower"},
	{"exec.ckpt_errors", "count", "lower"},
	{"exec.ckpt_bytes_last", "bytes", "lower"},

	{"core.settle_s", "s", "lower"},
	{"core.steps_to_settle", "count", "lower"},
	{"core.tm_runs", "count", "lower"},
	{"core.tm_runs_skipped", "count", "higher"},
	{"core.threads_final", "count", "lower"},
	{"core.queues_final", "count", "lower"},
	{"core.settled_tuples_per_s", "tuples/s", "higher"},
	{"core.step_us", "us", "lower"},

	{"sim.step_us", "us", "lower"},
	{"sim.pred_over_meas", "ratio", "lower"},

	{"pe.wire_bytes_per_tuple", "bytes", "lower"},
	{"pe.tuples_per_frame", "count", "higher"},
	{"pe.frames_per_flush", "count", "higher"},
	{"pe.flushes_per_s", "1/s", "lower"},
	{"pe.edge_transit_p50_us", "us", "lower"},
	{"pe.edge_transit_p99_us", "us", "lower"},
	{"pe.edge_cpu_ns_per_tuple", "ns", "lower"},
	{"pe.unacked_mean", "count", "lower"},
	{"pe.retransmit_share", "ratio", "lower"},
	{"pe.dups_dropped_share", "ratio", "lower"},
	{"pe.reconnects", "count", "lower"},
	{"pe.dropped_share", "ratio", "lower"},

	{"state.update_ns_per_tuple", "ns", "lower"},
	{"state.cut_ns_per_dirty_key", "ns", "lower"},
	{"state.filelog_commit_ms", "ms", "lower"},
	{"state.keys_live", "count", "lower"},

	{"cluster.settle_grow_ms", "ms", "lower"},
	{"cluster.settle_shrink_ms", "ms", "lower"},
	{"cluster.dip_ratio", "ratio", "higher"},
	{"cluster.migrations", "count", "higher"},
	{"cluster.aborted", "count", "lower"},
	{"cluster.replayed_per_migration", "count", "lower"},

	{"obs.observe_ns", "ns", "lower"},
	{"obs.scrape_ms", "ms", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"budget.unattributed_share", "ratio", "lower"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// crossings is the number of scheduler-queue crossings during the window:
// pushes onto a worker's own deque, overflows and injections into the shared
// queues.
func (w *window) crossings() float64 {
	return delta(w.before, w.after, obs.MetricSchedLocalPushes) +
		delta(w.before, w.after, obs.MetricSchedOverflows) +
		delta(w.before, w.after, obs.MetricSchedInjected)
}

func cpuPerTuple(r *result) float64 { return ratio(r.sat.cpuNS, float64(r.sat.delivered)) }

// endToEndValues computes the user-visible numbers of an untraced run.
func endToEndValues(r *result) map[string]float64 {
	return map[string]float64{
		"setup_s":          median(r.setups),
		"tuples_per_s":     median(r.sat.slices),
		"cpu_ns_per_tuple": cpuPerTuple(r),
		"latency_p50_ms":   quantileNS(r.lat, 0.50) / 1e6,
		"peak_rss_mb":      peakRSSMB(),
	}
}

// perLayerValues computes the layer table from the two jobs of a traced
// process: ref, run untraced, supplies every counter row, so that tracing
// does not colour them; tr, the same workload and seed run traced, supplies
// the rows only spans can give; probes supplies the isolated-loop rows.
func perLayerValues(ref, tr *result, probes map[string]float64) (map[string]float64, []string) {
	var notes []string
	v := make(map[string]float64)
	for k, x := range probes {
		v[k] = x
	}
	delete(v, "flop_ns")

	s := &ref.sat
	d := float64(s.delivered)
	dl := func(key string) float64 { return delta(s.before, s.after, key) }
	td := float64(tr.sat.delivered)

	v["e2e.latency_p99_ms"] = quantileNS(ref.lat, 0.99) / 1e6
	v["gen.ns_per_tuple"] = ratio(tr.sat.genSelfNS, td)
	v["sink.ns_per_tuple"] = ratio(tr.sat.sinkSelfNS, td)
	v["gen.late_p99_ms"] = quantileNS(ref.late, 0.99) / 1e6
	if v["gen.late_p99_ms"] > 1 {
		notes = append(notes, fmt.Sprintf("the generator ran %.2f ms late at p99 (held up by backpressure, a pause barrier or a migration, or descheduled); latency counts from the due time, so it includes that wait", v["gen.late_p99_ms"]))
	}
	v["sink.max_gap_ms"] = ref.gapMS

	v["spl.allocs_per_tuple"] = ratio(float64(s.mallocs), d)
	v["spl.gc_pause_ms"] = float64(s.gcPauseNS) / 1e6

	v["queue.wait_p50_us"] = tr.final.qwait.Quantile(0.50) * 1e6
	v["queue.wait_p99_us"] = tr.final.qwait.Quantile(0.99) * 1e6
	v["queue.depth_mean"] = s.depthMean

	imported := dl(obs.MetricTransportTuples + "|import")
	crossings := s.crossings()
	v["exec.region_ns_per_tuple"] = ratio(tr.sat.stageSelfNS, td)
	v["exec.fused_share"] = ratio(dl(obs.MetricSchedFusedTuples), d+imported)
	v["exec.steals_per_ktuple"] = 1000 * ratio(dl(obs.MetricSchedSteals), d)
	v["exec.parks_per_s"] = ratio(dl(obs.MetricSchedParks), s.seconds)
	v["exec.overflow_share"] = ratio(dl(obs.MetricSchedOverflows), crossings)
	v["exec.op_exec_p50_us"] = tr.final.opExec.Quantile(0.50) * 1e6
	v["exec.ckpt_cuts"] = dl(obs.MetricCkptTotal)
	v["exec.ckpt_skipped"] = dl(obs.MetricCkptSkipped)
	v["exec.ckpt_errors"] = dl(obs.MetricCkptErrors)
	v["exec.ckpt_bytes_last"] = s.after.v[obs.MetricCkptLastBytes]

	v["core.settle_s"] = ref.settleS
	v["core.steps_to_settle"] = float64(ref.steps)
	v["core.tm_runs"] = float64(ref.tmRuns)
	v["core.tm_runs_skipped"] = float64(ref.tmSkipped)
	v["core.threads_final"] = float64(ref.threadsFinal)
	v["core.queues_final"] = float64(ref.queuesFinal)
	settled := median(s.slices[len(s.slices)/2:])
	v["core.settled_tuples_per_s"] = settled
	if ref.placement != nil {
		pred, err := simPredict(ref, probes["flop_ns"])
		if err != nil {
			notes = append(notes, "sim.pred_over_meas: "+err.Error())
		}
		v["sim.pred_over_meas"] = ratio(pred, settled)
		if x := v["sim.pred_over_meas"]; x < 0.5 || x > 2 {
			notes = append(notes, fmt.Sprintf("the simulated machine predicts %.2fx the measured settled throughput (outside 0.5-2)", x))
		}
	}

	sent, frames, flushes := dl(obs.MetricTransportTuples+"|export"), dl(obs.MetricTransportFrames+"|export"), dl(obs.MetricTransportFlushes+"|export")
	v["pe.wire_bytes_per_tuple"] = ratio(dl(obs.MetricTransportBytes+"|export"), sent)
	v["pe.tuples_per_frame"] = ratio(sent, frames)
	v["pe.frames_per_flush"] = ratio(frames, flushes)
	v["pe.flushes_per_s"] = ratio(flushes, s.seconds)
	hops := tr.tr.wireHops()
	v["pe.edge_transit_p50_us"] = quantileNS(hops, 0.50) / 1e3
	v["pe.edge_transit_p99_us"] = quantileNS(hops, 0.99) / 1e3
	attributed := v["gen.ns_per_tuple"] + v["exec.region_ns_per_tuple"] + v["sink.ns_per_tuple"]
	if sent > 0 {
		v["pe.edge_cpu_ns_per_tuple"] = cpuPerTuple(tr) - attributed
	}
	v["pe.unacked_mean"] = s.unackedMean
	v["pe.retransmit_share"] = ratio(dl(obs.MetricTransportRetransmits+"|export"), frames)
	v["pe.dups_dropped_share"] = ratio(dl(obs.MetricTransportDups+"|import"), imported)
	v["pe.reconnects"] = dl(obs.MetricTransportReconnects + "|export")
	v["pe.dropped_share"] = ratio(dl(obs.MetricTransportDropped+"|export"), d)

	v["state.keys_live"] = float64(ref.keysLive)

	v["cluster.settle_grow_ms"] = median(ref.grow)
	v["cluster.settle_shrink_ms"] = median(ref.shrink)
	v["cluster.dip_ratio"] = s.dipRatio
	v["cluster.migrations"] = float64(ref.cluster.MigrationsCompleted)
	v["cluster.aborted"] = float64(ref.cluster.MigrationsAborted)
	v["cluster.replayed_per_migration"] = ratio(float64(ref.cluster.ReplayedTuples), float64(ref.cluster.MigrationsCompleted))

	v["obs.scrape_ms"] = tr.scrapeMS
	v["trace.overhead_share"] = 1 - ratio(median(tr.sat.slices), median(s.slices))
	// What the rows above explain of a traced tuple's CPU: the generator,
	// the operators, the sink, and one clone plus one deque round trip per
	// scheduler-queue crossing. The rest -- on the multi-PE workloads that is
	// pe.edge_cpu_ns_per_tuple -- no outside-in row accounts for.
	explained := attributed + ratio(tr.sat.crossings(), td)*(probes["spl.clone_ns_per_tuple"]+probes["queue.deque_ns_per_tuple"])
	v["budget.unattributed_share"] = 1 - ratio(explained, cpuPerTuple(tr))

	for k, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			v[k] = 0
		}
	}
	return v, notes
}
