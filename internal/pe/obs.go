package pe

import (
	"fmt"
	"io"
	"strconv"

	"streamelastic/internal/core"
	"streamelastic/internal/monitor"
	"streamelastic/internal/obs"
)

// batchSnapshot bridges the tuples-per-sealed-frame histogram into the
// registry's snapshot shape. The sum is approximated by each bucket's
// midpoint (the histogram keeps no exact sum), which is accurate enough for
// a mean batch size.
func (x *exportOp) batchSnapshot() obs.HistSnapshot {
	buckets := make([]uint64, batchHistBuckets)
	var count uint64
	var sum float64
	for i := range x.batches {
		n := x.batches[i].Load()
		buckets[i] = n
		count += n
		sum += float64(n) * 1.5 * float64(uint64(1)<<i)
	}
	return obs.HistSnapshot{Buckets: buckets, Count: count, Sum: sum, Scale: 1}
}

// registerExportMetrics registers (or rebinds) one export endpoint's series
// on r, labeled (stream, dir=export, peer). It uses the registry's Set*
// registrars so a re-created edge — a stream re-dialed to a replacement PE
// during migration — re-registers under the same labels without panicking
// or skipping: the series swap to the new endpoint's collectors.
func registerExportMetrics(r *obs.Registry, exp *exportOp, stream int, peer string) {
	l := []obs.Label{{Key: "stream", Value: strconv.Itoa(stream)}, {Key: "dir", Value: "export"}, {Key: "peer", Value: peer}}
	r.SetCounterFunc(obs.MetricTransportTuples, "Tuples carried by the stream endpoint.", exp.Sent, l...)
	r.SetCounterFunc(obs.MetricTransportFrames, "Wire frames sealed (one per batch).", exp.WireFrames, l...)
	r.SetCounterFunc(obs.MetricTransportBytes, "Wire bytes through the stream endpoint.", exp.BytesSent, l...)
	r.SetCounterFunc(obs.MetricTransportDropped, "Tuples the export could not take.", exp.Dropped, l...)
	r.SetCounterFunc(obs.MetricTransportFlushes, "Explicit writer flush syscalls.", exp.Flushes, l...)
	r.SetCounterFunc(obs.MetricTransportRetransmits, "Frame writes beyond the first (resume traffic).", exp.Retransmits, l...)
	r.SetCounterFunc(obs.MetricTransportReconnects, "Successful re-attaches after a lost connection.", exp.Reconnects, l...)
	r.SetGaugeFunc(obs.MetricTransportUnacked, "Appended tuples never acknowledged, set at close.",
		func() float64 { return float64(exp.Unacked()) }, l...)
	r.SetGaugeFunc(obs.MetricTransportUnackedBytes, "Block memory the export's log holds for replay (the retransmit window in bytes).",
		func() float64 { return float64(exp.UnackedBytes()) }, l...)
	r.SetHistogramFunc(obs.MetricTransportDrainSize, "Tuples per sealed wire frame.",
		exp.batchSnapshot, l...)
}

// registerImportMetrics is registerExportMetrics' receiving-side twin.
func registerImportMetrics(r *obs.Registry, imp *importSource, stream int, peer string) {
	l := []obs.Label{{Key: "stream", Value: strconv.Itoa(stream)}, {Key: "dir", Value: "import"}, {Key: "peer", Value: peer}}
	r.SetCounterFunc(obs.MetricTransportTuples, "Tuples carried by the stream endpoint.", imp.Received, l...)
	r.SetCounterFunc(obs.MetricTransportFrames, "Wire frames decoded (one per batch).", imp.FramesReceived, l...)
	r.SetCounterFunc(obs.MetricTransportBytes, "Wire bytes through the stream endpoint.", imp.BytesReceived, l...)
	r.SetCounterFunc(obs.MetricTransportDups, "Retransmitted tuples dropped by sequence dedup.", imp.DupsDropped, l...)
	r.SetCounterFunc(obs.MetricTransportResumes, "Connections re-accepted after the first.", imp.Resumes, l...)
}

// RegisterMetrics registers (or rebinds) the export's transport series on r
// under (stream, dir=export, peer=peerPE) labels; peerPE must be numeric
// because /statusz parses it back into a PE index.
func (e *Export) RegisterMetrics(r *obs.Registry, stream, peerPE int) {
	registerExportMetrics(r, e.x, stream, strconv.Itoa(peerPE))
}

// RegisterMetrics registers (or rebinds) the import's transport series on r
// under (stream, dir=import, peer=peerPE) labels.
func (im *Import) RegisterMetrics(r *obs.Registry, stream, peerPE int) {
	registerImportMetrics(r, im.s, stream, strconv.Itoa(peerPE))
}

// registerTransportMetrics registers every cross-PE stream endpoint's
// counters on its owning PE's registry, labeled (stream, dir, peer) so
// /metrics and BuildStatus can group them back into per-stream rows.
func registerTransportMetrics(regs []*obs.Registry, plans []*Plan, crosses []CrossEdge) {
	for _, ce := range crosses {
		sender := plans[ce.FromPE]
		for j, end := range sender.Exports {
			if end.Stream != ce.Stream {
				continue
			}
			registerExportMetrics(regs[ce.FromPE], sender.exports[j], ce.Stream, strconv.Itoa(ce.ToPE))
		}
		receiver := plans[ce.ToPE]
		for j, end := range receiver.Imports {
			if end.Stream != ce.Stream {
				continue
			}
			registerImportMetrics(regs[ce.ToPE], receiver.imports[j], ce.Stream, strconv.Itoa(ce.FromPE))
		}
	}
}

// registerWatchdogMetrics surfaces a PE watchdog's verdict and trip counters
// on the PE's registry.
func registerWatchdogMetrics(r *obs.Registry, wd *monitor.Watchdog) {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	r.GaugeFunc(obs.MetricWatchdogHealthy, "1 while every health probe passes.",
		func() float64 { return b2f(wd.Healthy()) })
	r.GaugeFunc(obs.MetricWatchdogFrozen, "1 while the watchdog holds adaptation frozen.",
		func() float64 { return b2f(wd.Frozen()) })
	r.CounterFunc(obs.MetricWatchdogTrips, "Watchdog trips (healthy to unhealthy transitions).",
		func() uint64 { return wd.Status().Trips })
	r.CounterFunc(obs.MetricWatchdogRecovers, "Watchdog recoveries (unhealthy to healthy transitions).",
		func() uint64 { return wd.Status().Recovers })
}

// Registries returns every PE's telemetry registry, in PE order. Feed them
// to monitor.ObservabilityHandler (or obs.WritePrometheusAll) for a merged
// /metrics exposition; series carry a pe="N" label.
func (j *Job) Registries() []*obs.Registry { return j.regs }

// FlightRecorder returns the job's shared flight recorder: one bounded ring
// over all PEs, events tagged with the PE that emitted them.
func (j *Job) FlightRecorder() *obs.FlightRecorder { return j.rec }

// DumpFlight writes a flight-recorder dump with a reason header to w —
// the on-demand counterpart of the automatic watchdog-trip dump.
func (j *Job) DumpFlight(w io.Writer, reason string) {
	j.dumpMu.Lock()
	defer j.dumpMu.Unlock()
	fmt.Fprintf(w, "=== flight-recorder dump (%s) ===\n", reason)
	_ = j.rec.DumpTo(w)
}

// dumpOnTrip writes the automatic dump to Options.FlightDump, serialized so
// two PEs tripping together interleave dumps, not lines.
func (j *Job) dumpOnTrip(reason string) {
	j.dumpMu.Lock()
	defer j.dumpMu.Unlock()
	if j.dump == nil {
		return
	}
	fmt.Fprintf(j.dump, "=== flight-recorder dump (%s) ===\n", reason)
	_ = j.rec.DumpTo(j.dump)
}

var _ monitor.Provider = (*Job)(nil)

// Statuses renders every PE's monitoring status from its telemetry
// registry, implementing monitor.Provider.
func (j *Job) Statuses() []monitor.Status {
	out := make([]monitor.Status, 0, len(j.PEs))
	for _, rt := range j.PEs {
		var h *monitor.WatchdogStatus
		if rt.Watchdog != nil {
			st := rt.Watchdog.Status()
			h = &st
		}
		out = append(out, monitor.BuildStatus(fmt.Sprintf("pe%d", rt.Plan.PE), rt.Reg, h))
	}
	return out
}

// AdaptationTrace returns the indexed PE's adaptation trace (nil when
// elasticity is disabled or the index is out of range), implementing
// monitor.Provider.
func (j *Job) AdaptationTrace(index int) []core.TraceEvent {
	if index < 0 || index >= len(j.PEs) {
		return nil
	}
	rt := j.PEs[index]
	if rt.Coord == nil {
		return nil
	}
	return rt.Coord.Trace()
}
