package monitor

import (
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"

	"streamelastic/internal/core"
	"streamelastic/internal/metrics"
	"streamelastic/internal/obs"
)

// BuildStatus renders one engine's Status from its telemetry registry — the
// single source of truth behind /statusz. Every field the JSON carries is
// derived from a registered metric, so /statusz and /metrics can never
// disagree. health is the PE's watchdog verdict (nil when no watchdog runs).
func BuildStatus(name string, reg *obs.Registry, health *WatchdogStatus) Status {
	st := Status{Name: name}
	if health != nil {
		h := *health
		st.Health = &h
	}
	if reg == nil {
		return st
	}
	var sched metrics.SchedSnapshot
	sawSched := false
	ckpt := func() *CheckpointStatus {
		if st.Checkpoint == nil {
			st.Checkpoint = &CheckpointStatus{}
		}
		return st.Checkpoint
	}
	streams := make(map[streamKey]*StreamStatus)
	for _, s := range reg.Gather() {
		switch s.Name {
		case obs.MetricOperators:
			st.Operators = int(s.Value)
		case obs.MetricThreads:
			st.Threads = int(s.Value)
		case obs.MetricQueues:
			st.Queues = int(s.Value)
		case obs.MetricUptime:
			st.UptimeSecs = s.Value
		case obs.MetricSettled:
			st.Settled = s.Value != 0
		case obs.MetricSinkTuples:
			st.SinkTuples = s.U
		case obs.MetricPanics:
			st.OperatorPanics = s.U
		case obs.MetricSupActive:
			st.Quarantined = int(s.Value)
		case obs.MetricLatency:
			if s.Hist != nil {
				st.Latency = LatencyMS{
					Count: s.Hist.Count,
					Mean:  s.Hist.Mean() * 1e3,
					P50:   s.Hist.Quantile(0.50) * 1e3,
					P95:   s.Hist.Quantile(0.95) * 1e3,
					P99:   s.Hist.Quantile(0.99) * 1e3,
				}
			}
		case obs.MetricSchedLocalPushes:
			sched.LocalPushes, sawSched = s.U, true
		case obs.MetricSchedLocalPops:
			sched.LocalPops, sawSched = s.U, true
		case obs.MetricSchedSteals:
			sched.Steals, sawSched = s.U, true
		case obs.MetricSchedStolenTuples:
			sched.StolenTuples, sawSched = s.U, true
		case obs.MetricSchedOverflows:
			sched.Overflows, sawSched = s.U, true
		case obs.MetricSchedInjected:
			sched.Injected, sawSched = s.U, true
		case obs.MetricSchedParks:
			sched.Parks, sawSched = s.U, true
		case obs.MetricSchedWakes:
			sched.Wakes, sawSched = s.U, true
		case obs.MetricCkptTotal:
			ckpt().Checkpoints = s.U
		case obs.MetricCkptErrors:
			ckpt().Errors = s.U
		case obs.MetricCkptSkipped:
			ckpt().Skipped = s.U
		case obs.MetricCkptPressure:
			ckpt().PressureCuts = s.U
		case obs.MetricCkptRestores:
			ckpt().Restores = s.U
		case obs.MetricCkptLastBytes:
			ckpt().LastCkptBytes = uint64(s.Value)
		case obs.MetricCkptWatermark:
			ckpt().Watermark = uint64(s.Value)
		case obs.MetricCkptEpoch:
			ckpt().Epoch = uint64(s.Value)
		case obs.MetricTransportTuples:
			streamFor(streams, s).Tuples = s.U
		case obs.MetricTransportFrames:
			streamFor(streams, s).WireFrames = s.U
		case obs.MetricTransportBytes:
			streamFor(streams, s).Bytes = s.U
		case obs.MetricTransportDropped:
			streamFor(streams, s).Dropped = s.U
		case obs.MetricTransportFlushes:
			streamFor(streams, s).Flushes = s.U
		case obs.MetricTransportRetransmits:
			streamFor(streams, s).Retransmits = s.U
		case obs.MetricTransportReconnects:
			streamFor(streams, s).Reconnects = s.U
		case obs.MetricTransportUnacked:
			streamFor(streams, s).Unacked = uint64(s.Value)
		case obs.MetricTransportUnackedBytes:
			streamFor(streams, s).UnackedBytes = uint64(s.Value)
		case obs.MetricTransportDups:
			streamFor(streams, s).DupsDropped = s.U
		case obs.MetricTransportResumes:
			streamFor(streams, s).Resumes = s.U
		case obs.MetricTransportDrainSize:
			if s.Hist != nil && s.Hist.Count > 0 {
				streamFor(streams, s).DrainSizes = trimBuckets(s.Hist.Buckets)
			}
		}
	}
	if sawSched {
		st.Sched = &sched
	}
	if len(streams) > 0 {
		out := make([]StreamStatus, 0, len(streams))
		for _, ss := range streams {
			out = append(out, *ss)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Stream != out[j].Stream {
				return out[i].Stream < out[j].Stream
			}
			return out[i].Dir < out[j].Dir
		})
		st.Streams = out
	}
	return st
}

type streamKey struct {
	stream int
	dir    string
	peer   int
}

// streamFor groups transport samples by their (stream, dir, peer) labels.
func streamFor(m map[streamKey]*StreamStatus, s obs.Sample) *StreamStatus {
	var k streamKey
	for _, l := range s.Labels {
		switch l.Key {
		case "stream":
			k.stream, _ = strconv.Atoi(l.Value)
		case "dir":
			k.dir = l.Value
		case "peer":
			k.peer, _ = strconv.Atoi(l.Value)
		}
	}
	ss := m[k]
	if ss == nil {
		ss = &StreamStatus{Stream: k.stream, Dir: k.dir, Peer: k.peer}
		m[k] = ss
	}
	return ss
}

// trimBuckets drops the trailing run of empty buckets, returning nil for an
// all-zero histogram — the shape /statusz always used for batch sizes.
func trimBuckets(buckets []uint64) []uint64 {
	last := -1
	for i, b := range buckets {
		if b != 0 {
			last = i
		}
	}
	if last < 0 {
		return nil
	}
	out := make([]uint64, last+1)
	copy(out, buckets[:last+1])
	return out
}

// ObservabilityHandler serves the full observability surface:
//
//	GET /statusz               -> []Status (from the telemetry registries)
//	GET /tracez?pe=N           -> adaptation trace of engine N as JSON rows
//	GET /tracez.json?pe=N      -> the same trace as Chrome trace_event JSON
//	GET /sasoz?pe=N            -> SASO analysis of engine N's trace
//	GET /metrics               -> Prometheus text exposition over p.Registries()
//	GET /flightz               -> flight-recorder dump (404 without a recorder)
//	GET /debug/pprof/...       -> net/http/pprof profiles
//
// Each scrape re-reads the provider's registries and recorder, so a
// cluster's rows follow its fleet as it grows and shrinks.
func ObservabilityHandler(p Provider) http.Handler {
	mux := http.NewServeMux()
	mountStatus(mux, p)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = obs.WritePrometheusAll(w, p.Registries()...)
	})
	mux.HandleFunc("/flightz", func(w http.ResponseWriter, r *http.Request) {
		fr := p.FlightRecorder()
		if fr == nil {
			http.Error(w, "no flight recorder", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = fr.DumpTo(w)
	})
	mux.HandleFunc("/tracez.json", func(w http.ResponseWriter, r *http.Request) {
		idx, ok := peIndex(w, r)
		if !ok {
			return
		}
		tr := p.AdaptationTrace(idx)
		if tr == nil {
			http.Error(w, "no trace for that engine", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = core.WriteChromeTrace(w, tr)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
