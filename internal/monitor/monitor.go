// Package monitor exposes runtime state over HTTP for operations
// dashboards: current elastic configuration, throughput counters, latency
// percentiles and the adaptation trace, as JSON.
package monitor

import (
	"encoding/json"
	"net/http"

	"streamelastic/internal/core"
	"streamelastic/internal/metrics"
)

// Status is one engine's externally visible state.
type Status struct {
	Name       string    `json:"name"`
	Operators  int       `json:"operators"`
	Threads    int       `json:"threads"`
	Queues     int       `json:"queues"`
	Settled    bool      `json:"settled"`
	SinkTuples uint64    `json:"sinkTuples"`
	UptimeSecs float64   `json:"uptimeSecs"`
	Latency    LatencyMS `json:"latencyMs"`
	// OperatorPanics and Quarantined surface the supervision layer: total
	// recovered operator panics and how many operators are currently
	// quarantined (dropping input while they serve a panic timeout).
	OperatorPanics uint64 `json:"operatorPanics,omitempty"`
	Quarantined    int    `json:"quarantined,omitempty"`
	// Health is the PE's watchdog verdict; nil when no watchdog runs.
	Health *WatchdogStatus `json:"health,omitempty"`
	// Checkpoint is the PE's checkpoint coordinator state; nil when
	// checkpointing is disabled.
	Checkpoint *CheckpointStatus `json:"checkpoint,omitempty"`
	// Streams lists the PE's cross-PE stream endpoints' transport counters;
	// empty for single-PE runtimes.
	Streams []StreamStatus `json:"streams,omitempty"`
	// Sched is the engine's work-stealing scheduler counter snapshot; nil
	// for substrates without one.
	Sched *metrics.SchedSnapshot `json:"sched,omitempty"`
	// Width is the cluster job manager's fleet width; set only on the
	// synthetic cluster status, nil for per-PE statuses.
	Width *WidthStatus `json:"width,omitempty"`
	// Migrations is the cluster job manager's migration ledger; set only on
	// the synthetic cluster status.
	Migrations *MigrationStatus `json:"migrations,omitempty"`
}

// WidthStatus is a cluster's malleable width spec plus its current
// allocation, jobtree-style: desired may move anywhere in [min, max] along
// step-aligned increments; allocated follows it through migrations; pending
// names the transition in flight ("" when reconciled).
type WidthStatus struct {
	Min       int    `json:"min"`
	Max       int    `json:"max"`
	Step      int    `json:"step"`
	Desired   int    `json:"desired"`
	Allocated int    `json:"allocated"`
	Pending   string `json:"pending,omitempty"`
}

// MigrationStatus counts a cluster's region migrations and the replay
// traffic their resume handshakes caused.
type MigrationStatus struct {
	Started   uint64 `json:"started"`
	Completed uint64 `json:"completed"`
	Aborted   uint64 `json:"aborted,omitempty"`
	Replayed  uint64 `json:"replayedTuples,omitempty"`
}

// StreamStatus is one cross-PE stream endpoint's transport counters as seen
// from the PE that owns the endpoint.
type StreamStatus struct {
	// Stream is the cross-edge stream id; Dir is "export" or "import";
	// Peer is the PE at the other end.
	Stream int    `json:"stream"`
	Dir    string `json:"dir"`
	Peer   int    `json:"peer"`
	// Tuples and Bytes count traffic through the endpoint; WireFrames
	// counts wire frames (staged on an export, decoded on an import), so
	// Tuples/WireFrames is the batch amortization ratio and
	// WireFrames/Flushes the frames per flush.
	Tuples     uint64 `json:"tuples"`
	WireFrames uint64 `json:"wireFrames,omitempty"`
	Bytes      uint64 `json:"bytes"`
	// Dropped, Flushes, and DrainSizes are export-side only: tuples the
	// stream could not carry, explicit flush syscalls, and the histogram of
	// tuples per sealed wire frame (log2 buckets; ring pops on a local
	// edge).
	Dropped    uint64   `json:"dropped,omitempty"`
	Flushes    uint64   `json:"flushes,omitempty"`
	DrainSizes []uint64 `json:"drainSizes,omitempty"`
	// Recovery counters: Retransmits/Reconnects/Unacked are export-side
	// (resume traffic, re-attached connections, frames of unknown delivery
	// at close), as is UnackedBytes, the block memory the export's log holds
	// for replay right now; DupsDropped/Resumes are import-side (sequence
	// dedup, re-accepted connections).
	Retransmits  uint64 `json:"retransmits,omitempty"`
	Reconnects   uint64 `json:"reconnects,omitempty"`
	Unacked      uint64 `json:"unacked,omitempty"`
	UnackedBytes uint64 `json:"unackedBytes,omitempty"`
	DupsDropped  uint64 `json:"dupsDropped,omitempty"`
	Resumes      uint64 `json:"resumes,omitempty"`
}

// CheckpointStatus is one PE's checkpoint coordinator state: epochs
// committed (and how many of those the transport's replay window forced
// early), failures, cuts skipped while an operator was quarantined, restores
// performed, and the last committed epoch's size, watermark, and number.
type CheckpointStatus struct {
	Checkpoints   uint64 `json:"checkpoints"`
	PressureCuts  uint64 `json:"pressureCuts,omitempty"`
	Errors        uint64 `json:"errors,omitempty"`
	Skipped       uint64 `json:"skipped,omitempty"`
	Restores      uint64 `json:"restores,omitempty"`
	LastCkptBytes uint64 `json:"lastCkptBytes,omitempty"`
	Watermark     uint64 `json:"watermark,omitempty"`
	Epoch         uint64 `json:"epoch,omitempty"`
}

// LatencyMS renders a latency snapshot in milliseconds for JSON consumers.
type LatencyMS struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Provider supplies the state the handler serves. Implementations must be
// safe for concurrent use.
type Provider interface {
	// Statuses returns one Status per engine (a single-PE runtime returns
	// one; a job returns one per PE).
	Statuses() []Status
	// AdaptationTrace returns the trace of the indexed engine, or nil.
	AdaptationTrace(index int) []core.TraceEvent
}

// Handler serves the monitoring API:
//
//	GET /statusz          -> []Status
//	GET /tracez?pe=N      -> the adaptation trace of engine N (default 0)
//	GET /sasoz?pe=N       -> SASO analysis of engine N's trace
func Handler(p Provider) http.Handler {
	mux := http.NewServeMux()
	mountStatus(mux, p)
	return mux
}

// mountStatus registers the status/trace/SASO routes on mux; Handler and
// ObservabilityHandler share it.
func mountStatus(mux *http.ServeMux, p Provider) {
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, p.Statuses())
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		idx, ok := peIndex(w, r)
		if !ok {
			return
		}
		tr := p.AdaptationTrace(idx)
		if tr == nil {
			http.Error(w, "no trace for that engine", http.StatusNotFound)
			return
		}
		type event struct {
			TimeSecs   float64 `json:"timeSecs"`
			Throughput float64 `json:"throughput"`
			Threads    int     `json:"threads"`
			Queues     int     `json:"queues"`
			Phase      string  `json:"phase"`
			Note       string  `json:"note"`
		}
		out := make([]event, 0, len(tr))
		for _, e := range tr {
			out = append(out, event{
				TimeSecs:   e.Time.Seconds(),
				Throughput: e.Throughput,
				Threads:    e.Threads,
				Queues:     e.Queues,
				Phase:      string(e.Phase),
				Note:       e.Note,
			})
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/sasoz", func(w http.ResponseWriter, r *http.Request) {
		idx, ok := peIndex(w, r)
		if !ok {
			return
		}
		tr := p.AdaptationTrace(idx)
		if tr == nil {
			http.Error(w, "no trace for that engine", http.StatusNotFound)
			return
		}
		a := core.AnalyzeTrace(tr)
		writeJSON(w, map[string]any{
			"observations":      a.Observations,
			"settleTimeSecs":    a.SettleTime.Seconds(),
			"configChanges":     a.ConfigChanges,
			"oscillations":      a.Oscillations,
			"postSettleChanges": a.PostSettleChanges,
			"accuracy":          a.Accuracy(),
			"overshootThreads":  a.Overshoot(),
			"finalThroughput":   a.FinalThroughput,
			"peakThroughput":    a.PeakThroughput,
		})
	})
}

// peIndex parses the pe query parameter, writing an error response on
// failure.
func peIndex(w http.ResponseWriter, r *http.Request) (int, bool) {
	v := r.URL.Query().Get("pe")
	if v == "" {
		return 0, true
	}
	n := 0
	for _, c := range v {
		if c < '0' || c > '9' {
			http.Error(w, "invalid pe index", http.StatusBadRequest)
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are already written; nothing more to do.
		_ = err
	}
}
