package streamelastic

import (
	"context"
	"io"
	"net/http"
	"time"

	"streamelastic/internal/exec"
	"streamelastic/internal/metrics"
	"streamelastic/internal/monitor"
	"streamelastic/internal/obs"
	"streamelastic/internal/pe"
)

// JobOptions configure a multi-PE deployment.
type JobOptions struct {
	// MaxThreads caps each PE's scheduler pool (default 64).
	MaxThreads int
	// AdaptPeriod is each PE's observation window (default 100ms).
	AdaptPeriod time.Duration
	// Elastic tunes every PE's coordinator; zero value means
	// DefaultElasticConfig.
	Elastic ElasticConfig
	// DisableElasticity runs the PEs without adaptation.
	DisableElasticity bool
	// EnableWatchdog runs a health watchdog per PE: wedged scheduler queues
	// and disconnected or stalled streams freeze that PE's adaptation until
	// health returns.
	EnableWatchdog bool
	// PanicBudget enables operator supervision when > 0: an operator whose
	// recovered panics exhaust the budget is quarantined (input drops and
	// counts) for an exponentially growing timeout, then probed back in.
	PanicBudget int
	// SampleEvery enables per-operator latency sampling on every PE: every
	// Nth queued delivery per emitting loop records queue wait and operator
	// execution time. 0 disables sampling.
	SampleEvery int
	// FlightDump, when set, receives an automatic flight-recorder dump each
	// time a PE watchdog trips (requires EnableWatchdog).
	FlightDump io.Writer
}

// Job runs a topology split across several processing elements, each with
// its own engine and its own independent elastic coordinator; operators in
// different PEs communicate over TCP streams. This is the multi-host
// execution model of the paper's §2 ("all PEs in a job independently use
// the proposed work").
type Job struct {
	job *pe.Job
}

// NewJob validates the topology, splits it across numPEs processing
// elements (contiguously along the topological order), and wires the
// cross-PE streams. Call Start and Stop as with Runtime.
func NewJob(t *Topology, numPEs int, opts JobOptions) (*Job, error) {
	g, err := t.freeze()
	if err != nil {
		return nil, err
	}
	assign, err := pe.AssignContiguous(g, numPEs)
	if err != nil {
		return nil, err
	}
	job, err := pe.Launch(g, assign, pe.Options{
		Exec: exec.Options{
			MaxThreads:  opts.MaxThreads,
			AdaptPeriod: opts.AdaptPeriod,
			PanicBudget: opts.PanicBudget,
		},
		Elastic:           opts.Elastic,
		DisableElasticity: opts.DisableElasticity,
		EnableWatchdog:    opts.EnableWatchdog,
		SampleEvery:       opts.SampleEvery,
		FlightDump:        opts.FlightDump,
	})
	if err != nil {
		return nil, err
	}
	return &Job{job: job}, nil
}

// Start launches every PE.
func (j *Job) Start(ctx context.Context) error { return j.job.Start(ctx) }

// Stop shuts the whole job down; safe to call more than once.
func (j *Job) Stop() { j.job.Stop() }

// NumPEs returns the number of processing elements.
func (j *Job) NumPEs() int { return len(j.job.PEs) }

// NumStreams returns the number of cross-PE TCP streams.
func (j *Job) NumStreams() int { return len(j.job.Streams()) }

// PEStatus describes one processing element's current state.
type PEStatus struct {
	// PE is the element's index.
	PE int
	// Operators is the number of operators in the PE, including transport
	// stubs.
	Operators int
	// Threads and Queues are the PE's current elastic configuration.
	Threads int
	Queues  int
	// Settled reports whether the PE's adaptation has converged.
	Settled bool
	// SinkTuples counts tuples delivered to the PE's sinks (including
	// exports to downstream PEs).
	SinkTuples uint64
}

// Status returns every PE's current state.
func (j *Job) Status() []PEStatus {
	out := make([]PEStatus, 0, len(j.job.PEs))
	for _, rt := range j.job.PEs {
		st := PEStatus{
			PE:         rt.Plan.PE,
			Operators:  rt.Plan.Graph.NumNodes(),
			Threads:    rt.Eng.ThreadCount(),
			Queues:     rt.Eng.Queues(),
			Settled:    rt.Settled(),
			SinkTuples: rt.Eng.SinkCount(),
		}
		out = append(out, st)
	}
	return out
}

// StreamStats returns every cross-PE stream's transport counters (tuples
// and bytes on both ends, drops, flushes, writer batch sizes), in stream-id
// order. Safe to call while the job runs.
func (j *Job) StreamStats() []pe.StreamStats { return j.job.StreamStats() }

// Health returns every PE watchdog's status, in PE order; empty unless
// JobOptions.EnableWatchdog was set.
func (j *Job) Health() []monitor.WatchdogStatus { return j.job.Health() }

// SchedStats returns every PE engine's work-stealing scheduler counters, in
// PE order.
func (j *Job) SchedStats() []metrics.SchedSnapshot { return j.job.SchedStats() }

// Trace returns the adaptation trace of one PE (nil when elasticity is
// disabled or the index is out of range).
func (j *Job) Trace(peIndex int) []TraceEvent {
	if peIndex < 0 || peIndex >= len(j.job.PEs) {
		return nil
	}
	return j.job.PEs[peIndex].Trace()
}

// MetricsHandler returns an http.Handler serving every PE's state (see
// Runtime.MetricsHandler): /statusz, /tracez, /metrics merged over every
// PE's registry (series carry a pe="N" label when there are several PEs),
// /flightz, /tracez.json, and /debug/pprof.
func (j *Job) MetricsHandler() http.Handler { return monitor.ObservabilityHandler(j.job) }

// Registries returns every PE's telemetry registry, in PE order.
func (j *Job) Registries() []*obs.Registry { return j.job.Registries() }

// FlightRecorder returns the job's shared flight recorder.
func (j *Job) FlightRecorder() *obs.FlightRecorder { return j.job.FlightRecorder() }

// DumpFlight writes a flight-recorder dump with a reason header to w.
func (j *Job) DumpFlight(w io.Writer, reason string) { j.job.DumpFlight(w, reason) }
