package streamelastic

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"streamelastic/internal/core"
	"streamelastic/internal/exec"
	"streamelastic/internal/metrics"
	"streamelastic/internal/monitor"
	"streamelastic/internal/obs"
)

// Elasticity controller types, re-exported.
type (
	// ElasticConfig tunes the elastic controllers (sensitivity threshold,
	// satisfaction factor, history, thread bounds).
	ElasticConfig = core.Config
	// TraceEvent is one adaptation-period observation.
	TraceEvent = core.TraceEvent
)

// DefaultElasticConfig returns the paper's operating point: SENS 0.05,
// satisfaction threshold 0.6, both settling-time optimizations enabled.
func DefaultElasticConfig() ElasticConfig {
	return core.DefaultConfig()
}

// RuntimeOptions configure a live runtime.
type RuntimeOptions struct {
	// MaxThreads caps the scheduler pool (default 64).
	MaxThreads int
	// AdaptPeriod is the observation window between elastic adjustments
	// (default 100ms).
	AdaptPeriod time.Duration
	// QueueCapacity is the per-queue capacity, a power of two (default
	// 1024).
	QueueCapacity int
	// Elastic tunes the controllers; zero value means
	// DefaultElasticConfig.
	Elastic ElasticConfig
	// DisableElasticity runs the topology without adaptation (all manual,
	// one scheduler thread) for baseline measurements.
	DisableElasticity bool
	// TrackLatency stamps source tuples with the wall clock and records
	// end-to-end latency; it overwrites the Time attribute, so leave it
	// off when operators carry application event times there.
	TrackLatency bool
	// WarmStart restores a previously captured configuration: the runtime
	// begins settled at the snapshot's placement and thread count and only
	// re-adapts on workload change. Capture snapshots with
	// Runtime.ConfigSnapshot.
	WarmStart *ConfigSnapshot
	// SampleEvery enables per-operator latency sampling: every Nth queued
	// delivery per emitting loop records queue wait and operator execution
	// time into the telemetry registry. 0 disables sampling; the disabled
	// hot path costs a single integer compare.
	SampleEvery int
}

// LatencySnapshot summarizes end-to-end tuple latency.
type LatencySnapshot = exec.LatencySnapshot

// ConfigSnapshot captures a converged elastic configuration for warm
// restarts (JSON-serializable).
type ConfigSnapshot = core.ConfigSnapshot

// Runtime executes a topology live on goroutines with multi-level
// elasticity adapting it in the background.
type Runtime struct {
	eng   *exec.Engine
	coord *core.Coordinator
	reg   *obs.Registry
	rec   *obs.FlightRecorder

	mu      sync.Mutex
	cancel  context.CancelFunc
	done    chan struct{}
	started bool
}

// NewRuntime validates the topology and prepares a live runtime.
func NewRuntime(t *Topology, opts RuntimeOptions) (*Runtime, error) {
	g, err := t.freeze()
	if err != nil {
		return nil, err
	}
	rec := obs.NewFlightRecorder(obs.DefaultFlightRecorderSize)
	eng, err := exec.New(g, exec.Options{
		MaxThreads:    opts.MaxThreads,
		QueueCapacity: opts.QueueCapacity,
		AdaptPeriod:   opts.AdaptPeriod,
		TrackLatency:  opts.TrackLatency,
		SampleEvery:   opts.SampleEvery,
		Recorder:      rec,
	})
	if err != nil {
		return nil, err
	}
	r := &Runtime{eng: eng, reg: eng.Registry(), rec: rec}
	obs.RegisterSettled(r.reg, r.Settled)
	if !opts.DisableElasticity {
		cfg := opts.Elastic
		if cfg == (ElasticConfig{}) {
			cfg = DefaultElasticConfig()
		}
		var coord *core.Coordinator
		if opts.WarmStart != nil {
			coord, err = core.NewCoordinatorFrom(eng, cfg, *opts.WarmStart)
		} else {
			coord, err = core.NewCoordinator(eng, cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("streamelastic: %w", err)
		}
		coord.SetObserver(func(ev core.TraceEvent) {
			detail := string(ev.Phase)
			if ev.Note != "" {
				detail += ": " + ev.Note
			}
			rec.Record(obs.EvAdapt, 0, int64(ev.Threads), int64(ev.Queues), detail)
		})
		r.coord = coord
	}
	return r, nil
}

// ConfigSnapshot captures the current elastic configuration for a later
// warm start. Returns nil when elasticity is disabled.
func (r *Runtime) ConfigSnapshot() *ConfigSnapshot {
	if r.coord == nil {
		return nil
	}
	s := r.coord.ConfigSnapshot()
	return &s
}

// DrainAndStop gracefully shuts the runtime down: sources stop emitting,
// in-flight tuples complete (bounded by timeout), then everything stops.
// It reports whether the pipeline fully drained.
func (r *Runtime) DrainAndStop(timeout time.Duration) bool {
	r.mu.Lock()
	cancel, done := r.cancel, r.done
	r.cancel, r.done = nil, nil
	r.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
	return r.eng.DrainAndStop(timeout)
}

// Start launches the sources, the scheduler pool, the profiler, and (unless
// elasticity is disabled) the adaptation loop. Call Stop to shut down.
func (r *Runtime) Start(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return errors.New("streamelastic: runtime already started")
	}
	r.started = true
	if err := r.eng.Start(ctx); err != nil {
		return err
	}
	if r.coord != nil {
		actx, cancel := context.WithCancel(ctx)
		done := make(chan struct{})
		r.cancel = cancel
		r.done = done
		go func() {
			defer close(done)
			// Run returns when the context is cancelled; engine errors
			// surface through the trace.
			_ = r.coord.Run(actx)
		}()
	}
	return nil
}

// Stop terminates the adaptation loop and all engine goroutines, waiting
// for them to exit. Safe to call more than once.
func (r *Runtime) Stop() {
	r.mu.Lock()
	cancel, done := r.cancel, r.done
	r.cancel, r.done = nil, nil
	r.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
	r.eng.Stop()
}

// SinkCount returns the total number of tuples delivered to sink operators.
func (r *Runtime) SinkCount() uint64 { return r.eng.SinkCount() }

// Latency returns the end-to-end latency summary; all zeros unless
// RuntimeOptions.TrackLatency was set.
func (r *Runtime) Latency() LatencySnapshot { return r.eng.Latency() }

// OperatorPanics returns how many operator invocations panicked (each is
// contained to the tuple being processed).
func (r *Runtime) OperatorPanics() uint64 { return r.eng.OperatorPanics() }

// Threads returns the current scheduler-thread count.
func (r *Runtime) Threads() int { return r.eng.ThreadCount() }

// Queues returns the current number of scheduler queues.
func (r *Runtime) Queues() int { return r.eng.Queues() }

// Placement returns the current threading-model choice per operator (true
// means dynamic).
func (r *Runtime) Placement() []bool { return r.eng.Placement() }

// SchedStats returns the work-stealing scheduler's cumulative counters.
func (r *Runtime) SchedStats() metrics.SchedSnapshot { return r.eng.SchedStats() }

// Settled reports whether adaptation has converged.
func (r *Runtime) Settled() bool {
	if r.coord == nil {
		return true
	}
	return r.coord.Settled()
}

// Trace returns the adaptation trace recorded so far.
func (r *Runtime) Trace() []TraceEvent {
	if r.coord == nil {
		return nil
	}
	return r.coord.Trace()
}

// runtimeProvider adapts a Runtime to the monitoring API.
type runtimeProvider struct{ r *Runtime }

func (p runtimeProvider) Statuses() []monitor.Status {
	return []monitor.Status{monitor.BuildStatus("runtime", p.r.reg, nil)}
}

func (p runtimeProvider) AdaptationTrace(index int) []core.TraceEvent {
	if index != 0 {
		return nil
	}
	return p.r.Trace()
}

// MetricsHandler returns an http.Handler serving the runtime's full
// observability surface: GET /statusz for configuration and counters,
// GET /tracez for the adaptation trace, GET /metrics for Prometheus text,
// GET /flightz for a flight-recorder dump, GET /tracez.json for a Chrome
// trace_event export, and /debug/pprof. Mount it on any mux or server.
func (r *Runtime) MetricsHandler() http.Handler {
	return monitor.ObservabilityHandler(runtimeProvider{r: r}, []*obs.Registry{r.reg}, r.rec)
}

// Registry returns the runtime's telemetry registry, for registering
// application metrics or scraping programmatically.
func (r *Runtime) Registry() *obs.Registry { return r.reg }

// FlightRecorder returns the runtime's flight recorder; Record application
// events into it to interleave them with the engine's.
func (r *Runtime) FlightRecorder() *obs.FlightRecorder { return r.rec }
