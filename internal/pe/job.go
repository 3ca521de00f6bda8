package pe

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"streamelastic/internal/core"
	"streamelastic/internal/exec"
	"streamelastic/internal/fault"
	"streamelastic/internal/graph"
	"streamelastic/internal/metrics"
	"streamelastic/internal/monitor"
	"streamelastic/internal/obs"
	"streamelastic/internal/state"
)

// Options configure a job launch.
type Options struct {
	// Exec configures every PE's live engine.
	Exec exec.Options
	// Elastic configures every PE's coordinator; the zero value means
	// core.DefaultConfig. Each PE adapts independently, as in the paper.
	Elastic core.Config
	// DisableElasticity runs the PEs without adaptation.
	DisableElasticity bool
	// DialTimeout bounds stream wiring at launch (default 5s).
	DialTimeout time.Duration
	// Transport tunes every cross-PE stream (retransmit budget, full-edge
	// timeout, reconnect backoff); the zero value means defaults.
	Transport TransportConfig
	// Fault optionally injects deterministic faults into every PE's
	// operators and streams (chaos testing); nil means none. Operator sites
	// are fault.OpSite(pe, node); stream sites are the cross-edge stream id.
	Fault *fault.Injector
	// EnableWatchdog runs a health watchdog per PE that freezes the PE's
	// elastic coordinator while the PE looks unhealthy (wedged scheduler
	// queues, disconnected or stalled streams).
	EnableWatchdog bool
	// Watchdog tunes the watchdog cadence and hysteresis (zero = defaults).
	Watchdog monitor.WatchdogConfig
	// StallAfter is how long without progress the watchdog probes tolerate
	// before declaring a stall (default 1s).
	StallAfter time.Duration
	// WarmStart restores captured elastic configurations: entry i starts
	// PE i's coordinator settled at that snapshot (see
	// core.NewCoordinatorFrom). nil means a cold start; otherwise the length
	// must equal the PE count.
	WarmStart []core.ConfigSnapshot
	// FlightDump, when set, receives an automatic flight-recorder dump each
	// time a PE watchdog trips (requires EnableWatchdog).
	FlightDump io.Writer
	// SampleEvery forwards to exec.Options.SampleEvery: every Nth queued
	// delivery per emitting loop is latency-sampled; 0 disables sampling.
	SampleEvery int
	// Checkpoint enables periodic incremental snapshots of keyed operator
	// state per PE, with exactly-once stateful recovery (restore + replay)
	// when a quarantined operator is released. Off by default.
	Checkpoint CheckpointOptions
}

// CheckpointOptions configure per-PE state checkpointing.
type CheckpointOptions struct {
	// Enabled turns checkpointing on.
	Enabled bool
	// Dir is where each PE's checkpoint log lives (pe<N>.ckpt); empty
	// means an in-memory store (tests, simulation — no durability).
	Dir string
	// Interval between checkpoints (default 1s).
	Interval time.Duration
	// FullEvery forces a full snapshot every n-th checkpoint (default 16).
	FullEvery int
}

// PERuntime is one launched processing element.
type PERuntime struct {
	// Plan is the PE's slice of the job graph.
	Plan *Plan
	// ID is the PE's identity: the tag on its recorder events, its
	// /statusz name (pe<ID>), and the peer label its streams' far ends
	// carry. A launched job's PE i has ID i; a cluster member keeps its
	// stable member id while its fleet position (Plan.PE) moves.
	ID int
	// Eng is the PE's live engine.
	Eng *exec.Engine
	// Coord is the PE's elastic coordinator (nil when disabled).
	Coord *core.Coordinator
	// Watchdog is the PE's health monitor (nil unless enabled).
	Watchdog *monitor.Watchdog
	// Reg is the PE's telemetry registry (const label pe="N" when the job
	// has several PEs); every engine, transport, and watchdog series lives
	// here.
	Reg *obs.Registry
	// Ckpt is the PE's checkpoint coordinator (nil unless enabled).
	Ckpt *exec.Checkpointer

	cancel context.CancelFunc
	done   chan struct{}
}

// Job is a launched deployment of one or more PEs: each PE runs its own
// engine and adapts independently; cross-PE streams run over TCP.
type Job struct {
	PEs []*PERuntime

	fleet   *Fleet
	crosses []CrossEdge
	regs    []*obs.Registry // one per PE

	mu      sync.Mutex
	started bool
	stopped bool
}

// Launch partitions the job graph per assign, wires every cross-PE stream
// over loopback TCP, and constructs one engine (plus coordinator) per PE.
// An all-zero assignment launches a single engine with no streams. Call
// Start to begin execution and Stop to shut down.
func Launch(g *graph.Graph, assign Assignment, opts Options) (*Job, error) {
	plans, crosses, err := Partition(g, assign)
	if err != nil {
		return nil, err
	}
	if n := len(opts.WarmStart); n != 0 && n != len(plans) {
		return nil, fmt.Errorf("pe: %d warm-start snapshots for %d PEs", n, len(plans))
	}
	// A one-PE job is a plain engine: its series stay unlabelled.
	regs := make([]*obs.Registry, len(plans))
	for i := range regs {
		if len(plans) == 1 {
			regs[i] = obs.NewRegistry()
		} else {
			regs[i] = obs.NewRegistry(obs.Label{Key: "pe", Value: strconv.Itoa(i)})
		}
	}
	fleet := NewFleet(opts)
	rts, err := fleet.Build(plans, crosses, regs)
	if err != nil {
		return nil, err
	}
	return &Job{PEs: rts, fleet: fleet, crosses: crosses, regs: regs}, nil
}

// wireCheckpointer attaches a checkpoint coordinator to one PE: a durable
// file log (or in-memory store), and — when the PE has exactly one import —
// the transport hooks that make recovery exactly-once: the cut is
// stamped with the import's emit watermark, acks upstream are gated at the
// last committed cut so the sender's block log retains the replay range, the
// import asks for an early cut when half the log's byte budget has arrived
// past the last commit (so the budget never gates throughput), and recovery
// rewinds the import to the cut before readmitting tuples. A PE with
// several imports still checkpoints and restores, but recovery is
// restore-only: a single watermark cannot name a cut across several
// independent wire-sequence domains.
func wireCheckpointer(rt *PERuntime, opts Options) error {
	plan := rt.Plan
	var store state.Store
	if opts.Checkpoint.Dir != "" {
		log, err := state.OpenFileLog(filepath.Join(opts.Checkpoint.Dir, fmt.Sprintf("pe%d.ckpt", rt.ID)))
		if err != nil {
			return err
		}
		store = log
	} else {
		store = state.NewMemStore()
	}
	cfg := exec.CheckpointConfig{
		Store:     store,
		Interval:  opts.Checkpoint.Interval,
		FullEvery: opts.Checkpoint.FullEvery,
	}
	if len(plan.imports) == 1 {
		imp := plan.imports[0]
		imp.gateAcks()
		cfg.Watermark = imp.cutWatermark
		cfg.Rewind = imp.rewind
		cfg.CommitFloor = imp.advanceAckFloor
	}
	rt.Ckpt = exec.NewCheckpointer(rt.Eng, cfg)
	if len(plan.imports) == 1 {
		budget := opts.Transport.withDefaults().RetransmitBytes
		plan.imports[0].armPressure(uint64(budget/pressureShare), rt.Ckpt.RequestCut)
	}
	return rt.Ckpt.Restore()
}

// Start launches every PE's engine and adaptation loop.
func (j *Job) Start(ctx context.Context) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started {
		return fmt.Errorf("pe: job already started")
	}
	j.started = true
	for _, rt := range j.PEs {
		if err := rt.Start(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Stop shuts the job down (see StopAll for the order). Safe to call more
// than once.
func (j *Job) Stop() {
	j.mu.Lock()
	if j.stopped {
		j.mu.Unlock()
		return
	}
	j.stopped = true
	j.mu.Unlock()
	StopAll(j.PEs)
}

// Streams returns the job's cross-PE edges.
func (j *Job) Streams() []CrossEdge { return j.crosses }

// StreamStats returns every cross-PE stream's transport counters, send and
// receive side combined, in stream-id order. Safe to call while the job
// runs.
func (j *Job) StreamStats() []StreamStats {
	out := make([]StreamStats, 0, len(j.crosses))
	for _, ce := range j.crosses {
		st := StreamStats{Stream: ce.Stream, FromPE: ce.FromPE, ToPE: ce.ToPE}
		sender := j.PEs[ce.FromPE].Plan
		for i, end := range sender.Exports {
			if end.Stream == ce.Stream {
				exp := sender.exports[i]
				st.Sent = exp.Sent()
				st.WireFrames = exp.WireFrames()
				st.Dropped = exp.Dropped()
				st.BytesSent = exp.BytesSent()
				st.Flushes = exp.Flushes()
				st.DrainSizes = exp.batches.snapshot()
				st.Retransmits = exp.Retransmits()
				st.Reconnects = exp.Reconnects()
				st.Unacked = exp.Unacked()
			}
		}
		receiver := j.PEs[ce.ToPE].Plan
		for i, end := range receiver.Imports {
			if end.Stream == ce.Stream {
				imp := receiver.imports[i]
				st.Received = imp.Received()
				st.BytesReceived = imp.BytesReceived()
				st.FramesReceived = imp.FramesReceived()
				st.DupsDropped = imp.DupsDropped()
				st.Resumes = imp.Resumes()
			}
		}
		out = append(out, st)
	}
	return out
}

// SchedStats returns every PE engine's work-stealing scheduler counters, in
// PE order. Safe to call while the job runs.
func (j *Job) SchedStats() []metrics.SchedSnapshot {
	out := make([]metrics.SchedSnapshot, 0, len(j.PEs))
	for _, rt := range j.PEs {
		out = append(out, rt.Eng.SchedStats())
	}
	return out
}

// CheckpointStats returns every PE checkpointer's counters, in PE order;
// zero values when checkpointing is disabled. Safe to call while the job
// runs.
func (j *Job) CheckpointStats() []exec.CheckpointStats {
	out := make([]exec.CheckpointStats, 0, len(j.PEs))
	for _, rt := range j.PEs {
		if rt.Ckpt != nil {
			out = append(out, rt.Ckpt.Stats())
		} else {
			out = append(out, exec.CheckpointStats{})
		}
	}
	return out
}

// Health returns every PE watchdog's status, in PE order; empty when the
// job runs without watchdogs.
func (j *Job) Health() []monitor.WatchdogStatus {
	var out []monitor.WatchdogStatus
	for _, rt := range j.PEs {
		if rt.Watchdog != nil {
			out = append(out, rt.Watchdog.Status())
		}
	}
	return out
}

// DrainAndStop gracefully shuts the job down: real sources stop emitting,
// in-flight tuples flow through every PE and stream to completion (bounded
// by timeout), then everything stops. It reports whether all PEs fully
// drained.
func (j *Job) DrainAndStop(timeout time.Duration) bool {
	drained := DrainAll(j.PEs, timeout)
	j.Stop()
	return drained
}
