package pe

import (
	"context"
	"fmt"
	"io"
	"net"
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
	// Recorder is the job's flight recorder; nil means Launch creates one of
	// obs.DefaultFlightRecorderSize. All PEs share it, each tagging its
	// events with its PE id.
	Recorder *obs.FlightRecorder
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
	// Eng is the PE's live engine.
	Eng *exec.Engine
	// Coord is the PE's elastic coordinator (nil when disabled).
	Coord *core.Coordinator
	// Watchdog is the PE's health monitor (nil unless enabled).
	Watchdog *monitor.Watchdog
	// Reg is the PE's telemetry registry (const label pe="N"); every engine,
	// transport, and watchdog series lives here.
	Reg *obs.Registry
	// Ckpt is the PE's checkpoint coordinator (nil unless enabled).
	Ckpt *exec.Checkpointer

	cancel context.CancelFunc
	done   chan struct{}
}

// Job is a launched multi-PE deployment: each PE runs its own engine and
// adapts independently; cross-PE streams run over TCP.
type Job struct {
	PEs []*PERuntime

	crosses []CrossEdge
	conns   []net.Conn // both ends per stream, for shutdown

	// regs holds one telemetry registry per PE; rec is the shared flight
	// recorder; dump (guarded by dumpMu) receives automatic trip dumps.
	regs   []*obs.Registry
	rec    *obs.FlightRecorder
	dumpMu sync.Mutex
	dump   io.Writer

	mu      sync.Mutex
	started bool
	stopped bool
}

// Launch partitions the job graph per assign, wires every cross-PE stream
// over loopback TCP, and constructs one engine (plus coordinator) per PE.
// Call Start to begin execution and Stop to shut down.
func Launch(g *graph.Graph, assign Assignment, opts Options) (*Job, error) {
	if opts.DialTimeout == 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.Checkpoint.Enabled && opts.Transport.RetransmitBytes == 0 {
		// With acks gated at the checkpoint floor the window holds a whole
		// commit interval's traffic, not a round trip's: default it larger.
		opts.Transport.RetransmitBytes = gatedRetransmitBytes
	}
	plans, crosses, err := Partition(g, assign)
	if err != nil {
		return nil, err
	}
	rec := opts.Recorder
	if rec == nil {
		rec = obs.NewFlightRecorder(obs.DefaultFlightRecorderSize)
	}
	regs := make([]*obs.Registry, len(plans))
	for i := range regs {
		regs[i] = obs.NewRegistry(obs.Label{Key: "pe", Value: strconv.Itoa(i)})
	}
	job := &Job{crosses: crosses, regs: regs, rec: rec, dump: opts.FlightDump}
	if opts.Fault != nil {
		opts.Fault.SetObserver(func(ev fault.Event) {
			rec.Record(obs.EvFault, -1, int64(ev.Site), int64(ev.N), ev.Point.String())
		})
	}

	// Wire streams: one listener per cross edge on the receiving side, and
	// the sending side dials.
	listeners := make([]net.Listener, len(crosses))
	defer func() {
		for _, l := range listeners {
			if l != nil {
				_ = l.Close()
			}
		}
	}()
	for i := range crosses {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			job.closeConns()
			return nil, fmt.Errorf("pe: listen stream %d: %w", i, err)
		}
		listeners[i] = l
	}
	abort := func() {
		closeEndpoints(plans)
		job.closeConns()
	}
	for i, ce := range crosses {
		acceptCh := acceptOne(listeners[i])
		addr := listeners[i].Addr().String()
		sendConn, err := dialStream(addr, opts.DialTimeout)
		if err != nil {
			abort()
			return nil, fmt.Errorf("pe: dial stream %d: %w", i, err)
		}
		acc := <-acceptCh
		if acc.err != nil {
			_ = sendConn.Close()
			abort()
			return nil, fmt.Errorf("pe: accept stream %d: %w", i, acc.err)
		}
		job.conns = append(job.conns, sendConn, acc.conn)

		// Attach the endpoints to the matching stubs. The import adopts the
		// listener (it re-accepts the export's redials after a connection
		// death), so the deferred cleanup must not close it.
		sender := plans[ce.FromPE]
		for j, end := range sender.Exports {
			if end.Stream == ce.Stream {
				sender.exports[j].cfg = opts.Transport.withDefaults()
				sender.exports[j].inj = opts.Fault
				sender.exports[j].site = ce.Stream
				sender.exports[j].rec = rec
				sender.exports[j].recPE = int32(ce.FromPE)
				sender.exports[j].connect(sendConn, addr)
			}
		}
		receiver := plans[ce.ToPE]
		for j, end := range receiver.Imports {
			if end.Stream == ce.Stream {
				receiver.imports[j].rec = rec
				receiver.imports[j].recPE = int32(ce.ToPE)
				receiver.imports[j].site = ce.Stream
				receiver.imports[j].connect(acc.conn, listeners[i])
				listeners[i] = nil // adopted by the import
			}
		}
	}
	registerTransportMetrics(regs, plans, crosses)

	for _, plan := range plans {
		rt, err := NewPERuntime(plan, regs[plan.PE], rec, opts, job.dumpOnTrip)
		if err != nil {
			abort()
			return nil, err
		}
		job.PEs = append(job.PEs, rt)
	}
	return job, nil
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
func wireCheckpointer(rt *PERuntime, plan *Plan, opts Options) error {
	var store state.Store
	if opts.Checkpoint.Dir != "" {
		log, err := state.OpenFileLog(filepath.Join(opts.Checkpoint.Dir, fmt.Sprintf("pe%d.ckpt", plan.PE)))
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

// closeEndpoints shuts down every stream endpoint wired so far; used when a
// launch fails partway, so no writer goroutine is left redialing a dead
// peer.
func closeEndpoints(plans []*Plan) {
	for _, plan := range plans {
		for _, exp := range plan.exports {
			exp.close()
		}
		for _, imp := range plan.imports {
			imp.close()
		}
	}
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

// Stop shuts the job down: adaptation loops first, then the streams (which
// unblocks import readers), then the engines. Safe to call more than once.
func (j *Job) Stop() {
	j.mu.Lock()
	if j.stopped {
		j.mu.Unlock()
		return
	}
	j.stopped = true
	j.mu.Unlock()

	// Watchdogs first: stopping one thaws its coordinator, and the
	// shutdown below would otherwise look like one giant stall.
	for _, rt := range j.PEs {
		if rt.Watchdog != nil {
			rt.Watchdog.Stop()
		}
	}
	for _, rt := range j.PEs {
		if rt.cancel != nil {
			rt.cancel()
			<-rt.done
		}
	}
	// Checkpointers before the streams close: a recovery in flight may be
	// rewinding an import and needs the transport still wired.
	for _, rt := range j.PEs {
		if rt.Ckpt != nil {
			rt.Ckpt.Stop()
		}
	}
	for _, rt := range j.PEs {
		for _, exp := range rt.Plan.exports {
			exp.close()
		}
		for _, imp := range rt.Plan.imports {
			imp.close()
		}
	}
	j.closeConns()
	for _, rt := range j.PEs {
		rt.Eng.Stop()
	}
}

func (j *Job) closeConns() {
	for _, c := range j.conns {
		_ = c.Close()
	}
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
	for _, rt := range j.PEs {
		rt.Eng.Drain()
	}
	deadline := time.Now().Add(timeout)
	drained := false
	for time.Now().Before(deadline) {
		all := true
		for _, rt := range j.PEs {
			if !rt.Eng.WaitIdle(10 * time.Millisecond) {
				all = false
				break
			}
		}
		if all {
			// Idle twice in a row with a settle gap: tuples may still be
			// in flight on a TCP stream between PEs.
			time.Sleep(20 * time.Millisecond)
			again := true
			for _, rt := range j.PEs {
				if !rt.Eng.WaitIdle(10 * time.Millisecond) {
					again = false
					break
				}
			}
			if again {
				drained = true
				break
			}
		}
	}
	j.Stop()
	return drained
}
