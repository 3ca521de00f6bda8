package exec

import (
	"fmt"
	"math"
	"time"

	"streamelastic/internal/graph"
	"streamelastic/internal/metrics"
	"streamelastic/internal/queue"
)

// This file implements the core.Engine control surface of the live engine.

// NumOperators implements core.Engine.
func (e *Engine) NumOperators() int { return e.g.NumNodes() }

// Placeable implements core.Engine: any non-source operator can take a
// scheduler queue.
func (e *Engine) Placeable() []bool {
	out := make([]bool, e.g.NumNodes())
	for i := range out {
		out[i] = !e.g.Node(graph.NodeID(i)).Source
	}
	return out
}

// CostMetric implements core.Engine, returning the sampling profiler's
// per-operator cost metric for the most recent observation window.
func (e *Engine) CostMetric() []float64 {
	return e.profiler.CostMetric()
}

// Placement implements core.Engine.
func (e *Engine) Placement() []bool {
	cfg := e.cfg.Load()
	out := make([]bool, len(cfg.placement))
	copy(out, cfg.placement)
	return out
}

// ApplyPlacement implements core.Engine: it pauses all dispatch loops at a
// tuple boundary, swaps in the new queue configuration (keeping queues, and
// their in-flight tuples, for operators that stay dynamic), drains the
// queues of operators reverting to manual by executing their tuples inline,
// and resumes.
func (e *Engine) ApplyPlacement(dynamic []bool) error {
	if len(dynamic) != e.g.NumNodes() {
		return fmt.Errorf("exec: placement length %d, want %d", len(dynamic), e.g.NumNodes())
	}
	e.reconfigMu.Lock()
	defer e.reconfigMu.Unlock()

	old := e.cfg.Load()
	cfg, err := e.buildConfig(dynamic, old)
	if err != nil {
		return err
	}

	e.pauseAll()
	e.cfg.Store(cfg)
	// Drain queues that no longer exist: their tuples are executed here,
	// inline, under the new configuration.
	em := e.newEmitter(e.reconfigTS)
	em.cfg = cfg
	for _, nid := range old.queueList {
		if cfg.queues[nid] != nil {
			continue
		}
		for {
			it, ok := old.queues[nid].TryPop()
			if !ok {
				break
			}
			e.execute(em, nid, it.port, it.t)
		}
	}
	e.resumeAll()
	return nil
}

// ThreadCount implements core.Engine, returning the scheduler pool size.
func (e *Engine) ThreadCount() int {
	e.reconfigMu.Lock()
	defer e.reconfigMu.Unlock()
	return len(e.workers)
}

// SetThreadCount implements core.Engine, growing or shrinking the scheduler
// pool online.
func (e *Engine) SetThreadCount(n int) error {
	if n < 1 || n > e.opts.MaxThreads {
		return fmt.Errorf("exec: thread count %d outside [1, %d]", n, e.opts.MaxThreads)
	}
	e.reconfigMu.Lock()
	defer e.reconfigMu.Unlock()
	e.setWorkersLocked(n)
	return nil
}

// setWorkersLocked resizes the pool; the caller holds reconfigMu. Worker
// slots (deque + counters) are keyed by worker id and never discarded, so a
// shrink-then-grow reuses them: counters stay cumulative and deques are
// allocated once.
func (e *Engine) setWorkersLocked(n int) {
	for len(e.workers) < n {
		id := len(e.workers)
		for len(e.allSlots) <= id {
			d, err := queue.NewWSDeque[ditem](localQueueCapacity)
			if err != nil {
				panic(err) // unreachable: the capacity is a power-of-two constant
			}
			e.allSlots = append(e.allSlots, &wslot{deq: d})
		}
		w := &worker{
			id:   id,
			quit: make(chan struct{}),
			slot: e.allSlots[id],
			rng:  uint64(id)*0x9E3779B97F4A7C15 | 1,
		}
		e.workers = append(e.workers, w)
		e.wg.Add(1)
		go e.workerLoop(w)
	}
	shrunk := false
	for len(e.workers) > n {
		w := e.workers[len(e.workers)-1]
		e.workers = e.workers[:len(e.workers)-1]
		close(w.quit)
		shrunk = true
	}
	// Publish the live-slot prefix for stealers and idle rescans. A stale
	// snapshot in a thief's hands is harmless: stealing from a retiring
	// worker's deque just races its owner's flush, and both conserve.
	live := make([]*wslot, len(e.workers))
	copy(live, e.allSlots[:len(e.workers)])
	e.slots.Store(&live)
	if shrunk {
		// Retiring workers may be idle-parked; wake them so they observe
		// their closed quit channel and exit.
		e.wakeAllIdle()
	}
}

// MaxThreads implements core.Engine.
func (e *Engine) MaxThreads() int { return e.opts.MaxThreads }

// Observe implements core.Engine: it resets the profiler window, lets the
// engine run for one adaptation period of wall-clock time, and returns the
// sink throughput over that period.
func (e *Engine) Observe() (float64, error) {
	e.profiler.ResetCounts()
	e.meter.Rate(time.Now()) // restart the rate window
	time.Sleep(e.opts.AdaptPeriod)
	return e.meter.Rate(time.Now()), nil
}

// Now implements core.Engine, returning wall-clock time since Start.
func (e *Engine) Now() time.Duration {
	e.mu.Lock()
	start := e.start
	e.mu.Unlock()
	if start.IsZero() {
		return 0
	}
	return time.Since(start)
}

// SinkCount returns the total number of tuples delivered to sink operators
// since Start.
func (e *Engine) SinkCount() uint64 { return e.meter.Total() }

// LatencySnapshot summarizes end-to-end (source emit to sink arrival)
// latency. The quantiles are upper bounds: the top of the log2 bucket that
// holds them.
type LatencySnapshot struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// Latency returns the end-to-end latency summary, read from the engine's
// latency histogram. It is all zeros unless Options.TrackLatency was set.
func (e *Engine) Latency() LatencySnapshot {
	s := e.latency.Snapshot()
	return LatencySnapshot{
		Count: s.Count,
		Mean:  fromSeconds(s.Mean()),
		P50:   fromSeconds(s.Quantile(0.50)),
		P95:   fromSeconds(s.Quantile(0.95)),
		P99:   fromSeconds(s.Quantile(0.99)),
	}
}

// fromSeconds converts a histogram value in seconds to a Duration,
// saturating where the top buckets pass the int64 range.
func fromSeconds(s float64) time.Duration {
	if s >= math.MaxInt64/1e9 {
		return math.MaxInt64
	}
	return time.Duration(math.Round(s * 1e9))
}

// OperatorPanics returns how many operator invocations panicked; each panic
// is contained to the tuple being processed.
func (e *Engine) OperatorPanics() uint64 { return e.opPanics.Load() }

// Queues returns the number of scheduler queues currently placed.
func (e *Engine) Queues() int {
	return len(e.cfg.Load().queueList)
}

// Drain stops the engine's (non-exempt) sources from emitting further
// tuples while everything else keeps running. Combine with WaitIdle and
// Stop, or use DrainAndStop.
func (e *Engine) Drain() {
	e.drain.Store(true)
}

// DrainAndStop gracefully shuts the engine down: sources stop emitting,
// in-flight tuples are processed to completion (bounded by timeout), and
// all goroutines exit. It reports whether the pipeline fully drained.
func (e *Engine) DrainAndStop(timeout time.Duration) bool {
	e.Drain()
	ok := e.WaitIdle(timeout)
	e.Stop()
	return ok
}

// WaitIdle blocks until all scheduler queues are empty and sources have
// finished, or the timeout elapses; it reports whether the engine became
// idle. Tests use it to assert tuple conservation with bounded sources.
func (e *Engine) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if e.idle() {
			// Double-check after a short settle to avoid racing a tuple
			// that is mid-flight between queues.
			time.Sleep(5 * time.Millisecond)
			if e.idle() {
				return true
			}
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

func (e *Engine) idle() bool {
	cfg := e.cfg.Load()
	for _, nid := range cfg.queueList {
		if cfg.queues[nid].Len() > 0 {
			return false
		}
	}
	for _, s := range *e.slots.Load() {
		if !s.deq.Empty() {
			return false
		}
	}
	return true
}

// QueueStats summarizes the scheduler queues' instantaneous state.
type QueueStats struct {
	// Queues is the number of scheduler queues.
	Queues int
	// TotalDepth is the sum of queued tuples across all shared queues and
	// worker-local deques: everything still waiting to execute, which is
	// what stall detection cares about.
	TotalDepth int
	// MaxDepth is the deepest single shared queue.
	MaxDepth int
	// LocalDepth is the portion of TotalDepth sitting in worker deques.
	LocalDepth int
}

// QueueStats returns instantaneous queue depths, for monitoring and
// backpressure diagnosis.
func (e *Engine) QueueStats() QueueStats {
	cfg := e.cfg.Load()
	st := QueueStats{Queues: len(cfg.queueList)}
	for _, nid := range cfg.queueList {
		d := cfg.queues[nid].Len()
		st.TotalDepth += d
		if d > st.MaxDepth {
			st.MaxDepth = d
		}
	}
	for _, s := range *e.slots.Load() {
		d := s.deq.Len()
		st.LocalDepth += d
		st.TotalDepth += d
	}
	return st
}

// SchedStats returns the work-stealing scheduler's cumulative counters,
// summed across every worker slot (live and retired), source loop, and the
// reconfiguration/external emitter group.
func (e *Engine) SchedStats() metrics.SchedSnapshot {
	e.reconfigMu.Lock()
	slots := make([]*wslot, len(e.allSlots))
	copy(slots, e.allSlots)
	e.reconfigMu.Unlock()
	sum := e.extStats.Snapshot()
	for _, s := range slots {
		snap := s.stats.Snapshot()
		sum.Merge(snap)
	}
	for i := range e.srcStats {
		sum.Merge(e.srcStats[i].Snapshot())
	}
	return sum
}

// SchedCounts reports the headline scheduler counters; it exists so
// internal/core can observe scheduler behaviour through a structural
// interface without importing this package.
func (e *Engine) SchedCounts() (local, steals, overflows, injected uint64) {
	s := e.SchedStats()
	return s.LocalPushes, s.Steals, s.Overflows, s.Injected
}
