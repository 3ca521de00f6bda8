package pe

import (
	"context"
	"fmt"

	"streamelastic/internal/core"
	"streamelastic/internal/exec"
	"streamelastic/internal/fault"
	"streamelastic/internal/obs"
)

// NewPERuntime constructs one processing element from its plan: the engine,
// the optional elastic coordinator, watchdog, and checkpointer, all
// reporting into reg and rec. It is the per-PE half of Launch, exported so
// the cluster job manager can build replacement PEs while a job runs.
// dumpOnTrip (optional) receives a reason string each time the watchdog
// trips. Stream endpoints must be wired before the runtime starts.
func NewPERuntime(plan *Plan, reg *obs.Registry, rec *obs.FlightRecorder, opts Options, dumpOnTrip func(string)) (*PERuntime, error) {
	peID := int32(plan.PE)
	execOpts := opts.Exec
	execOpts.Obs = reg
	execOpts.Recorder = rec
	execOpts.ObsPE = plan.PE
	execOpts.SampleEvery = opts.SampleEvery
	if opts.Fault != nil {
		execOpts.Fault = opts.Fault
		execOpts.FaultSiteBase = fault.OpSite(plan.PE, 0)
	}
	eng, err := exec.New(plan.Graph, execOpts)
	if err != nil {
		return nil, fmt.Errorf("pe %d: %w", plan.PE, err)
	}
	rt := &PERuntime{Plan: plan, Eng: eng, Reg: reg}
	if !opts.DisableElasticity {
		cfg := opts.Elastic
		if cfg == (core.Config{}) {
			cfg = core.DefaultConfig()
		}
		var coord *core.Coordinator
		if len(opts.WarmStart) > 0 {
			coord, err = core.NewCoordinatorFrom(eng, cfg, opts.WarmStart[plan.PE])
		} else {
			coord, err = core.NewCoordinator(eng, cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("pe %d coordinator: %w", plan.PE, err)
		}
		coord.SetObserver(func(ev core.TraceEvent) {
			detail := string(ev.Phase)
			if ev.Note != "" {
				detail += ": " + ev.Note
			}
			rec.Record(obs.EvAdapt, peID, int64(ev.Threads), int64(ev.Queues), detail)
		})
		rt.Coord = coord
	}
	obs.RegisterSettled(rt.Reg, rt.Settled)
	if opts.EnableWatchdog {
		wcfg := opts.Watchdog
		userTrip, userRecover := wcfg.OnTrip, wcfg.OnRecover
		wcfg.OnTrip = func(cause string) {
			rec.Record(obs.EvWatchdogTrip, peID, 0, 0, cause)
			if dumpOnTrip != nil {
				dumpOnTrip(fmt.Sprintf("watchdog trip pe%d: %s", peID, cause))
			}
			if userTrip != nil {
				userTrip(cause)
			}
		}
		wcfg.OnRecover = func() {
			rec.Record(obs.EvWatchdogRecover, peID, 0, 0, "")
			if userRecover != nil {
				userRecover()
			}
		}
		rt.Watchdog = watchdogFor(rt, wcfg, opts.StallAfter)
		registerWatchdogMetrics(rt.Reg, rt.Watchdog)
	}
	if opts.Checkpoint.Enabled {
		if err := wireCheckpointer(rt, plan, opts); err != nil {
			return nil, fmt.Errorf("pe %d checkpoint: %w", plan.PE, err)
		}
	}
	return rt, nil
}

// Settled reports whether the PE's adaptation has converged; a PE without
// a coordinator is always settled.
func (rt *PERuntime) Settled() bool { return rt.Coord == nil || rt.Coord.Settled() }

// Trace returns the PE's adaptation trace (nil when elasticity is
// disabled).
func (rt *PERuntime) Trace() []core.TraceEvent {
	if rt.Coord == nil {
		return nil
	}
	return rt.Coord.Trace()
}

// Start launches the runtime: engine, coordinator loop, watchdog, and
// checkpointer, in that order.
func (rt *PERuntime) Start(ctx context.Context) error {
	if err := rt.Eng.Start(ctx); err != nil {
		return fmt.Errorf("pe %d start: %w", rt.Plan.PE, err)
	}
	if rt.Coord != nil {
		actx, cancel := context.WithCancel(ctx)
		done := make(chan struct{})
		rt.cancel = cancel
		rt.done = done
		coord := rt.Coord
		go func() {
			defer close(done)
			_ = coord.Run(actx)
		}()
	}
	if rt.Watchdog != nil {
		rt.Watchdog.Start()
	}
	if rt.Ckpt != nil {
		rt.Ckpt.Start()
	}
	return nil
}

// StopControl halts the runtime's control loops — watchdog first (so the
// shutdown is not mistaken for a stall), then the coordinator, then the
// checkpointer — leaving the engine running. The migration executor calls
// this before quiescing a retiring PE; Job.Stop orders the same phases
// across all PEs instead.
func (rt *PERuntime) StopControl() {
	if rt.Watchdog != nil {
		rt.Watchdog.Stop()
	}
	if rt.cancel != nil {
		rt.cancel()
		<-rt.done
		rt.cancel = nil
	}
	if rt.Ckpt != nil {
		rt.Ckpt.Stop()
		rt.Ckpt = nil
	}
}

// StopEngine stops the engine. Call after StopControl and after the plan's
// stream endpoints are closed (a live import reader would otherwise block
// on a parked operator thread).
func (rt *PERuntime) StopEngine() {
	rt.Eng.Stop()
}
