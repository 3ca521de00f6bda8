package pe

import (
	"context"
	"fmt"

	"streamelastic/internal/core"
	"streamelastic/internal/exec"
	"streamelastic/internal/fault"
	"streamelastic/internal/monitor"
	"streamelastic/internal/obs"
)

// NewPERuntime constructs one processing element from its plan: the engine,
// the optional elastic coordinator, watchdog, and checkpointer, all
// reporting into reg and the fleet's flight recorder under the PE's id. A
// watchdog trip dumps the recorder to Options.FlightDump when that is set.
// Stream endpoints must be wired before the runtime starts.
func (f *Fleet) NewPERuntime(plan *Plan, id int, reg *obs.Registry) (*PERuntime, error) {
	opts, rec, peID := f.opts, f.rec, int32(id)
	execOpts := opts.Exec
	execOpts.Obs = reg
	execOpts.Recorder = rec
	execOpts.ObsPE = id
	execOpts.SampleEvery = opts.SampleEvery
	if opts.Fault != nil {
		execOpts.Fault = opts.Fault
		// Operator fault sites stay keyed by fleet position, so a chaos
		// plan names the same site whatever id a PE carries.
		execOpts.FaultSiteBase = fault.OpSite(plan.PE, 0)
	}
	eng, err := exec.New(plan.Graph, execOpts)
	if err != nil {
		return nil, fmt.Errorf("pe %d: %w", id, err)
	}
	rt := &PERuntime{Plan: plan, ID: id, Eng: eng, Reg: reg}
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
			return nil, fmt.Errorf("pe %d coordinator: %w", id, err)
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
			if opts.FlightDump != nil {
				f.DumpFlight(opts.FlightDump, fmt.Sprintf("watchdog trip pe%d: %s", id, cause))
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
		if err := wireCheckpointer(rt, opts); err != nil {
			return nil, fmt.Errorf("pe %d checkpoint: %w", id, err)
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
		return fmt.Errorf("pe %d start: %w", rt.ID, err)
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

// Status renders the PE's /statusz row, named pe<ID>, from its registry and
// watchdog verdict.
func (rt *PERuntime) Status() monitor.Status {
	var h *monitor.WatchdogStatus
	if rt.Watchdog != nil {
		st := rt.Watchdog.Status()
		h = &st
	}
	return monitor.BuildStatus(fmt.Sprintf("pe%d", rt.ID), rt.Reg, h)
}
