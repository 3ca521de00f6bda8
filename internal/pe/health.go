package pe

import (
	"fmt"
	"sync"
	"time"

	"streamelastic/internal/exec"
	"streamelastic/internal/monitor"
)

// defaultStallAfter is how long without progress counts as a stall for the
// watchdog probes when Options.StallAfter is zero.
const defaultStallAfter = time.Second

// engineProbe detects a wedged PE: scheduler queues holding tuples while
// the sink count makes no progress for a stall interval. An idle PE (empty
// queues) is healthy by definition — no work, no progress expected.
type engineProbe struct {
	eng        *exec.Engine
	stallAfter time.Duration

	mu       sync.Mutex
	lastSink uint64
	lastMove time.Time
}

func (p *engineProbe) check(now time.Time) (bool, string) {
	sink := p.eng.SinkCount()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastMove.IsZero() || sink != p.lastSink {
		p.lastSink = sink
		p.lastMove = now
		return true, ""
	}
	depth := p.eng.QueueStats().TotalDepth
	if depth == 0 {
		p.lastMove = now
		return true, ""
	}
	if stall := now.Sub(p.lastMove); stall >= p.stallAfter {
		return false, fmt.Sprintf("%d tuples queued, no sink progress for %v",
			depth, stall.Round(time.Millisecond))
	}
	return true, ""
}

// exportProbe detects a sick stream: the export is between connections
// (redialing a dead peer) or it holds appended bytes its writer has not
// written and has made no progress for a stall interval (peer accepting but
// not reading, or an injected writer stall).
type exportProbe struct {
	exp        *exportOp
	stallAfter time.Duration
}

func (p *exportProbe) check(now time.Time) (bool, string) {
	if !p.exp.Connected() {
		return false, "stream disconnected"
	}
	if staged := p.exp.StagedDepth(); staged > 0 {
		if stall := now.Sub(p.exp.LastProgress()); stall >= p.stallAfter {
			return false, fmt.Sprintf("writer stalled for %v with %d bytes staged",
				stall.Round(time.Millisecond), staged)
		}
	}
	return true, ""
}

// watchdogFor builds the PE's watchdog: engine probe plus one probe per
// export, freezing the PE's coordinator (nil for observe-only) while any
// probe stays unhealthy.
func watchdogFor(rt *PERuntime, cfg monitor.WatchdogConfig, stallAfter time.Duration) *monitor.Watchdog {
	if stallAfter <= 0 {
		stallAfter = defaultStallAfter
	}
	ep := &engineProbe{eng: rt.Eng, stallAfter: stallAfter}
	probes := []monitor.Probe{{Name: "engine", Check: ep.check}}
	for i, exp := range rt.Plan.exports {
		xp := &exportProbe{exp: exp, stallAfter: stallAfter}
		probes = append(probes, monitor.Probe{
			Name:  fmt.Sprintf("export-s%d", rt.Plan.Exports[i].Stream),
			Check: xp.check,
		})
	}
	var freezer monitor.Freezer
	if rt.Coord != nil {
		freezer = rt.Coord
	}
	return monitor.NewWatchdog(fmt.Sprintf("pe%d", rt.Plan.PE), probes, freezer, cfg)
}
