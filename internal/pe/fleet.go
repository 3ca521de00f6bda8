package pe

import (
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"streamelastic/internal/fault"
	"streamelastic/internal/obs"
)

// Fleet is what every PE of one job shares — the options (defaults
// applied), the flight recorder, and the lock that serializes trip dumps —
// and the one way PEs are wired, built, stopped and drained. Launch builds
// a fixed job through it; the cluster job manager builds, rewires and
// retires the members of a fleet that changes shape while the job runs.
type Fleet struct {
	opts   Options
	rec    *obs.FlightRecorder
	dumpMu sync.Mutex
}

// NewFleet applies opts' defaults, creates the shared flight recorder, and
// records every injected fault in it.
func NewFleet(opts Options) *Fleet {
	if opts.DialTimeout == 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.Checkpoint.Enabled && opts.Transport.RetransmitBytes == 0 {
		// With acks gated at the checkpoint floor the window holds the
		// traffic since the last commit, not a round trip's: default it
		// larger. The import cuts at half of it, so this is memory against
		// cut rate (see TransportConfig.RetransmitBytes).
		opts.Transport.RetransmitBytes = gatedRetransmitBytes
	}
	rec := obs.NewFlightRecorder(obs.DefaultFlightRecorderSize)
	if opts.Fault != nil {
		opts.Fault.SetObserver(func(ev fault.Event) {
			rec.Record(obs.EvFault, -1, int64(ev.Site), int64(ev.N), ev.Point.String())
		})
	}
	return &Fleet{opts: opts, rec: rec}
}

// FlightRecorder returns the fleet's shared flight recorder: one bounded
// ring over all PEs, events tagged with the id of the PE that emitted them.
func (f *Fleet) FlightRecorder() *obs.FlightRecorder { return f.rec }

// DumpFlight writes a flight-recorder dump with a reason header to w,
// serialized so two PEs tripping together interleave dumps, not lines.
func (f *Fleet) DumpFlight(w io.Writer, reason string) {
	f.dumpMu.Lock()
	defer f.dumpMu.Unlock()
	fmt.Fprintf(w, "=== flight-recorder dump (%s) ===\n", reason)
	_ = f.rec.DumpTo(w)
}

// Peer is one end of a stream being wired: the id of the PE that owns the
// end (its recorder tag, and the peer label on the other end's series) and
// the registry the end's own series live on.
type Peer struct {
	ID  int
	Reg *obs.Registry
}

// Build wires every cross edge of a fresh partition (stream id ce.Stream)
// and builds one runtime per plan: PE i has id i and reports into regs[i].
// On error every endpoint wired so far is closed, so no writer goroutine is
// left redialing a dead peer.
func (f *Fleet) Build(plans []*Plan, crosses []CrossEdge, regs []*obs.Registry) ([]*PERuntime, error) {
	abort := func(err error) ([]*PERuntime, error) {
		for _, plan := range plans {
			plan.closeEndpoints()
		}
		return nil, err
	}
	for _, ce := range crosses {
		err := f.WireStream(ce.Stream,
			plans[ce.FromPE].ExportEndpoint(ce.Stream), Peer{ID: ce.FromPE, Reg: regs[ce.FromPE]},
			plans[ce.ToPE].ImportEndpoint(ce.Stream), Peer{ID: ce.ToPE, Reg: regs[ce.ToPE]})
		if err != nil {
			return abort(err)
		}
	}
	rts := make([]*PERuntime, len(plans))
	for i, plan := range plans {
		rt, err := f.NewPERuntime(plan, i, regs[i])
		if err != nil {
			return abort(err)
		}
		rts[i] = rt
	}
	return rts, nil
}

// WireStream connects a fresh stream — wire sequences from zero — from exp,
// owned by from, to imp, owned by to. The import listens on loopback and
// adopts the listener to re-accept the sender's redials; the export dials
// with retries. id is the stream's stable id: fault site, recorder tag and
// stream label.
func (f *Fleet) WireStream(id int, exp *Export, from Peer, imp *Import, to Peer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("pe: listen stream %d: %w", id, err)
	}
	acceptCh := acceptOne(ln)
	addr := ln.Addr().String()
	conn, err := dialStream(addr, f.opts.DialTimeout)
	if err != nil {
		_ = ln.Close()
		return fmt.Errorf("pe: dial stream %d: %w", id, err)
	}
	acc := <-acceptCh
	if acc.err != nil {
		_ = conn.Close()
		_ = ln.Close()
		return fmt.Errorf("pe: accept stream %d: %w", id, acc.err)
	}
	f.setupExport(exp.x, id, from, to.ID)
	exp.x.connect(conn, addr)
	f.setupImport(imp.s, id, to, from.ID)
	imp.s.connect(acc.conn, ln)
	return nil
}

// ListenImport starts imp as the new receiving end of a live stream whose
// sender is about to be rerouted to imp.Addr(): imp continues its
// predecessor's sequence domain from seq (the delivered watermark) and
// listens on loopback for the sender's redial.
func (f *Fleet) ListenImport(id int, imp *Import, to Peer, fromID int, seq uint64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("pe: listen stream %d: %w", id, err)
	}
	f.setupImport(imp.s, id, to, fromID)
	imp.s.seedWatermark(seq)
	imp.s.connect(nil, ln)
	return nil
}

// DialExport starts exp as the new sending end of a live stream: exp
// continues its predecessor's sequence domain from seq (the sequence high)
// and dials the surviving import at addr.
func (f *Fleet) DialExport(id int, exp *Export, from Peer, toID int, seq uint64, addr string) error {
	f.setupExport(exp.x, id, from, toID)
	exp.x.seedSequence(seq)
	conn, err := dialStream(addr, f.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("pe: dial stream %d: %w", id, err)
	}
	exp.x.connect(conn, addr)
	return nil
}

// setupExport configures x as stream id's sending end, owned by from, and
// registers its (stream, dir=export, peer) series on from's registry.
func (f *Fleet) setupExport(x *exportOp, id int, from Peer, toID int) {
	x.cfg = f.opts.Transport.withDefaults()
	x.inj = f.opts.Fault
	x.site = id
	x.rec = f.rec
	x.recPE = int32(from.ID)
	registerExportMetrics(from.Reg, x, id, strconv.Itoa(toID))
}

// setupImport configures s as stream id's receiving end, owned by to, and
// registers its (stream, dir=import, peer) series on to's registry.
func (f *Fleet) setupImport(s *importSource, id int, to Peer, fromID int) {
	s.rec = f.rec
	s.recPE = int32(to.ID)
	s.site = id
	registerImportMetrics(to.Reg, s, id, strconv.Itoa(fromID))
}

// closeEndpoints shuts down every stream endpoint of the plan; closing one
// that is unwired or already closed is a no-op.
func (p *Plan) closeEndpoints() {
	for _, exp := range p.exports {
		exp.close()
	}
	for _, imp := range p.imports {
		imp.close()
	}
}

// StopControl halts the PEs' control loops, phase by phase across all of
// them, leaving engines and streams running: watchdogs first (stopping one
// thaws its coordinator, and the shutdown would otherwise look like a
// stall), then coordinators, then checkpointers.
func StopControl(rts []*PERuntime) {
	for _, rt := range rts {
		if rt.Watchdog != nil {
			rt.Watchdog.Stop()
		}
	}
	for _, rt := range rts {
		if rt.cancel != nil {
			rt.cancel()
			<-rt.done
			rt.cancel = nil
		}
	}
	for _, rt := range rts {
		if rt.Ckpt != nil {
			rt.Ckpt.Stop()
		}
	}
}

// StopAll shuts PEs down: control loops (StopControl; checkpointers stop
// while the streams are still wired, since a recovery in flight may be
// rewinding an import), then every stream endpoint, which unblocks import
// readers, then the engines.
func StopAll(rts []*PERuntime) {
	StopControl(rts)
	for _, rt := range rts {
		rt.Plan.closeEndpoints()
	}
	for _, rt := range rts {
		rt.Eng.Stop()
	}
}

// DrainAll stops the PEs' real sources and waits, bounded by timeout, until
// in-flight tuples have flowed through every PE and stream. It reports
// whether they drained and stops nothing.
func DrainAll(rts []*PERuntime, timeout time.Duration) bool {
	for _, rt := range rts {
		rt.Eng.Drain()
	}
	idle := func() bool {
		for _, rt := range rts {
			if !rt.Eng.WaitIdle(10 * time.Millisecond) {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		// Idle twice in a row with a settle gap: tuples may still be in
		// flight on a TCP stream between PEs.
		if idle() {
			time.Sleep(20 * time.Millisecond)
			if idle() {
				return true
			}
		}
	}
	return false
}
