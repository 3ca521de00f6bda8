package pe

import (
	"fmt"
	"net"

	"streamelastic/internal/fault"
	"streamelastic/internal/obs"
)

// Export is an exported handle on one cross-PE stream's sending endpoint.
// The cluster job manager uses it to wire, freeze, reroute, and retire
// stream ends outside the one-shot Launch path; tests use Freeze/Unfreeze
// directly. All methods are safe while the stream runs.
type Export struct{ x *exportOp }

// Import is the receiving-side counterpart of Export.
type Import struct{ s *importSource }

// ExportEndpoint returns the plan's export handle for the given stream id,
// or nil when the plan has no such endpoint.
func (p *Plan) ExportEndpoint(stream int) *Export {
	for j, end := range p.Exports {
		if end.Stream == stream {
			return &Export{x: p.exports[j]}
		}
	}
	return nil
}

// ImportEndpoint returns the plan's import handle for the given stream id,
// or nil when the plan has no such endpoint.
func (p *Plan) ImportEndpoint(stream int) *Import {
	for j, end := range p.Imports {
		if end.Stream == stream {
			return &Import{s: p.imports[j]}
		}
	}
	return nil
}

// Configure sets the endpoint's transport config, chaos hook, and flight
// recorder before Connect. site is the stream's stable id (the fault site
// and flight-recorder tag); pe tags recorder events.
func (e *Export) Configure(cfg TransportConfig, inj *fault.Injector, site int, rec *obs.FlightRecorder, pe int) {
	e.x.cfg = cfg.withDefaults()
	e.x.inj = inj
	e.x.site = site
	e.x.rec = rec
	e.x.recPE = int32(pe)
}

// SeedSequence pre-loads the wire-sequence counter so this export continues
// a retired predecessor's sequence domain. Must precede Connect.
func (e *Export) SeedSequence(n uint64) { e.x.seedSequence(n) }

// Connect attaches the first connection and starts the writer goroutine; a
// non-empty addr enables redial-and-resume after a lost connection.
func (e *Export) Connect(conn net.Conn, addr string) { e.x.connect(conn, addr) }

// Freeze parks the stream: the writer writes what was appended, then
// stops, and producers that find the budget spent wait for the thaw instead
// of timing out into the drop counter. Appended tuples are retained.
// Idempotent.
func (e *Export) Freeze() { e.x.freeze() }

// Unfreeze releases a frozen stream. Idempotent.
func (e *Export) Unfreeze() { e.x.unfreeze() }

// Frozen reports whether the stream is frozen.
func (e *Export) Frozen() bool { return e.x.frozen.Load() }

// Reroute points the stream at a new peer address and kills the current
// connection; the writer redials and the resume handshake replays anything
// the new peer has not seen.
func (e *Export) Reroute(addr string) { e.x.reroute(addr) }

// SeqHigh returns the highest wire sequence appended so far.
func (e *Export) SeqHigh() uint64 { return e.x.seqHigh.Load() }

// Acked returns the receiver's acknowledged wire-sequence watermark.
func (e *Export) Acked() uint64 { return e.x.acked.Load() }

// StagedDepth returns the bytes appended but not yet written to the socket,
// open frame included.
func (e *Export) StagedDepth() int { return e.x.StagedDepth() }

// RetransTuples returns the tuples rewritten by resume handshakes — the
// replay traffic a migration (or reconnect) caused.
func (e *Export) RetransTuples() uint64 { return e.x.retransT.Load() }

// Sent returns the tuples appended (assigned a wire sequence).
func (e *Export) Sent() uint64 { return e.x.Sent() }

// Dropped returns the tuples the export never took.
func (e *Export) Dropped() uint64 { return e.x.Dropped() }

// Connected reports whether the stream currently has a live connection.
func (e *Export) Connected() bool { return e.x.Connected() }

// Close shuts the endpoint down, draining what it can.
func (e *Export) Close() { e.x.close() }

// Configure sets the import's flight-recorder identity before Listen or
// Connect. site is the stream's stable id; pe tags recorder events.
func (im *Import) Configure(rec *obs.FlightRecorder, pe, site int) {
	im.s.rec = rec
	im.s.recPE = int32(pe)
	im.s.site = site
}

// SeedWatermark pre-loads the delivered/emitted watermarks so this import
// continues a retired predecessor's sequence domain. Must precede Listen.
func (im *Import) SeedWatermark(n uint64) { im.s.seedWatermark(n) }

// Listen starts the reader in accept mode: no connection yet, the first
// arrives when the (rerouted) sender dials ln.
func (im *Import) Listen(ln net.Listener) { im.s.connect(nil, ln) }

// Connect attaches the first connection; a non-nil listener is adopted for
// re-accepting the sender's redials.
func (im *Import) Connect(conn net.Conn, ln net.Listener) { im.s.connect(conn, ln) }

// Delivered returns the highest wire sequence delivered downstream.
func (im *Import) Delivered() uint64 { return im.s.delivered.Load() }

// Emitted returns the wire sequence of the last tuple emitted into the
// engine (equals the emit count; wire sequences are contiguous).
func (im *Import) Emitted() uint64 { return im.s.emitted.Load() }

// Received returns the unique tuples delivered downstream.
func (im *Import) Received() uint64 { return im.s.Received() }

// DupsDropped returns retransmitted duplicates dropped by dedup.
func (im *Import) DupsDropped() uint64 { return im.s.DupsDropped() }

// Resumes returns connections re-accepted after the first.
func (im *Import) Resumes() uint64 { return im.s.Resumes() }

// Close shuts the endpoint down, closing its listener and connection.
func (im *Import) Close() { im.s.close() }

// FreezeStream freezes the named stream's export end across the job — the
// per-edge counterpart of DrainAndStop's whole-job quiescence. Tuples
// already appended are retained; producers park instead of dropping.
func (j *Job) FreezeStream(stream int) error {
	e, err := j.exportFor(stream)
	if err != nil {
		return err
	}
	e.Freeze()
	return nil
}

// UnfreezeStream releases a stream frozen by FreezeStream.
func (j *Job) UnfreezeStream(stream int) error {
	e, err := j.exportFor(stream)
	if err != nil {
		return err
	}
	e.Unfreeze()
	return nil
}

func (j *Job) exportFor(stream int) (*Export, error) {
	for _, ce := range j.crosses {
		if ce.Stream != stream {
			continue
		}
		if e := j.PEs[ce.FromPE].Plan.ExportEndpoint(stream); e != nil {
			return e, nil
		}
	}
	return nil, fmt.Errorf("pe: no export endpoint for stream %d", stream)
}
