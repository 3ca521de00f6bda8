package pe

// Export is an exported handle on one cross-PE stream's sending endpoint.
// A Fleet wires it; the cluster job manager uses it to freeze, reroute,
// and retire stream ends while the job runs. All methods are safe while the
// stream runs.
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

// Freeze parks the stream: the writer writes what was appended, then
// stops, and producers that find the budget spent wait for the thaw instead
// of timing out into the drop counter. Appended tuples are retained.
// Idempotent.
func (e *Export) Freeze() { e.x.freeze() }

// Unfreeze releases a frozen stream. Idempotent.
func (e *Export) Unfreeze() { e.x.unfreeze() }

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

// Close shuts the endpoint down, draining what it can.
func (e *Export) Close() { e.x.close() }

// Addr returns the address the import listens on for its sender's
// (re)dials; "" before the import is wired.
func (im *Import) Addr() string {
	im.s.mu.Lock()
	defer im.s.mu.Unlock()
	if im.s.ln == nil {
		return ""
	}
	return im.s.ln.Addr().String()
}

// Delivered returns the highest wire sequence delivered downstream.
func (im *Import) Delivered() uint64 { return im.s.delivered.Load() }

// Emitted returns the wire sequence of the last tuple emitted into the
// engine (equals the emit count; wire sequences are contiguous).
func (im *Import) Emitted() uint64 { return im.s.emitted.Load() }

// Resumes returns connections re-accepted after the first.
func (im *Import) Resumes() uint64 { return im.s.Resumes() }

// Close shuts the endpoint down, closing its listener and connection.
func (im *Import) Close() { im.s.close() }
