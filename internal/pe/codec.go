// Package pe implements the multi-host layer of the runtime: a job's
// operator graph is partitioned into processing elements (PEs), connected
// operators in different PEs communicate over TCP, and — exactly as the
// paper describes (§2) — every PE independently runs the multi-level
// elasticity scheme on its own slice of the graph.
package pe

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"streamelastic/internal/spl"
)

// maxFrameBytes bounds a single encoded frame, protecting readers from
// corrupt or hostile length prefixes.
const maxFrameBytes = 16 << 20

// batchFrameFlag is the high bit of the u32 length prefix. Every frame on
// the wire (format v2) is a batch frame and carries it; a prefix without
// the flag is malformed and fails closed.
const batchFrameFlag = uint32(1) << 31

// Batch frame layout (little endian):
//
//	u32 frameLen | batchFrameFlag (bytes after this field)
//	u64 baseSeq (wire sequence of the first tuple: the per-stream transport
//	            sequence, 1-based, that the reconnect protocol resumes, acks
//	            and dedups by — distinct from the application Tuple.Seq; tuple
//	            i carries baseSeq+i implicitly)
//	u32 count (tuples in the batch, 1..maxBatchTuples)
//	count records, concatenated; each record is:
//	      u64 seq, u64 key, i64 time, f64 num1, f64 num2,
//	      u32 textLen, text bytes, u32 payloadLen, payload bytes
//
// A record delimits itself through its two length fields at fixed offsets,
// so the frame carries no length table: the export encodes each record
// straight into its block log and the importer walks them in place.
const (
	batchHeaderBytes = 8 + 4
	batchRecordFixed = 8 + 8 + 8 + 8 + 8 + 4 + 4
)

// maxBatchTuples bounds a batch frame's tuple count against hostile values;
// the export never seals more than writerBatchTuples into a frame, so the
// bound is generous.
const maxBatchTuples = 1024

// recvChunkBytes sizes the importer's pooled receive chunks: each socket
// read fills a chunk's free tail, and the frames in it are views that hold
// the chunk until their tuples are released. The export needs no such
// buffer: it writes to the socket straight from its block log.
const recvChunkBytes = 256 << 10

// appendRecord appends tuple t's batch record.
func appendRecord(b []byte, t *spl.Tuple) []byte {
	b = binary.LittleEndian.AppendUint64(b, t.Seq)
	b = binary.LittleEndian.AppendUint64(b, t.Key)
	b = binary.LittleEndian.AppendUint64(b, uint64(t.Time))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Num1))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Num2))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.Text)))
	b = append(b, t.Text...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.Payload)))
	return append(b, t.Payload...)
}

// batchRecordBytes returns tuple t's record size within a batch frame: the
// wire bytes t adds to a frame.
func batchRecordBytes(t *spl.Tuple) int {
	return batchRecordFixed + len(t.Text) + len(t.Payload)
}

// batchBodyBytes returns the body size (bytes after the length prefix) of
// the v2 batch frame carrying ts.
func batchBodyBytes(ts []*spl.Tuple) int {
	body := batchHeaderBytes
	for _, t := range ts {
		body += batchRecordBytes(t)
	}
	return body
}

// appendBatchHeader appends a v2 batch frame's length prefix, base sequence
// and record count.
func appendBatchHeader(dst []byte, body int, baseSeq uint64, count int) []byte {
	b := binary.LittleEndian.AppendUint32(dst, uint32(body)|batchFrameFlag)
	b = binary.LittleEndian.AppendUint64(b, baseSeq)
	return binary.LittleEndian.AppendUint32(b, uint32(count))
}

// appendBatchFrame appends one v2 batch frame (length prefix included) of
// body bytes carrying ts as wire sequences baseSeq..baseSeq+len(ts)-1 to dst.
// The caller has sized the batch: 1..maxBatchTuples tuples, body ==
// batchBodyBytes(ts) <= maxFrameBytes. The export seals a tuple too large to
// share a block straight into a dedicated one through this.
func appendBatchFrame(dst []byte, baseSeq uint64, ts []*spl.Tuple, body int) []byte {
	b := appendBatchHeader(dst, body, baseSeq, len(ts))
	for _, t := range ts {
		b = appendRecord(b, t)
	}
	return b
}

// marshalBatchFrame encodes ts as one v2 batch frame into dst[:0] (growing
// it when too small), returning the encoded slice.
func marshalBatchFrame(dst []byte, baseSeq uint64, ts []*spl.Tuple) ([]byte, error) {
	if len(ts) == 0 || len(ts) > maxBatchTuples {
		return nil, fmt.Errorf("pe: batch of %d tuples outside [1, %d]", len(ts), maxBatchTuples)
	}
	body := batchBodyBytes(ts)
	if body > maxFrameBytes {
		return nil, fmt.Errorf("pe: batch frame %d bytes exceeds limit %d", body, maxFrameBytes)
	}
	if cap(dst) < 4+body {
		dst = make([]byte, 0, 4+body)
	}
	return appendBatchFrame(dst[:0], baseSeq, ts, body), nil
}

// frameRef is a validated wire frame on its way from the reader goroutine
// to the operator thread that builds its tuples: the receive chunk holding
// it (the frame owns one reference on it), its body within the chunk, its
// base wire sequence and record count, and how many leading records dedup
// dropped.
type frameRef struct {
	a     *spl.Arena
	body  []byte
	base  uint64
	count int
	skip  int
}

// decoder reads and validates wire frames from a stream. Each read takes
// whatever the stream has ready into the free tail of a pooled receive
// chunk, and every frame is handed out as a view into the chunk it landed
// in: c.Bytes()[lo:hi] is read but not yet framed.
type decoder struct {
	r      io.Reader
	c      *spl.Arena // current receive chunk; the decoder holds its creator reference
	lo, hi int
	nread  uint64
	seq    uint64 // wire sequence of the last frame read
	last   int    // wire bytes of the last frame read
}

func newDecoder(r io.Reader) *decoder { return &decoder{r: r} }

// close drops the decoder's reference on its current chunk; frames already
// read keep the chunk alive until their tuples are released.
func (d *decoder) close() {
	if d.c != nil {
		d.c.Release()
		d.c = nil
	}
}

// bytesRead returns the cumulative wire bytes of successfully read frames
// (length prefixes included).
func (d *decoder) bytesRead() uint64 { return d.nread }

// wireSeq returns the wire sequence of the last tuple of the last frame read.
func (d *decoder) wireSeq() uint64 { return d.seq }

// lastFrameBytes returns the wire size of the last frame read.
func (d *decoder) lastFrameBytes() int { return d.last }

// readFrame reads one wire frame and validates it, or returns io.EOF
// (possibly wrapped) when the stream ends cleanly. It is pass 1 of
// decoding, run by the reader goroutine: the frame is fully checked before
// any tuple exists, so a hostile or truncated frame — an unflagged length
// prefix included — fails closed: its chunk reference is dropped and the
// error poisons the connection. buildFrame, pass 2, cannot fail.
func (d *decoder) readFrame() (frameRef, error) {
	a, body, err := d.readRaw()
	if err != nil {
		return frameRef{}, err
	}
	f, err := validate(a, body)
	if err != nil {
		a.Release()
		return frameRef{}, err
	}
	d.seq = f.base + uint64(f.count) - 1
	d.last = 4 + len(body)
	d.nread += uint64(d.last)
	return f, nil
}

// readRaw reads one length-prefixed frame and returns its body as a view
// into the receive chunk, with one reference on the chunk taken for it.
func (d *decoder) readRaw() (*spl.Arena, []byte, error) {
	if err := d.fill(4); err != nil {
		return nil, nil, err
	}
	raw := binary.LittleEndian.Uint32(d.c.Bytes()[d.lo:])
	frameLen := int(raw &^ batchFrameFlag)
	if raw&batchFrameFlag == 0 || frameLen < batchHeaderBytes+batchRecordFixed || frameLen > maxFrameBytes {
		return nil, nil, fmt.Errorf("pe: invalid frame length prefix %#08x", raw)
	}
	if err := d.fill(4 + frameLen); err != nil {
		return nil, nil, fmt.Errorf("pe: truncated batch frame: %w", err)
	}
	end := d.lo + 4 + frameLen
	body := d.c.Bytes()[d.lo+4 : end : end]
	d.lo = end
	d.c.Retain()
	return d.c, body, nil
}

// fill makes at least n unread bytes available. When they would not fit in
// what is left of the chunk, the unread tail — at most one partial frame —
// moves to a fresh chunk of max(recvChunkBytes, n) first. A stream that
// ends short is io.EOF at a frame boundary and io.ErrUnexpectedEOF inside
// a frame.
func (d *decoder) fill(n int) error {
	if d.hi-d.lo >= n {
		return nil
	}
	if d.c == nil || len(d.c.Bytes())-d.lo < n {
		c := spl.AcquireArena(max(recvChunkBytes, n))
		if d.c != nil {
			d.hi = copy(c.Bytes(), d.c.Bytes()[d.lo:d.hi])
			d.c.Release()
		}
		d.c, d.lo = c, 0
	}
	m, err := io.ReadAtLeast(d.r, d.c.Bytes()[d.hi:], n-(d.hi-d.lo))
	d.hi += m
	if err == io.EOF && d.hi > d.lo {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// validate checks a frame body: the header's count and base sequence, then
// that the records tile the body exactly — each record's text and payload
// lengths are bounds-checked, wrap-safe, against what is left of the body.
// The caller keeps its reference on a either way.
func validate(a *spl.Arena, b []byte) (frameRef, error) {
	baseSeq := binary.LittleEndian.Uint64(b[0:])
	count := int(binary.LittleEndian.Uint32(b[8:]))
	if count < 1 || count > maxBatchTuples {
		return frameRef{}, fmt.Errorf("pe: batch count %d outside [1, %d]", count, maxBatchTuples)
	}
	if baseSeq == 0 || baseSeq > math.MaxUint64-uint64(count) {
		return frameRef{}, fmt.Errorf("pe: batch base sequence %d invalid for count %d", baseSeq, count)
	}
	off := batchHeaderBytes
	for i := 0; i < count; i++ {
		rest := len(b) - off
		if rest < batchRecordFixed {
			return frameRef{}, fmt.Errorf("pe: record %d overruns frame", i)
		}
		textLen := uint64(binary.LittleEndian.Uint32(b[off+40:]))
		if textLen > uint64(rest-batchRecordFixed) {
			return frameRef{}, fmt.Errorf("pe: text length %d overruns frame", textLen)
		}
		payloadLen := uint64(binary.LittleEndian.Uint32(b[off+44+int(textLen):]))
		if payloadLen > uint64(rest-batchRecordFixed)-textLen {
			return frameRef{}, fmt.Errorf("pe: payload length %d overruns frame", payloadLen)
		}
		off += batchRecordFixed + int(textLen+payloadLen)
	}
	if off != len(b) {
		return frameRef{}, fmt.Errorf("pe: batch records end at %d, frame is %d bytes", off, len(b))
	}
	return frameRef{a: a, body: b, base: baseSeq, count: count}, nil
}

// buildFrame is pass 2 of decoding, run on the operator thread that emits
// the tuples: it materializes records [f.skip, f.count) of a validated frame
// into out (which must hold f.count-f.skip entries) and drops the frame's
// chunk reference, returning the tuple count. The tuples share the chunk:
// every payload is a zero-copy view, attached through references pre-taken
// in a single RetainN (payload-less records return theirs at once). The
// tuple ownership protocol extends across the wire, so consumers must
// Release each tuple (directly or via the runtime) when its life ends, which
// is what lets the chunk recycle.
func buildFrame(f frameRef, out []*spl.Tuple) int {
	b := f.body
	n := f.count - f.skip
	f.a.RetainN(int32(n))
	off := batchHeaderBytes
	for i := 0; i < f.count; i++ {
		textLen := int(binary.LittleEndian.Uint32(b[off+40:]))
		payloadLen := int(binary.LittleEndian.Uint32(b[off+44+textLen:]))
		r := b[off : off+batchRecordFixed+textLen+payloadLen]
		off += len(r)
		if i < f.skip {
			continue
		}
		t := spl.AcquireTuple()
		t.Seq = binary.LittleEndian.Uint64(r[0:])
		t.Key = binary.LittleEndian.Uint64(r[8:])
		t.Time = int64(binary.LittleEndian.Uint64(r[16:]))
		t.Num1 = math.Float64frombits(binary.LittleEndian.Uint64(r[24:]))
		t.Num2 = math.Float64frombits(binary.LittleEndian.Uint64(r[32:]))
		if textLen > 0 {
			// Strings are immutable and may outlive the frame (operators
			// stash them in aggregates), so the text cannot be a view; this
			// is the one copy decode still pays, on text-bearing tuples only.
			t.Text = string(r[44 : 44+textLen])
		}
		if payloadLen > 0 {
			t.AttachArenaRetained(f.a, r[batchRecordFixed+textLen:len(r):len(r)])
		} else {
			f.a.Release()
		}
		out[i-f.skip] = t
	}
	f.a.Release()
	return n
}
