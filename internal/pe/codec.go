// Package pe implements the multi-host layer of the runtime: a job's
// operator graph is partitioned into processing elements (PEs), connected
// operators in different PEs communicate over TCP, and — exactly as the
// paper describes (§2) — every PE independently runs the multi-level
// elasticity scheme on its own slice of the graph.
package pe

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

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
//	count zigzag-varint record lengths, each a delta from the previous
//	      record's length (the first from 0) — uniform tuples cost 1 byte
//	      for the first and 1 zero byte per subsequent tuple
//	count records, concatenated; each record is:
//	      u64 seq, u64 key, i64 time, f64 num1, f64 num2,
//	      u32 textLen, text bytes, u32 payloadLen, payload bytes
const (
	batchHeaderBytes = 8 + 4
	batchRecordFixed = 8 + 8 + 8 + 8 + 8 + 4 + 4
)

// maxBatchTuples bounds a batch frame's tuple count against hostile values;
// the export never seals more than writerBatchTuples into a frame, so the
// bound is generous.
const maxBatchTuples = 1024

// batchTargetBytes is the soft body-size target the export seals its open
// frame at: one log block minus the length prefix, so a full
// frame fills exactly one pooled block. Frame-overhead amortization
// saturates after a few dozen records, but the costs that scale with frame
// size keep growing: the importer materializes a whole frame into one arena
// block before any tuple is built, and a frame larger than a log block
// needs a dedicated one — so bulk tuples (16 KiB payloads) in
// maxFrameBytes-sized chunks turn into multi-MiB blocks that thrash the
// size-class pools and stall acks. A single tuple larger than the target
// still gets its own frame (the hard bound stays maxFrameBytes); the target
// only stops *more* tuples from piling into an already-large frame.
const batchTargetBytes = logBlockBytes - 4

// wireBufBytes sizes the importer's buffered reader. The export needs no such
// buffer: it writes to the socket straight from its block log.
const wireBufBytes = 64 << 10

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

// zigzag maps a signed delta to an unsigned varint-friendly value (small
// magnitudes of either sign encode short); unzigzag inverts it.
func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen returns the encoded size of binary.AppendUvarint(nil, u).
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// batchRecordBytes returns tuple t's record size within a batch frame.
func batchRecordBytes(t *spl.Tuple) int {
	return batchRecordFixed + len(t.Text) + len(t.Payload)
}

// batchFrameAdd returns the wire bytes tuple t adds to a batch frame whose
// previous record was prevRec bytes: its record plus the delta varint. The
// export sizes its open frame with it, by the exact arithmetic
// marshalBatchFrame applies.
func batchFrameAdd(t *spl.Tuple, prevRec int) int {
	rec := batchRecordBytes(t)
	return uvarintLen(zigzag(int64(rec-prevRec))) + rec
}

// batchBodyBytes returns the body size (bytes after the length prefix) of
// the v2 batch frame carrying ts.
func batchBodyBytes(ts []*spl.Tuple) int {
	body, prev := batchHeaderBytes, 0
	for _, t := range ts {
		body += batchFrameAdd(t, prev)
		prev = batchRecordBytes(t)
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
// share a frame straight into its block log through this.
func appendBatchFrame(dst []byte, baseSeq uint64, ts []*spl.Tuple, body int) []byte {
	b := appendBatchHeader(dst, body, baseSeq, len(ts))
	prev := 0
	for _, t := range ts {
		rec := batchRecordBytes(t)
		b = binary.AppendUvarint(b, zigzag(int64(rec-prev)))
		prev = rec
	}
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
// to the operator thread that builds its tuples: the arena holding its body
// (and the creator reference), its base wire sequence and record count, the
// body offset where the records start, and how many leading records dedup
// dropped.
type frameRef struct {
	a     *spl.Arena
	base  uint64
	count int
	recs  int
	skip  int
}

// decoder reads and validates wire frames from a stream.
type decoder struct {
	r     *bufio.Reader
	nread uint64
	seq   uint64 // wire sequence of the last frame read
	last  int    // wire bytes of the last frame read
	// lenBuf is the length-prefix scratch; a local array would escape
	// through the io.ReadFull interface call and cost an allocation per
	// frame.
	lenBuf [4]byte
	// lens is the record-length scratch, reused across frames so
	// steady-state validation is allocation-free.
	lens []int
}

func newDecoder(r io.Reader) *decoder {
	return &decoder{r: bufio.NewReaderSize(r, wireBufBytes)}
}

// bytesRead returns the cumulative wire bytes of successfully read frames
// (length prefixes included).
func (d *decoder) bytesRead() uint64 { return d.nread }

// wireSeq returns the wire sequence of the last tuple of the last frame read.
func (d *decoder) wireSeq() uint64 { return d.seq }

// lastFrameBytes returns the wire size of the last frame read.
func (d *decoder) lastFrameBytes() int { return d.last }

// readFrame reads one wire frame into a pooled arena and validates it, or
// returns io.EOF (possibly wrapped) when the stream ends cleanly. It is pass
// 1 of decoding, run by the reader goroutine: the frame is fully checked
// before any tuple exists, so a hostile or truncated frame — an unflagged
// length prefix included — fails closed: its arena is released and the
// error poisons the connection. buildFrame, pass 2, cannot fail.
func (d *decoder) readFrame() (frameRef, error) {
	a, err := d.readRaw()
	if err != nil {
		return frameRef{}, err
	}
	f, err := d.validate(a)
	if err != nil {
		a.Release()
		return frameRef{}, err
	}
	d.seq = f.base + uint64(f.count) - 1
	d.last = 4 + len(a.Bytes())
	d.nread += uint64(d.last)
	return f, nil
}

// readRaw reads one length-prefixed frame body into a pooled arena holding
// one creator reference.
func (d *decoder) readRaw() (*spl.Arena, error) {
	if _, err := io.ReadFull(d.r, d.lenBuf[:]); err != nil {
		return nil, err
	}
	raw := binary.LittleEndian.Uint32(d.lenBuf[:])
	frameLen := raw &^ batchFrameFlag
	if raw&batchFrameFlag == 0 || frameLen < batchHeaderBytes+1+batchRecordFixed || frameLen > maxFrameBytes {
		return nil, fmt.Errorf("pe: invalid frame length prefix %#08x", raw)
	}
	a := spl.AcquireArena(int(frameLen))
	if _, err := io.ReadFull(d.r, a.Bytes()); err != nil {
		a.Release()
		return nil, fmt.Errorf("pe: truncated batch frame: %w", err)
	}
	return a, nil
}

// validate checks a frame body read into a: the header's count and base
// sequence, then that the delta-varint record lengths and every record's
// text and payload lengths exactly tile the body. The caller keeps the
// arena either way.
func (d *decoder) validate(a *spl.Arena) (frameRef, error) {
	b := a.Bytes()
	baseSeq := binary.LittleEndian.Uint64(b[0:])
	count := int(binary.LittleEndian.Uint32(b[8:]))
	if count < 1 || count > maxBatchTuples {
		return frameRef{}, fmt.Errorf("pe: batch count %d outside [1, %d]", count, maxBatchTuples)
	}
	if baseSeq == 0 || baseSeq > math.MaxUint64-uint64(count) {
		return frameRef{}, fmt.Errorf("pe: batch base sequence %d invalid for count %d", baseSeq, count)
	}
	if cap(d.lens) < count {
		d.lens = make([]int, maxBatchTuples)
	}
	lens := d.lens[:count]
	off := batchHeaderBytes
	prev := 0
	for i := 0; i < count; i++ {
		u, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return frameRef{}, fmt.Errorf("pe: bad record length varint at offset %d", off)
		}
		off += n
		rec64 := int64(prev) + unzigzag(u)
		if rec64 < batchRecordFixed || rec64 > maxFrameBytes {
			return frameRef{}, fmt.Errorf("pe: record length %d outside [%d, %d]", rec64, batchRecordFixed, maxFrameBytes)
		}
		lens[i] = int(rec64)
		prev = int(rec64)
	}
	f := frameRef{a: a, base: baseSeq, count: count, recs: off}
	for i := 0; i < count; i++ {
		rec := lens[i]
		if rec > len(b)-off {
			return frameRef{}, fmt.Errorf("pe: record %d (%d bytes) overruns frame", i, rec)
		}
		r := b[off : off+rec]
		textLen := int(binary.LittleEndian.Uint32(r[40:]))
		if textLen > rec-batchRecordFixed {
			return frameRef{}, fmt.Errorf("pe: text length %d overruns record", textLen)
		}
		payloadLen := int(binary.LittleEndian.Uint32(r[44+textLen:]))
		if payloadLen != rec-batchRecordFixed-textLen {
			return frameRef{}, fmt.Errorf("pe: payload length %d inconsistent with record", payloadLen)
		}
		off += rec
	}
	if off != len(b) {
		return frameRef{}, fmt.Errorf("pe: batch records end at %d, frame is %d bytes", off, len(b))
	}
	return f, nil
}

// buildFrame is pass 2 of decoding, run on the operator thread that emits
// the tuples: it materializes records [f.skip, f.count) of a validated frame
// into out (which must hold f.count-f.skip entries) and drops the creator
// reference, returning the tuple count. The tuples share the frame's arena:
// every payload is a zero-copy view, attached through references pre-taken
// in a single RetainN (payload-less records return theirs at once). The
// tuple ownership protocol extends across the wire, so consumers must
// Release each tuple (directly or via the runtime) when its life ends, which
// is what lets the arena recycle.
func buildFrame(f frameRef, out []*spl.Tuple) int {
	b := f.a.Bytes()
	n := f.count - f.skip
	f.a.RetainN(int32(n))
	lo, off, prev := batchHeaderBytes, f.recs, 0
	for i := 0; i < f.count; i++ {
		u, k := binary.Uvarint(b[lo:])
		lo += k
		rec := prev + int(unzigzag(u))
		prev = rec
		if i < f.skip {
			off += rec
			continue
		}
		r := b[off : off+rec]
		t := spl.AcquireTuple()
		t.Seq = binary.LittleEndian.Uint64(r[0:])
		t.Key = binary.LittleEndian.Uint64(r[8:])
		t.Time = int64(binary.LittleEndian.Uint64(r[16:]))
		t.Num1 = math.Float64frombits(binary.LittleEndian.Uint64(r[24:]))
		t.Num2 = math.Float64frombits(binary.LittleEndian.Uint64(r[32:]))
		textLen := int(binary.LittleEndian.Uint32(r[40:]))
		if textLen > 0 {
			// Strings are immutable and may outlive the frame (operators
			// stash them in aggregates), so the text cannot be a view; this
			// is the one copy decode still pays, on text-bearing tuples only.
			t.Text = string(r[44 : 44+textLen])
		}
		if payloadLen := rec - batchRecordFixed - textLen; payloadLen > 0 {
			t.AttachArenaRetained(f.a, r[48+textLen:48+textLen+payloadLen])
		} else {
			f.a.Release()
		}
		out[i-f.skip] = t
		off += rec
	}
	f.a.Release()
	return n
}
