package pe

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"testing"
	"testing/iotest"
	"testing/quick"

	"streamelastic/internal/spl"
)

// roundTrip sends in as one single-tuple frame and decodes it back.
func roundTrip(t *testing.T, in *spl.Tuple) *spl.Tuple {
	t.Helper()
	var buf bytes.Buffer
	enc := newEncoder(&buf)
	if err := enc.encode(in); err != nil {
		t.Fatal(err)
	}
	out, err := decodeOne(newDecoder(&buf))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCodecRoundTrip(t *testing.T) {
	in := &spl.Tuple{
		Seq: 42, Key: 7, Time: -123456789,
		Num1: 3.14159, Num2: -2.5,
		Text:    "domain.example",
		Payload: []byte{0, 1, 2, 255, 254},
	}
	out := roundTrip(t, in)
	if out.Seq != in.Seq || out.Key != in.Key || out.Time != in.Time ||
		out.Num1 != in.Num1 || out.Num2 != in.Num2 || out.Text != in.Text ||
		!bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestCodecEmptyFields(t *testing.T) {
	out := roundTrip(t, &spl.Tuple{})
	if out.Text != "" || out.Payload != nil {
		t.Fatalf("empty tuple round trip produced %+v", out)
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(seq, key uint64, ts int64, n1, n2 float64, text string, payload []byte) bool {
		in := &spl.Tuple{Seq: seq, Key: key, Time: ts, Num1: n1, Num2: n2, Text: text, Payload: payload}
		var buf bytes.Buffer
		if err := newEncoder(&buf).encode(in); err != nil {
			return false
		}
		raw := append([]byte(nil), buf.Bytes()...) // decoding consumes buf
		out, err := decodeOne(newDecoder(&buf))
		if err != nil {
			return false
		}
		// NaN payloads in floats compare unequal; compare bit patterns via
		// re-encoding instead.
		var buf2 bytes.Buffer
		if err := newEncoder(&buf2).encode(out); err != nil {
			return false
		}
		return bytes.Equal(raw, buf2.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecStreamOfTuples(t *testing.T) {
	var buf bytes.Buffer
	enc := newEncoder(&buf)
	for i := 0; i < 100; i++ {
		if err := enc.encode(&spl.Tuple{Seq: uint64(i), Text: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	dec := newDecoder(&buf)
	for i := 0; i < 100; i++ {
		out, err := decodeOne(dec)
		if err != nil {
			t.Fatal(err)
		}
		if out.Seq != uint64(i) || dec.wireSeq() != uint64(i)+1 {
			t.Fatalf("frame %d decoded as seq %d, wire seq %d", i, out.Seq, dec.wireSeq())
		}
	}
	if _, err := decodeOne(dec); err != io.EOF {
		t.Fatalf("decode past end = %v, want io.EOF", err)
	}
}

func TestDecodeRejectsCorruptFrames(t *testing.T) {
	tp := &spl.Tuple{Seq: 1, Text: "abc", Payload: []byte{1, 2, 3, 4}}
	valid, err := marshalBatchFrame(nil, 1, []*spl.Tuple{tp})
	if err != nil {
		t.Fatal(err)
	}
	rec := len(valid) - batchRecordBytes(tp) // the record's offset in the frame
	mutate := func(f func([]byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	prefix := func(raw uint32) []byte { return binary.LittleEndian.AppendUint32(nil, raw) }
	cases := map[string][]byte{
		// A valid frame whose length prefix lacks the batch flag.
		"unflagged prefix":  mutate(func(b []byte) { b[3] &^= 0x80 }),
		"oversized length":  prefix((maxFrameBytes + 1) | batchFrameFlag),
		"undersized length": append(prefix(4|batchFrameFlag), 0, 0, 0, 0),
		"truncated body":    append(prefix(100|batchFrameFlag), make([]byte, 10)...),
		"text length overruns the record": mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[rec+40:], 1000)
		}),
		"inconsistent payload length": mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[rec+44+len(tp.Text):], 2)
		}),
	}
	for name, wire := range cases {
		if _, err := decodeOne(newDecoder(bytes.NewReader(wire))); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestEncodeRejectsOversizedTuple(t *testing.T) {
	enc := newEncoder(io.Discard)
	if err := enc.encode(&spl.Tuple{Payload: make([]byte, maxFrameBytes)}); err == nil {
		t.Fatal("oversized tuple accepted")
	}
}

// tupleFixture is a shared valid tuple for fuzz seeds.
var tupleFixture = spl.Tuple{
	Seq: 9, Key: 3, Time: 77, Num1: 1.5, Num2: -2.5,
	Text: "fixture", Payload: []byte{1, 2, 3},
}

// batchFixtureTuples returns a small mixed batch: text and payload bearing,
// payload-only, scalar-only, and a larger-payload tuple, so record lengths
// shrink and grow.
func batchFixtureTuples() []*spl.Tuple {
	return []*spl.Tuple{
		{Seq: 100, Key: 1, Time: -5, Num1: 1.25, Num2: -9, Text: "alpha", Payload: []byte{1, 2, 3}},
		{Seq: 101, Key: 2, Payload: []byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88}},
		{Seq: 102, Key: 3, Time: 7},
		{Seq: 103, Key: 4, Text: "b", Payload: bytes.Repeat([]byte{0x42}, 100)},
	}
}

// batchWireFixture builds a canonical multi-frame wire buffer — two batch
// frames around a single-tuple one — and the tuples each frame carries, plus
// each frame's end offset.
func batchWireFixture(tb testing.TB) (wire []byte, want []*spl.Tuple, ends []int) {
	tb.Helper()
	ts := batchFixtureTuples()
	f1, err := marshalBatchFrame(nil, 1, ts[:2])
	if err != nil {
		tb.Fatal(err)
	}
	solo := &spl.Tuple{Seq: 200, Key: 9, Text: "solo", Payload: []byte{7}}
	f2, err := marshalBatchFrame(nil, 3, []*spl.Tuple{solo})
	if err != nil {
		tb.Fatal(err)
	}
	f3, err := marshalBatchFrame(nil, 4, ts[2:])
	if err != nil {
		tb.Fatal(err)
	}
	wire = append(wire, f1...)
	wire = append(wire, f2...)
	wire = append(wire, f3...)
	want = append(want, ts[:2]...)
	want = append(want, solo)
	want = append(want, ts[2:]...)
	ends = []int{len(f1), len(f1) + len(f2), len(wire)}
	return wire, want, ends
}

// TestBatchFrameRoundTrip decodes the canonical mixed buffer through
// decodeFrame and verifies every tuple, the implicit wire sequences, the
// byte meter, and the arena-view payload contract (payloads are views into a
// shared arena; payload-less tuples hold no arena).
func TestBatchFrameRoundTrip(t *testing.T) {
	wire, want, _ := batchWireFixture(t)
	dec := newDecoder(bytes.NewReader(wire))
	out := make([]*spl.Tuple, maxBatchTuples)
	wantFirst := []uint64{1, 3, 4}
	wantCount := []int{2, 1, 2}
	wi := 0
	for f := 0; f < 3; f++ {
		n, first, err := dec.decodeFrame(out)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if n != wantCount[f] || first != wantFirst[f] {
			t.Fatalf("frame %d: n=%d first=%d, want %d/%d", f, n, first, wantCount[f], wantFirst[f])
		}
		for i := 0; i < n; i++ {
			checkFrame(t, wi, want[wi], out[i])
			if len(out[i].Payload) > 0 && !out[i].ArenaBacked() {
				t.Fatalf("tuple %d payload is not an arena view", wi)
			}
			if len(out[i].Payload) == 0 && out[i].ArenaBacked() {
				t.Fatalf("payload-less tuple %d retained an arena reference", wi)
			}
			wi++
		}
		// Release out of order within the batch; the shared arena must
		// survive until the last view drops.
		for i := n - 1; i >= 0; i-- {
			out[i].Release()
			out[i] = nil
		}
	}
	if dec.bytesRead() != uint64(len(wire)) {
		t.Fatalf("decoder read %d wire bytes, want %d", dec.bytesRead(), len(wire))
	}
	if dec.wireSeq() != 5 {
		t.Fatalf("final wire seq %d, want 5", dec.wireSeq())
	}
	if _, _, err := dec.decodeFrame(out); err != io.EOF {
		t.Fatalf("decode past end = %v, want io.EOF", err)
	}
}

// TestBatchFrameTruncationEveryOffset cuts the canonical buffer at every
// possible offset: frames wholly before the cut must still decode exactly,
// and the first incomplete frame must fail closed — no partial batch ever
// escapes.
func TestBatchFrameTruncationEveryOffset(t *testing.T) {
	wire, want, ends := batchWireFixture(t)
	counts := []int{2, 1, 2}
	out := make([]*spl.Tuple, maxBatchTuples)
	for name, wrap := range oddReaders {
		for cut := 0; cut <= len(wire); cut++ {
			complete := 0
			for _, e := range ends {
				if e <= cut {
					complete++
				}
			}
			dec := newDecoder(wrap(bytes.NewReader(wire[:cut])))
			wi := 0
			for f := 0; f < complete; f++ {
				n, _, err := dec.decodeFrame(out)
				if err != nil {
					t.Fatalf("%s reader, cut %d: intact frame %d failed: %v", name, cut, f, err)
				}
				if n != counts[f] {
					t.Fatalf("%s reader, cut %d: frame %d decoded %d tuples, want %d", name, cut, f, n, counts[f])
				}
				for i := 0; i < n; i++ {
					checkFrame(t, wi, want[wi], out[i])
					out[i].Release()
					out[i] = nil
					wi++
				}
			}
			if _, _, err := dec.decodeFrame(out); err == nil {
				t.Fatalf("%s reader, cut %d: decode of incomplete frame %d succeeded", name, cut, complete)
			}
			dec.close()
		}
	}
}

// oddReaders are the stream shapes the decoder must read frames from
// unchanged: whole reads, and the short and error-carrying reads
// testing/iotest provides.
var oddReaders = map[string]func(io.Reader) io.Reader{
	"plain":    func(r io.Reader) io.Reader { return r },
	"one byte": iotest.OneByteReader,
	"half":     iotest.HalfReader,
	"data+err": iotest.DataErrReader,
}

// chunkEdgeWire builds a stream that crosses receive-chunk edges: ~100 KiB
// frames (the third straddles the first chunk's end), a frame larger than a
// chunk, and small mixed frames after it. It returns the tuples in wire
// order, each frame's end offset, and through[k], the tuples the first k
// frames carry.
func chunkEdgeWire(tb testing.TB) (wire []byte, want []*spl.Tuple, ends, through []int) {
	tb.Helper()
	seq, through := uint64(1), []int{0}
	add := func(ts []*spl.Tuple) {
		f, err := marshalBatchFrame(nil, seq, ts)
		if err != nil {
			tb.Fatal(err)
		}
		wire = append(wire, f...)
		want = append(want, ts...)
		ends = append(ends, len(wire))
		through = append(through, len(want))
		seq += uint64(len(ts))
	}
	for i := 0; i < 4; i++ {
		add(logTuples(seq, 3, 33<<10))
	}
	add(logTuples(seq, 1, recvChunkBytes+5<<10))
	for i := 0; i < 6; i++ {
		add(batchFixtureTuples())
	}
	return wire, want, ends, through
}

// decodeAll decodes frames until the decoder fails, keeping every tuple —
// so views into earlier chunks must survive later reads and chunk moves —
// and noting each chunk the decoder read into.
func decodeAll(dec *decoder, chunks map[*spl.Arena]bool) ([]*spl.Tuple, error) {
	out := make([]*spl.Tuple, maxBatchTuples)
	var got []*spl.Tuple
	for {
		n, _, err := dec.decodeFrame(out)
		if dec.c != nil {
			chunks[dec.c] = true
		}
		if err != nil {
			return got, err
		}
		got = append(got, out[:n]...)
	}
}

// TestDecoderOddReaders reads a stream whose frames straddle chunk edges,
// one of them larger than a chunk, through short and error-carrying
// readers: every tuple decodes exactly, while holding every earlier tuple.
// Cut at each frame's end and one byte either side, the frames wholly
// before the cut decode and the next fails closed. Once every tuple is
// released and the decoder closed, no chunk keeps a reference.
func TestDecoderOddReaders(t *testing.T) {
	wire, want, ends, through := chunkEdgeWire(t)
	if ends[1] >= recvChunkBytes || ends[2] <= recvChunkBytes {
		t.Fatalf("fixture: frame 2 spans [%d, %d), want it across the first chunk's end", ends[1], ends[2])
	}
	for name, wrap := range oddReaders {
		chunks := map[*spl.Arena]bool{}
		dec := newDecoder(wrap(bytes.NewReader(wire)))
		got, err := decodeAll(dec, chunks)
		if err != io.EOF {
			t.Fatalf("%s reader: stream ended with %v after %d tuples, want io.EOF", name, err, len(got))
		}
		if len(got) != len(want) || dec.bytesRead() != uint64(len(wire)) {
			t.Fatalf("%s reader: %d tuples from %d bytes, want %d from %d", name, len(got), dec.bytesRead(), len(want), len(wire))
		}
		for i := range want {
			checkFrame(t, i, want[i], got[i])
		}
		if len(chunks) < 3 {
			t.Fatalf("%s reader: read into %d chunks, want the stream to cross several", name, len(chunks))
		}
		releaseAll(got)
		dec.close()
		checkChunksFree(t, name+" reader", chunks)
	}
	for _, e := range ends {
		for cut := e - 1; cut <= min(e+1, len(wire)-1); cut++ {
			complete := sort.SearchInts(ends, cut+1) // frames wholly before the cut
			chunks := map[*spl.Arena]bool{}
			dec := newDecoder(iotest.HalfReader(bytes.NewReader(wire[:cut])))
			got, err := decodeAll(dec, chunks)
			if clean := complete > 0 && ends[complete-1] == cut; clean != (err == io.EOF) || err == nil {
				t.Fatalf("cut %d (%d whole frames before it): decode ended with %v", cut, complete, err)
			}
			if wantN := through[complete]; len(got) != wantN {
				t.Fatalf("cut %d: %d tuples decoded, want the %d of the %d whole frames", cut, len(got), wantN, complete)
			}
			releaseAll(got)
			dec.close()
			checkChunksFree(t, fmt.Sprintf("cut %d", cut), chunks)
		}
	}
}

// TestBatchFrameFlipEveryByte flips every byte of the canonical buffer (a
// hard 0xff xor, hitting the length prefix, base seq, count, the text and
// payload lengths, and every record field) and decodes the mutated stream to
// the end: the decoder may accept or reject frames but must never panic and
// never hand back more content than the wire carried.
func TestBatchFrameFlipEveryByte(t *testing.T) {
	wire, _, _ := batchWireFixture(t)
	out := make([]*spl.Tuple, maxBatchTuples)
	mut := make([]byte, len(wire))
	for pos := 0; pos < len(wire); pos++ {
		copy(mut, wire)
		mut[pos] ^= 0xff
		dec := newDecoder(bytes.NewReader(mut))
		for f := 0; f < 4; f++ {
			n, _, err := dec.decodeFrame(out)
			if err != nil {
				break
			}
			content := 0
			for i := 0; i < n; i++ {
				content += len(out[i].Text) + len(out[i].Payload)
			}
			if content > dec.lastFrameBytes() {
				t.Fatalf("flip at %d: frame yielded %d content bytes from a %d-byte frame",
					pos, content, dec.lastFrameBytes())
			}
			releaseAll(out[:n])
		}
	}
}

// TestMarshalBatchFrameRejects pins the encoder-side bounds: empty batches,
// batches past maxBatchTuples, and batches whose bodies exceed maxFrameBytes
// are errors, not truncations.
func TestMarshalBatchFrameRejects(t *testing.T) {
	if _, err := marshalBatchFrame(nil, 1, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	over := make([]*spl.Tuple, maxBatchTuples+1)
	for i := range over {
		over[i] = &spl.Tuple{}
	}
	if _, err := marshalBatchFrame(nil, 1, over); err == nil {
		t.Fatal("oversized batch count accepted")
	}
	big := &spl.Tuple{Payload: make([]byte, maxFrameBytes/2)}
	if _, err := marshalBatchFrame(nil, 1, []*spl.Tuple{big, big, big}); err == nil {
		t.Fatal("oversized batch body accepted")
	}
}

// TestDecodeFrameRejectsHostileBatchHeaders drives decodeFrame with
// synthetic hostile batch headers that a byte flip could produce: zero and
// overflowing base sequences, counts outside [1, maxBatchTuples], and record
// lengths that overrun the frame or leave its records short of tiling it.
// All must fail closed.
func TestDecodeFrameRejectsHostileBatchHeaders(t *testing.T) {
	out := make([]*spl.Tuple, maxBatchTuples)
	frame := func(mutate func([]byte)) []byte {
		b, err := marshalBatchFrame(nil, 5, batchFixtureTuples()[:2])
		if err != nil {
			t.Fatal(err)
		}
		mutate(b)
		return b
	}
	cases := map[string]func([]byte){
		"zero base seq":     func(b []byte) { binary.LittleEndian.PutUint64(b[4:], 0) },
		"overflow base seq": func(b []byte) { binary.LittleEndian.PutUint64(b[4:], ^uint64(0)) },
		"zero count":        func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 0) },
		"huge count":        func(b []byte) { binary.LittleEndian.PutUint32(b[12:], maxBatchTuples+1) },
		// The first record's text length overruns the frame, wrap-safe.
		"text length overrun": func(b []byte) { binary.LittleEndian.PutUint32(b[16+40:], ^uint32(0)) },
		// The first record's payload length overruns the frame (its text is
		// "alpha", five bytes).
		"payload length overrun": func(b []byte) { binary.LittleEndian.PutUint32(b[16+44+5:], 1<<30) },
		// A shorter payload leaves the records short of tiling the frame.
		"payload length short": func(b []byte) { binary.LittleEndian.PutUint32(b[16+44+5:], 2) },
	}
	for name, mutate := range cases {
		dec := newDecoder(bytes.NewReader(frame(mutate)))
		if _, _, err := dec.decodeFrame(out); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestDecodeIsZeroCopy pins the arena-view decode: the decoded tuple's
// payload must be a view into the frame's arena buffer (no per-frame copy,
// no payload-pool round trip), siblings from successive frames may be
// released in any order, and a corrupt frame must not strand an arena
// reference.
func TestDecodeIsZeroCopy(t *testing.T) {
	var buf bytes.Buffer
	enc := newEncoder(&buf)
	for i := 0; i < 3; i++ {
		in := &spl.Tuple{Seq: uint64(i), Payload: []byte{byte(i), 1, 2, 3}}
		if err := enc.encode(in); err != nil {
			t.Fatal(err)
		}
	}
	dec := newDecoder(&buf)
	tuples := make([]*spl.Tuple, 3)
	for i := range tuples {
		out, err := decodeOne(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !out.ArenaBacked() {
			t.Fatal("decoded payload is not an arena view")
		}
		if out.PayloadPooled() {
			t.Fatal("decoded payload took a pooled buffer; expected a view")
		}
		tuples[i] = out
	}
	// Out-of-order release across frames; the surviving views stay intact.
	tuples[1].Release()
	if tuples[0].Payload[0] != 0 || tuples[2].Payload[0] != 2 {
		t.Fatalf("surviving views corrupted: %v %v", tuples[0].Payload, tuples[2].Payload)
	}
	tuples[2].Release()
	tuples[0].Release()

	// Payload-less tuples must not hold an arena.
	empty := roundTrip(t, &spl.Tuple{Seq: 9})
	if empty.ArenaBacked() {
		t.Fatal("payload-less tuple retained an arena reference")
	}
	empty.Release()
}

// checkChunksFree fails the test when a chunk the decoder read into still
// holds a reference after every tuple was released and the decoder closed.
func checkChunksFree(t *testing.T, what string, chunks map[*spl.Arena]bool) {
	t.Helper()
	for c := range chunks {
		if r := c.Refs(); r != 0 {
			t.Fatalf("%s: a %d-byte chunk keeps %d references", what, len(c.Bytes()), r)
		}
	}
}

// encoder is the tests' reference sender: a buffered writer fed one
// single-tuple batch frame at a time, wire sequences counting from 1.
type encoder struct {
	w   *bufio.Writer
	buf []byte
	one [1]*spl.Tuple // the frame's tuple slice, kept so encoding allocates nothing
	seq uint64        // wire sequence of the last frame written
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: bufio.NewWriterSize(w, logBlockBytes)}
}

// writeFrame appends one single-tuple frame to the buffered writer without
// flushing, returning the frame's wire size (length prefix included). The
// scratch buffer is reused across calls, so steady-state encoding is
// allocation-free.
func (e *encoder) writeFrame(t *spl.Tuple) (int, error) {
	e.one[0] = t
	b, err := marshalBatchFrame(e.buf, e.seq+1, e.one[:])
	e.one[0] = nil
	if err != nil {
		return 0, err
	}
	e.buf = b
	if _, err := e.w.Write(b); err != nil {
		return 0, err
	}
	e.seq++
	return len(b), nil
}

// flush pushes all buffered frames onto the underlying writer.
func (e *encoder) flush() error { return e.w.Flush() }

// encode writes one frame and flushes immediately.
func (e *encoder) encode(t *spl.Tuple) error {
	if _, err := e.writeFrame(t); err != nil {
		return err
	}
	return e.flush()
}

// decodeFrame runs both decode passes back to back — readFrame's validation,
// then buildFrame — and returns the tuple count and the first tuple's wire
// sequence. A frame carrying more tuples than out holds fails closed.
func (d *decoder) decodeFrame(out []*spl.Tuple) (int, uint64, error) {
	f, err := d.readFrame()
	if err != nil {
		return 0, 0, err
	}
	if f.count > len(out) {
		f.a.Release()
		return 0, 0, fmt.Errorf("pe: batch count %d exceeds output capacity %d", f.count, len(out))
	}
	return buildFrame(f, out), f.base, nil
}

// releaseAll releases and nils every tuple of ts.
func releaseAll(ts []*spl.Tuple) {
	for i, t := range ts {
		if t != nil {
			t.Release()
			ts[i] = nil
		}
	}
}

// decodeOne reads one frame through decodeFrame; with room for a single
// tuple, a frame carrying more fails closed.
func decodeOne(d *decoder) (*spl.Tuple, error) {
	var out [1]*spl.Tuple
	if _, _, err := d.decodeFrame(out[:]); err != nil {
		return nil, err
	}
	return out[0], nil
}
