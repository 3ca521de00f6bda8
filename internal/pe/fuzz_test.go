package pe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"streamelastic/internal/spl"
)

// FuzzDecode hardens the wire decoder against arbitrary byte streams read
// as single-tuple frames: it must either return an error or a well-formed
// tuple, and never panic or over-allocate. Run with `go test -fuzz=FuzzDecode ./internal/pe` for a
// full campaign; the seed corpus runs on every ordinary `go test`.
func FuzzDecode(f *testing.F) {
	// Seeds: a valid frame, truncations, hostile lengths.
	var valid bytes.Buffer
	enc := newEncoder(&valid)
	_ = enc.encode(&tupleFixture)
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint32(huge, maxFrameBytes|batchFrameFlag)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := newDecoder(bytes.NewReader(data))
		for i := 0; i < 4; i++ {
			tp, err := decodeOne(dec)
			if err != nil {
				return
			}
			if tp == nil {
				t.Fatal("nil tuple without error")
			}
			// Decoded strings/payloads must be bounded by the input size.
			if len(tp.Text)+len(tp.Payload) > len(data) {
				t.Fatalf("decoded %d bytes of content from %d input bytes",
					len(tp.Text)+len(tp.Payload), len(data))
			}
		}
	})
}

// FuzzRoundTrip checks encode/decode inversion on fuzzer-chosen attribute
// values.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), int64(3), 4.5, 6.7, "text", []byte{1, 2})
	f.Add(uint64(0), uint64(0), int64(-1), -0.0, 1e308, "", []byte{})
	f.Fuzz(func(t *testing.T, seq, key uint64, ts int64, n1, n2 float64, text string, payload []byte) {
		in := tupleFixture
		in.Seq, in.Key, in.Time, in.Num1, in.Num2, in.Text, in.Payload =
			seq, key, ts, n1, n2, text, payload
		var buf bytes.Buffer
		if err := newEncoder(&buf).encode(&in); err != nil {
			if batchBodyBytes([]*spl.Tuple{&in}) > maxFrameBytes {
				return // oversized tuples are rejected by contract
			}
			t.Fatalf("encode: %v", err)
		}
		out, err := decodeOne(newDecoder(&buf))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if out.Seq != seq || out.Key != key || out.Time != ts ||
			out.Text != text || !bytes.Equal(out.Payload, normalizeEmpty(payload)) {
			t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
		}
	})
}

func normalizeEmpty(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

// FuzzBatchedFrames hardens the batched wire path: several batch frames of
// different tuple counts coalesced into one buffer (exactly what the writer
// goroutine writes in one flush) must round-trip through reader validation
// and the consumer's build, survive truncation at any offset with every
// intact prefix frame still decoding exactly, and fail closed without a
// panic on a hostile byte flip anywhere in the stream — including the length
// prefixes.
func FuzzBatchedFrames(f *testing.F) {
	f.Add(uint8(3), uint16(10), uint16(2), byte(0xff), "hello", []byte{1, 2, 3})
	f.Add(uint8(8), uint16(0), uint16(0), byte(0x00), "", []byte{})
	f.Add(uint8(1), uint16(48), uint16(1), byte(0x80), "x", []byte{9})
	f.Add(uint8(5), uint16(200), uint16(45), byte(0x01), "batched", bytes.Repeat([]byte{7}, 64))

	f.Fuzz(func(t *testing.T, nframes uint8, cut, mutPos uint16, mutVal byte, text string, payload []byte) {
		n := int(nframes)%8 + 1
		if len(text) > 1024 {
			text = text[:1024]
		}
		if len(payload) > 4096 {
			payload = payload[:4096]
		}

		// Coalesce n frames of 1..3 distinct tuples into one buffer and
		// record where each frame ends on the wire.
		var wire []byte
		want := make([]spl.Tuple, 0, 3*n) // never regrows: frames point into it
		counts := make([]int, n)
		ends := make([]int, n)
		seq := uint64(1)
		for i := 0; i < n; i++ {
			counts[i] = i%3 + 1
			ts := make([]*spl.Tuple, counts[i])
			for j := range ts {
				k := len(want)
				in := tupleFixture
				in.Seq = uint64(k)
				in.Key = uint64(k)*7 + 1
				in.Time = int64(k) - 3
				in.Num1 = float64(k) * 1.5
				in.Num2 = -float64(k)
				in.Text = text[:len(text)*(i+1)/n]
				in.Payload = payload[:len(payload)*(n-i)/n]
				want = append(want, in)
				ts[j] = &want[k]
			}
			frame, err := marshalBatchFrame(nil, seq, ts)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			wire = append(wire, frame...)
			ends[i] = len(wire)
			seq += uint64(len(ts))
		}

		// decodeFrames decodes the first `frames` frames through dec,
		// checking every tuple against want and the implicit wire sequences.
		out := make([]*spl.Tuple, maxBatchTuples)
		decodeFrames := func(dec *decoder, frames int, what string) {
			k := 0
			for i := 0; i < frames; i++ {
				got, first, err := dec.decodeFrame(out)
				if err != nil {
					t.Fatalf("%s: intact frame %d failed: %v", what, i, err)
				}
				if got != counts[i] || first != uint64(k)+1 {
					t.Fatalf("%s: frame %d carried %d tuples from %d, want %d from %d",
						what, i, got, first, counts[i], k+1)
				}
				for j := 0; j < got; j++ {
					checkFrame(t, k, &want[k], out[j])
					k++
				}
				releaseAll(out[:got])
			}
		}

		// Intact buffer: every frame round-trips through the pooled decoder,
		// the byte meter matches the wire, and the stream ends cleanly.
		dec := newDecoder(bytes.NewReader(wire))
		decodeFrames(dec, n, "intact")
		if _, _, err := dec.decodeFrame(out); err == nil {
			t.Fatal("decode past the final frame succeeded")
		}
		if dec.bytesRead() != uint64(len(wire)) {
			t.Fatalf("decoder read %d wire bytes, want %d", dec.bytesRead(), len(wire))
		}

		// Truncation at a fuzz-chosen offset: frames wholly before the cut
		// still decode exactly; the first incomplete frame must error.
		c := int(cut) % (len(wire) + 1)
		complete := 0
		for _, e := range ends {
			if e <= c {
				complete++
			}
		}
		dec = newDecoder(bytes.NewReader(wire[:c]))
		decodeFrames(dec, complete, fmt.Sprintf("cut at %d", c))
		if _, _, err := dec.decodeFrame(out); err == nil {
			t.Fatalf("cut at %d: decode of incomplete frame %d succeeded", c, complete)
		}

		// Hostile flip anywhere in the stream (length prefixes included):
		// the reader may accept or reject frames but must fail closed, stay
		// bounded and never panic.
		mut := append([]byte(nil), wire...)
		mut[int(mutPos)%len(mut)] ^= mutVal | 1
		dec = newDecoder(bytes.NewReader(mut))
		for i := 0; i <= n; i++ {
			got, ok := decodeSplit(t, dec, out)
			if !ok {
				break
			}
			content := 0
			for j := 0; j < got; j++ {
				content += len(out[j].Text) + len(out[j].Payload)
			}
			if content > len(mut) {
				t.Fatalf("mutated stream decoded %d content bytes from %d input bytes", content, len(mut))
			}
			releaseAll(out[:got])
		}
	})
}

// decodeSplit reads one frame the way the wire path does — readRaw and
// validate on the reader goroutine's side, buildFrame on the consuming
// operator thread's — and checks the fail-closed contract at the seam: a
// rejected frame builds no tuple and its chunk holds only the decoder's
// reference and the frame's, which the reader drops; an accepted frame, once
// built, leaves the chunk held by exactly its payload views and the decoder,
// so releasing the tuples hands the chunk back to the decoder alone (the
// caller releases each frame's tuples before reading the next). ok is false
// when the stream ended or the frame was rejected.
func decodeSplit(t *testing.T, dec *decoder, out []*spl.Tuple) (n int, ok bool) {
	t.Helper()
	a, body, err := dec.readRaw()
	if err != nil {
		return 0, false
	}
	f, err := validate(a, body)
	if err != nil {
		if r := a.Refs(); r != 2 {
			t.Fatalf("rejected frame's chunk holds %d references, want the decoder's and the frame's 2", r)
		}
		a.Release()
		return 0, false
	}
	n = buildFrame(f, out)
	if n != f.count {
		t.Fatalf("built %d tuples of a %d-record frame", n, f.count)
	}
	views := int32(0)
	for _, tp := range out[:n] {
		if tp == nil {
			t.Fatalf("nil tuple in a built frame of %d", n)
		}
		if len(tp.Payload) > 0 {
			views++
		}
	}
	if a.Refs() != views+1 {
		t.Fatalf("built frame's chunk holds %d references for %d payload views and the decoder", a.Refs(), views)
	}
	return n, true
}

// FuzzBatchFrameDecode hardens the wire decoder as the transport splits it —
// reader-side readRaw and validate, then the consumer's buildFrame —
// against arbitrary byte streams: hostile length prefixes, counts, and
// text and payload lengths must all fail closed without a panic (no tuple
// built, the frame's chunk reference dropped), and a frame that does decode
// must never hand back more content than the wire carried (a view cannot
// over-read its frame). The committed seed corpus under testdata/fuzz
// covers valid multi-frame buffers, truncations, and targeted header and
// record-length flips;
// regenerate it with PE_GEN_CORPUS=1 go test -run TestGenBatchFrameCorpus.
// Deterministic every-offset truncation and every-byte flips run in
// TestBatchFrameTruncationEveryOffset and TestBatchFrameFlipEveryByte on
// each ordinary go test; run `go test -fuzz=FuzzBatchFrameDecode
// ./internal/pe` for a full campaign.
func FuzzBatchFrameDecode(f *testing.F) {
	for _, seed := range batchFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := newDecoder(bytes.NewReader(data))
		defer dec.close()
		out := make([]*spl.Tuple, maxBatchTuples)
		read := 0
		for i := 0; i < 8; i++ {
			n, ok := decodeSplit(t, dec, out)
			if !ok {
				return // fail closed: no tuples escaped this frame
			}
			if n < 1 || n > maxBatchTuples {
				t.Fatalf("frame of %d tuples passed validation", n)
			}
			content := 0
			for j := 0; j < n; j++ {
				content += len(out[j].Text) + len(out[j].Payload)
			}
			// The reader has consumed this frame's body and every earlier
			// frame: content can come from nowhere else.
			read += batchHeaderBytes + n*batchRecordFixed + content
			if read > len(data) {
				t.Fatalf("%d frames decoded %d wire bytes of content from %d input bytes", i+1, read, len(data))
			}
			releaseAll(out[:n])
		}
	})
}

// batchFuzzSeeds builds the seed inputs FuzzBatchFrameDecode starts from;
// TestGenBatchFrameCorpus writes the same set to the committed corpus.
func batchFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	wire, _, ends := batchWireFixture(tb)
	seeds := [][]byte{
		wire,                     // three valid frames
		wire[:ends[0]],           // one whole batch frame
		wire[:ends[0]-7],         // truncated mid-record
		wire[:6],                 // truncated mid-header
		{},                       // empty stream
		{0xff, 0xff, 0xff, 0xff}, // hostile prefix: batch flag + huge length
	}
	// Batch-flagged prefix with a plausible length but no body.
	hungry := make([]byte, 4)
	binary.LittleEndian.PutUint32(hungry, (batchHeaderBytes+1+batchRecordFixed)|batchFrameFlag)
	seeds = append(seeds, hungry)
	// Valid frame with the count field raised past the record section.
	overcount := append([]byte(nil), wire[:ends[0]]...)
	binary.LittleEndian.PutUint32(overcount[12:], 900)
	seeds = append(seeds, overcount)
	// Valid frame whose first record's text length overruns the frame.
	badText := append([]byte(nil), wire[:ends[0]]...)
	binary.LittleEndian.PutUint32(badText[16+40:], ^uint32(0))
	seeds = append(seeds, badText)
	return seeds
}

// TestGenBatchFrameCorpus writes FuzzBatchFrameDecode's seed corpus to
// testdata/fuzz so the seeds are committed files, not only f.Add calls.
// Gated behind PE_GEN_CORPUS=1; rerun it whenever batchFuzzSeeds changes.
func TestGenBatchFrameCorpus(t *testing.T) {
	if os.Getenv("PE_GEN_CORPUS") == "" {
		t.Skip("set PE_GEN_CORPUS=1 to regenerate the committed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBatchFrameDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range batchFuzzSeeds(t) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkFrame verifies one decoded frame against the tuple it encodes.
func checkFrame(t *testing.T, i int, want, got *spl.Tuple) {
	t.Helper()
	if got.Seq != want.Seq || got.Key != want.Key || got.Time != want.Time ||
		got.Num1 != want.Num1 || got.Num2 != want.Num2 {
		t.Fatalf("frame %d scalars: got %+v, want %+v", i, got, want)
	}
	if got.Text != want.Text {
		t.Fatalf("frame %d text: got %q, want %q", i, got.Text, want.Text)
	}
	if !bytes.Equal(got.Payload, normalizeEmpty(want.Payload)) {
		t.Fatalf("frame %d payload: got %d bytes, want %d", i, len(got.Payload), len(want.Payload))
	}
}
