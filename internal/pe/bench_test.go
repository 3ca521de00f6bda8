package pe

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamelastic/internal/racebuild"
	"streamelastic/internal/spl"
)

// benchPayloads are the wire sizes the transport benchmarks sweep: a tiny
// tuple whose whole batch record fits in 64 bytes (the shape where per-frame
// overhead dominates), a small telemetry-style tuple, a typical record, and a
// bulk frame.
var benchPayloads = []int{16, 64, 1024, 16384}

// benchTuple returns a template tuple with a pooled payload of n bytes and
// no text, so the decode side exercises pure pooled construction.
func benchTuple(n int) *spl.Tuple {
	t := spl.AcquireTuple()
	t.Seq = 42
	t.Key = 7
	t.Time = 123456789
	t.Num1 = 3.25
	t.Num2 = -1.5
	t.AcquirePayload(n)
	for i := range t.Payload {
		t.Payload[i] = byte(i)
	}
	return t
}

// runImportDrain consumes tuples from an import source on a dedicated
// goroutine until want tuples arrived, releasing each back to the pool.
func runImportDrain(imp *importSource, want uint64) (*atomic.Uint64, chan struct{}) {
	var got atomic.Uint64
	em := spl.EmitterFunc(func(_ int, t *spl.Tuple) {
		got.Add(1)
		t.Release()
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got.Load() < want && imp.Next(em) {
		}
	}()
	return &got, done
}

// BenchmarkExportImport measures the batched transport end to end over a
// loopback TCP pair: Process encodes into the open frame, the writer
// goroutine writes sealed frames, the reader validates them and the
// consuming goroutine builds pooled tuples. tuples/s is reported alongside
// ns/op.
func BenchmarkExportImport(b *testing.B) {
	for _, size := range benchPayloads {
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			send, recv := loopbackPair(b)
			exp := newExportOp("x")
			// A long block timeout makes the benchmark lossless: a spent
			// budget applies backpressure instead of dropping under burst.
			exp.cfg = TransportConfig{BlockTimeout: time.Minute}.withDefaults()
			exp.connect(send, "")
			imp := newImportSource("i")
			imp.connect(recv, nil)
			_, done := runImportDrain(imp, uint64(b.N))

			tp := benchTuple(size)
			defer tp.Release()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exp.Process(0, tp, nil)
			}
			<-done
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
			if exp.Dropped() != 0 {
				b.Fatalf("benchmark dropped %d tuples", exp.Dropped())
			}
			exp.close()
			imp.close()
		})
	}
}

// BenchmarkExportImportWire is BenchmarkExportImport with every row keyed
// as BENCH_9's batch rows (wire=batch/payload=N) and reporting gomaxprocs for
// provenance, plus a check that per-tuple Process calls actually share
// frames.
func BenchmarkExportImportWire(b *testing.B) {
	for _, size := range benchPayloads {
		b.Run(fmt.Sprintf("wire=batch/payload=%d", size), func(b *testing.B) {
			send, recv := loopbackPair(b)
			exp := newExportOp("x")
			exp.cfg = TransportConfig{BlockTimeout: time.Minute}.withDefaults()
			exp.connect(send, "")
			imp := newImportSource("i")
			imp.connect(recv, nil)
			_, done := runImportDrain(imp, uint64(b.N))

			tp := benchTuple(size)
			defer tp.Release()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exp.Process(0, tp, nil)
			}
			<-done
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			if exp.Dropped() != 0 {
				b.Fatalf("benchmark dropped %d tuples", exp.Dropped())
			}
			// Only meaningful at volume: in a tiny smoke run the writer can
			// seal every tuple alone and legitimately never amortize.
			if b.N >= 4096 && exp.WireFrames() >= exp.Sent() {
				b.Fatalf("sealed %d frames for %d tuples; no amortization", exp.WireFrames(), exp.Sent())
			}
			exp.close()
			imp.close()
		})
	}
}

// perTupleFlushSender replicates the pre-overhaul send path: a mutex around
// an encoder that flushes after every tuple, one syscall per frame.
type perTupleFlushSender struct {
	mu  sync.Mutex
	enc *encoder
}

func (s *perTupleFlushSender) send(t *spl.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.encode(t)
}

// BenchmarkExportImportPerTupleFlush is the flush-policy baseline: the same
// receive side, but the sender holds a lock, frames every tuple alone, and
// flushes every frame individually.
func BenchmarkExportImportPerTupleFlush(b *testing.B) {
	for _, size := range benchPayloads {
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			send, recv := loopbackPair(b)
			defer send.Close()
			sender := &perTupleFlushSender{enc: newEncoder(send)}
			// Drain the import's resume handshake and acknowledgements; the
			// raw baseline sender does not speak the back-channel protocol.
			go func() { _, _ = io.Copy(io.Discard, send) }()
			imp := newImportSource("i")
			imp.connect(recv, nil)
			defer imp.close()
			_, done := runImportDrain(imp, uint64(b.N))

			tp := benchTuple(size)
			defer tp.Release()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sender.send(tp); err != nil {
					b.Fatal(err)
				}
			}
			<-done
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkEncodeSteadyState measures single-tuple writeFrame with the
// scratch buffer warm: steady-state encoding must be allocation-free.
func BenchmarkEncodeSteadyState(b *testing.B) {
	enc := newEncoder(io.Discard)
	tp := benchTuple(64)
	defer tp.Release()
	if _, err := enc.writeFrame(tp); err != nil { // warm the scratch buffer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.writeFrame(tp); err != nil {
			b.Fatal(err)
		}
	}
}

// loopReader serves the same encoded frame forever, so decode benchmarks
// never hit EOF or a real connection.
type loopReader struct {
	frame []byte
	off   int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// encodedFrame returns one single-tuple wire frame for a payload of n bytes.
func encodedFrame(tb testing.TB, n int) []byte {
	tb.Helper()
	tp := benchTuple(n)
	defer tp.Release()
	var sink writeRecorder
	enc := newEncoder(&sink)
	if err := enc.encode(tp); err != nil {
		tb.Fatal(err)
	}
	return sink.buf
}

type writeRecorder struct{ buf []byte }

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// BenchmarkDecodeSteadyState measures pooled tuple construction from the
// wire: with the tuple and payload pools warm, decode must be
// allocation-free.
func BenchmarkDecodeSteadyState(b *testing.B) {
	dec := newDecoder(&loopReader{frame: encodedFrame(b, 64)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := decodeOne(dec)
		if err != nil {
			b.Fatal(err)
		}
		t.Release()
	}
}

// benchBatch returns writerBatchTuples pooled tuples with n-byte payloads —
// one full writer drain, the batch encode/decode unit of work.
func benchBatch(n int) []*spl.Tuple {
	ts := make([]*spl.Tuple, writerBatchTuples)
	for i := range ts {
		ts[i] = benchTuple(n)
		ts[i].Seq = uint64(i)
	}
	return ts
}

func releaseBatch(ts []*spl.Tuple) {
	for _, t := range ts {
		t.Release()
	}
}

// BenchmarkBatchEncodeSteadyState measures marshalBatchFrame with a warm
// scratch buffer: one full drain per op, reported per tuple via tuples/s.
// Steady-state batch encoding must be allocation-free.
func BenchmarkBatchEncodeSteadyState(b *testing.B) {
	ts := benchBatch(64)
	defer releaseBatch(ts)
	buf, err := marshalBatchFrame(nil, 1, ts) // warm the scratch buffer
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = marshalBatchFrame(buf, uint64(i)*writerBatchTuples+1, ts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*writerBatchTuples/b.Elapsed().Seconds(), "tuples/s")
}

// encodedBatchFrame returns one v2 wire frame carrying a full drain of
// payload-n tuples.
func encodedBatchFrame(tb testing.TB, n int) []byte {
	tb.Helper()
	ts := benchBatch(n)
	defer releaseBatch(ts)
	frame, err := marshalBatchFrame(nil, 1, ts)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// BenchmarkBatchDecodeSteadyState measures both decode passes on a full
// batch frame: one arena read and validation, then one RetainN materializing
// writerBatchTuples arena-view tuples per op. Steady-state batch decoding
// must be allocation-free with the pools warm.
func BenchmarkBatchDecodeSteadyState(b *testing.B) {
	dec := newDecoder(&loopReader{frame: encodedBatchFrame(b, 64)})
	out := make([]*spl.Tuple, maxBatchTuples)
	n, _, err := dec.decodeFrame(out) // warm the tuple and arena pools
	if err != nil {
		b.Fatal(err)
	}
	releaseAll(out[:n])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _, err := dec.decodeFrame(out)
		if err != nil {
			b.Fatal(err)
		}
		releaseAll(out[:n])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*writerBatchTuples/b.Elapsed().Seconds(), "tuples/s")
}

// TestBatchEncodeSteadyStateZeroAlloc pins the zero-alloc contract of batch
// frame marshalling independent of benchmark runs.
func TestBatchEncodeSteadyStateZeroAlloc(t *testing.T) {
	ts := benchBatch(64)
	defer releaseBatch(ts)
	buf, err := marshalBatchFrame(nil, 1, ts)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		b, err := marshalBatchFrame(buf, 1, ts)
		if err != nil {
			t.Fatal(err)
		}
		buf = b
	})
	if allocs != 0 {
		t.Fatalf("steady-state batch encode allocates %.1f objects per call, want 0", allocs)
	}
}

// TestBatchDecodeSteadyStateZeroAlloc pins the zero-alloc contract of the
// operator thread's share of decoding: building one validated full batch
// frame's tuples. Skipped under -race for the same reason as
// TestDecodeSteadyStateZeroAlloc: sync.Pool drops Puts there, and one batch
// frame cycles writerBatchTuples pooled tuples.
func TestBatchDecodeSteadyStateZeroAlloc(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("sync.Pool drops Puts under -race; zero-alloc steady state cannot hold")
	}
	dec := newDecoder(&loopReader{frame: encodedBatchFrame(t, 64)})
	f, err := dec.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	defer f.a.Release()
	out := make([]*spl.Tuple, maxBatchTuples)
	build := func() {
		f.a.Retain() // each build consumes a creator reference; keep the frame
		releaseAll(out[:buildFrame(f, out)])
	}
	build() // warm the tuple pool
	if allocs := testing.AllocsPerRun(100, build); allocs != 0 {
		t.Fatalf("steady-state frame build allocates %.1f objects per call, want 0", allocs)
	}
}

// TestEncodeSteadyStateZeroAlloc pins the zero-alloc contract of writeFrame
// independent of benchmark runs.
func TestEncodeSteadyStateZeroAlloc(t *testing.T) {
	enc := newEncoder(io.Discard)
	tp := benchTuple(64)
	defer tp.Release()
	if _, err := enc.writeFrame(tp); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := enc.writeFrame(tp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state writeFrame allocates %.1f objects per call, want 0", allocs)
	}
}

// TestDecodeSteadyStateZeroAlloc pins the zero-alloc contract of arena-backed
// decode tuple construction. Skipped under -race: sync.Pool drops ~25% of
// Puts there, and decode cycles three pooled objects per frame (tuple, arena,
// payload box), so the forced re-allocations exceed what AllocsPerRun's
// integer averaging hides. The non-race pass and the benchmarks keep the
// guard honest.
func TestDecodeSteadyStateZeroAlloc(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("sync.Pool drops Puts under -race; zero-alloc steady state cannot hold")
	}
	dec := newDecoder(&loopReader{frame: encodedFrame(t, 64)})
	warm, err := decodeOne(dec) // warm the tuple and payload pools
	if err != nil {
		t.Fatal(err)
	}
	warm.Release()
	allocs := testing.AllocsPerRun(100, func() {
		tp, err := decodeOne(dec)
		if err != nil {
			t.Fatal(err)
		}
		tp.Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state decode allocates %.1f objects per call, want 0", allocs)
	}
}
