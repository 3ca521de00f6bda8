package pe

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamelastic/internal/graph"
	"streamelastic/internal/spl"
)

// loopbackPair returns a connected TCP pair on loopback.
func loopbackPair(tb testing.TB) (send, recv net.Conn) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	accCh := acceptOne(ln)
	send, err = dialStream(ln.Addr().String(), 5*time.Second)
	if err != nil {
		tb.Fatal(err)
	}
	acc := <-accCh
	if acc.err != nil {
		tb.Fatal(acc.err)
	}
	return send, acc.conn
}

// handshakeFrom writes the import side's resume handshake (watermark 0) so
// an export's writer attaches; used by tests that drive the raw receive
// side of a connection themselves.
func handshakeFrom(conn net.Conn) {
	var b [8]byte
	_, _ = conn.Write(b[:])
}

func TestExportDropsBeforeConnect(t *testing.T) {
	exp := newExportOp("x")
	tp := spl.AcquireTuple()
	defer tp.Release()
	for i := 0; i < 3; i++ {
		exp.Process(0, tp, nil)
	}
	if got := exp.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	if exp.Sent() != 0 {
		t.Fatalf("sent = %d before connect", exp.Sent())
	}
}

func TestExportCountersConvergeWhenPeerDies(t *testing.T) {
	send, recv := loopbackPair(t)
	exp := newExportOp("x")
	exp.cfg = TransportConfig{BlockTimeout: 50 * time.Millisecond}.withDefaults()
	// No redial address: losing the peer fails the stream permanently.
	exp.connect(send, "")
	defer exp.close()
	_ = recv.Close()

	tp := spl.AcquireTuple()
	tp.AcquirePayload(1024)
	defer tp.Release()

	pushed := uint64(0)
	deadline := time.Now().Add(10 * time.Second)
	for !exp.failed.Load() && time.Now().Before(deadline) {
		exp.Process(0, tp, nil)
		pushed++
		time.Sleep(100 * time.Microsecond)
	}
	if !exp.failed.Load() {
		t.Fatal("export never observed the dead peer")
	}
	// Pushes after the error are dropped immediately, not silently lost.
	exp.Process(0, tp, nil)
	pushed++

	// Every pushed tuple is accounted for once the writer drains: counters
	// match what the producer handed over.
	for time.Now().Before(deadline) {
		if exp.Sent()+exp.Dropped() == pushed {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counters never converged: pushed %d, sent %d + dropped %d",
		pushed, exp.Sent(), exp.Dropped())
}

func TestDialStreamRetriesUntilListenerUp(t *testing.T) {
	// Reserve an address, release it, and only start listening after the
	// dialer has begun retrying — the PE launch-order race.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	lnCh := make(chan net.Listener, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		l, err := net.Listen("tcp", addr)
		if err != nil {
			lnCh <- nil
			return
		}
		lnCh <- l
	}()
	conn, err := dialStream(addr, 5*time.Second)
	l := <-lnCh
	if l == nil {
		t.Skip("could not rebind reserved port")
	}
	defer l.Close()
	if err != nil {
		t.Fatalf("dialStream did not retry to success: %v", err)
	}
	_ = conn.Close()
}

func TestDialStreamTimesOutWithoutListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	start := time.Now()
	if _, err := dialStream(addr, 200*time.Millisecond); err == nil {
		t.Fatal("dial to dead address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("dial retried for %v past its 200ms budget", elapsed)
	}
}

// wedgeWriter sends 16 KiB tuples until the writer goroutine is stuck in a
// write against the unread pipe and the two-block budget is spent — the
// first tuple the export cannot take is dropped — then returns the
// template tuple used for pushing.
func wedgeWriter(t *testing.T, exp *exportOp) *spl.Tuple {
	t.Helper()
	tp := spl.AcquireTuple()
	tp.AcquirePayload(16 << 10)
	for i := 0; i < 64 && exp.Dropped() == 0; i++ {
		exp.Process(0, tp, nil)
	}
	if exp.Dropped() == 0 {
		t.Fatal("64 tuples of 16 KiB never spent a two-block budget")
	}
	return tp
}

// TestExportDropOnFull pins the latency end of the full-edge policy: with a
// microsecond BlockTimeout a full edge drops and counts the tuple at once.
func TestExportDropOnFull(t *testing.T) {
	send, recv := net.Pipe()
	defer recv.Close()
	exp := newExportOp("x")
	exp.cfg = TransportConfig{RetransmitBytes: 2 * logBlockBytes, BlockTimeout: time.Microsecond}.withDefaults()
	go handshakeFrom(recv) // net.Pipe writes block until read
	exp.connect(send, "")
	tp := wedgeWriter(t, exp)
	defer tp.Release()

	before := exp.Dropped()
	start := time.Now()
	exp.Process(0, tp, nil)
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("a 1µs timeout blocked for %v", elapsed)
	}
	if exp.Dropped() != before+1 {
		t.Fatalf("dropped = %d, want %d", exp.Dropped(), before+1)
	}
	_ = recv.Close() // unwedge the writer before close
	exp.close()
}

func TestExportBoundedBlockingOnFull(t *testing.T) {
	send, recv := net.Pipe()
	defer recv.Close()
	exp := newExportOp("x")
	exp.cfg = TransportConfig{RetransmitBytes: 2 * logBlockBytes, BlockTimeout: 120 * time.Millisecond}.withDefaults()
	go handshakeFrom(recv) // net.Pipe writes block until read
	exp.connect(send, "")
	tp := wedgeWriter(t, exp)
	defer tp.Release()

	// The budget is spent and the peer never acknowledges: the
	// bounded-blocking mode must hold the producer for about BlockTimeout,
	// then drop.
	before := exp.Dropped()
	start := time.Now()
	exp.Process(0, tp, nil)
	elapsed := time.Since(start)
	if exp.Dropped() != before+1 {
		t.Fatalf("dropped = %d, want %d", exp.Dropped(), before+1)
	}
	if elapsed < 80*time.Millisecond {
		t.Fatalf("blocked only %v, want about the 120ms budget", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("blocked %v, far past the 120ms budget", elapsed)
	}
	_ = recv.Close() // unwedge the writer before close
	exp.close()
}

func TestImportIdlePollZeroAlloc(t *testing.T) {
	send, recv := net.Pipe()
	imp := newImportSource("i")
	imp.connect(recv, nil)
	defer func() {
		_ = send.Close()
		imp.close()
	}()
	// Warm up: the first Next lazily creates the reusable timer.
	imp.Next(spl.DiscardEmitter)
	allocs := testing.AllocsPerRun(3, func() {
		imp.Next(spl.DiscardEmitter)
	})
	if allocs != 0 {
		t.Fatalf("idle import poll allocates %.1f objects per call, want 0", allocs)
	}
}

// seqSink records every received sequence number for exactly-once checks.
type seqSink struct {
	mu    sync.Mutex
	seen  map[uint64]int
	dups  int
	count atomic.Uint64
}

func newSeqSink() *seqSink { return &seqSink{seen: make(map[uint64]int)} }

func (s *seqSink) Name() string { return "seqsink" }

func (s *seqSink) RecyclesTuples() {}

func (s *seqSink) Process(_ int, t *spl.Tuple, _ spl.Emitter) {
	s.mu.Lock()
	s.seen[t.Seq]++
	if s.seen[t.Seq] > 1 {
		s.dups++
	}
	s.mu.Unlock()
	s.count.Add(1)
}

// seqJob builds src -> work -> work -> seqSink split across two PEs.
func seqJob(t *testing.T, tuples uint64) (*graph.Graph, *seqSink) {
	t.Helper()
	g := graph.New()
	gen := spl.NewGenerator("src", 64)
	gen.MaxTuples = tuples
	prev := g.AddSource(gen, spl.NewCostVar(10))
	for i := 0; i < 2; i++ {
		cv := spl.NewCostVar(100)
		id := g.AddOperator(spl.NewWork("w", cv), cv)
		if err := g.Connect(prev, 0, id, 0, 1); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	sink := newSeqSink()
	sid := g.AddOperator(sink, spl.NewCostVar(0))
	if err := g.Connect(prev, 0, sid, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g, sink
}

// TestStreamNoLossNoDuplication pushes a bounded stream across a PE
// boundary and verifies exactly-once delivery end to end: every sequence
// number arrives, none arrives twice, and both ends' counters agree.
// RACE_PKGS includes this package, so the whole transport (producer-side
// encode, writer goroutine, reader validation, operator-thread build) runs
// under -race.
func TestStreamNoLossNoDuplication(t *testing.T) {
	const n = 12000
	g, sink := seqJob(t, n)
	assign := Assignment{0, 0, 1, 1}
	job, err := Launch(g, assign, Options{DisableElasticity: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(context.Background()); err != nil {
		job.Stop()
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for sink.count.Load() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !job.DrainAndStop(30 * time.Second) {
		t.Fatal("job did not drain")
	}
	if sink.dups != 0 {
		t.Fatalf("%d duplicated tuples", sink.dups)
	}
	if len(sink.seen) != n {
		t.Fatalf("received %d distinct tuples, want %d", len(sink.seen), n)
	}
	for seq := uint64(0); seq < n; seq++ {
		if sink.seen[seq] != 1 {
			t.Fatalf("seq %d seen %d times", seq, sink.seen[seq])
		}
	}

	stats := job.StreamStats()
	if len(stats) != 1 {
		t.Fatalf("stream stats = %+v, want 1 stream", stats)
	}
	st := stats[0]
	if st.Sent != n || st.Received != n || st.Dropped != 0 {
		t.Fatalf("stream counters sent=%d received=%d dropped=%d, want %d/%d/0",
			st.Sent, st.Received, st.Dropped, n, n)
	}
	if st.BytesSent == 0 || st.BytesSent != st.BytesReceived {
		t.Fatalf("wire bytes disagree: sent %d, received %d", st.BytesSent, st.BytesReceived)
	}
	if st.Flushes == 0 {
		t.Fatal("no flushes recorded")
	}
	// DrainSizes counts tuples per sealed frame: one sample per frame, and
	// the samples' log2 buckets bound the tuples they carry.
	var frames, lo uint64
	for i, c := range st.DrainSizes {
		frames += c
		lo += c << i
	}
	if frames != st.WireFrames || frames == 0 {
		t.Fatalf("frame-size histogram holds %d frames, the stream sealed %d", frames, st.WireFrames)
	}
	if lo > st.Sent || 2*lo <= st.Sent-frames {
		t.Fatalf("frame-size buckets put %d..%d tuples in frames, the stream sent %d", lo, 2*lo, st.Sent)
	}
}
