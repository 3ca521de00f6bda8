package pe

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"streamelastic/internal/spl"
)

// wiredExport connects an export with a two-block budget to one end of an
// in-memory pipe and returns the other end. The writer waits in attach for
// the resume handshake, so until the test sends one only producers cut
// frames, and a peer that never acknowledges leaves the budget spent.
func wiredExport(t *testing.T, cfg TransportConfig) (*exportOp, net.Conn) {
	t.Helper()
	send, peer := net.Pipe()
	exp := newExportOp("x")
	cfg.RetransmitBytes = 2 * logBlockBytes
	exp.cfg = cfg.withDefaults()
	if err := exp.connect(send, ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = peer.Close()
		exp.close()
	})
	return exp, peer
}

// drainPeer reads frames from an export's peer end, acknowledging each,
// until want tuples arrived, and returns their Seqs and payloads.
func drainPeer(t *testing.T, peer net.Conn, want uint64) (seqs []uint64, payloads [][]byte) {
	t.Helper()
	dec := newDecoder(peer)
	out := make([]*spl.Tuple, maxBatchTuples)
	for uint64(len(seqs)) < want {
		n, first, err := dec.decodeFrame(out)
		if err != nil {
			t.Fatalf("peer read after %d of %d tuples: %v", len(seqs), want, err)
		}
		for _, tp := range out[:n] {
			seqs = append(seqs, tp.Seq)
			payloads = append(payloads, append([]byte(nil), tp.Payload...))
		}
		releaseAll(out[:n])
		var ack [8]byte
		binary.LittleEndian.PutUint64(ack[:], first+uint64(n)-1)
		if _, err := peer.Write(ack[:]); err != nil {
			t.Fatal(err)
		}
	}
	return seqs, payloads
}

// bareExport is a wired export with no writer goroutine: tests append to
// it and seal and flush its log by hand.
func bareExport(budget int) *exportOp {
	x := newExportOp("x")
	x.cfg = TransportConfig{RetransmitBytes: budget}.withDefaults()
	x.log = newBlockLog(x.cfg.RetransmitBytes)
	x.wired.Store(true)
	return x
}

// sealFlush seals a bare export's open frame and writes everything sealed
// to w, as one writer round does.
func sealFlush(tb testing.TB, x *exportOp, w io.Writer) {
	x.amu.Lock()
	defer x.amu.Unlock()
	if !x.sealLocked() {
		tb.Fatal("no block memory to seal the open frame")
	}
	if _, err := x.log.flush(w, x.log.appended); err != nil {
		tb.Fatal(err)
	}
}

// TestExportBatchEquivalence pins the BatchProcessor contract on the export:
// ProcessBatch(ts) sends the same tuples in the same order, and moves the
// same counters, as Process called on each tuple — with room in the log,
// with the log overflowing under DropOnFull, with the log already full, and
// on a stream that cannot take tuples at all.
func TestExportBatchEquivalence(t *testing.T) {
	const n = 3*64 + 7 // several producer batches and a ragged tail
	cases := []struct {
		name    string
		payload int
		cfg     TransportConfig
		prep    func(*exportOp, net.Conn)
	}{
		{"log has room", 24, TransportConfig{}, nil},
		{"log overflows, DropOnFull", 2048, TransportConfig{DropOnFull: true}, nil},
		{"log already full, DropOnFull", 24, TransportConfig{DropOnFull: true}, func(x *exportOp, _ net.Conn) {
			x.ProcessBatch(0, logTuples(900, 600, 1024), nil)
		}},
		{"closed stream", 24, TransportConfig{}, func(x *exportOp, peer net.Conn) {
			handshakeFrom(peer)
			x.close()
		}},
	}
	for _, tc := range cases {
		in := logTuples(1, n, tc.payload)
		type outcome struct {
			seqs     []uint64
			payloads [][]byte
			dropped  uint64
		}
		run := func(batch bool) outcome {
			exp, peer := wiredExport(t, tc.cfg)
			if tc.prep != nil {
				tc.prep(exp, peer)
			}
			if batch {
				exp.ProcessBatch(0, in, nil)
			} else {
				for _, tp := range in {
					exp.Process(0, tp, nil)
				}
			}
			var o outcome
			o.dropped = exp.Dropped()
			if sent := exp.Sent(); sent > 0 {
				handshakeFrom(peer)
				o.seqs, o.payloads = drainPeer(t, peer, sent)
			}
			return o
		}
		one, all := run(false), run(true)
		if one.dropped != all.dropped {
			t.Errorf("%s: Process dropped %d, ProcessBatch %d", tc.name, one.dropped, all.dropped)
		}
		if len(one.seqs) != len(all.seqs) {
			t.Errorf("%s: Process sent %d tuples, ProcessBatch %d", tc.name, len(one.seqs), len(all.seqs))
			continue
		}
		if uint64(len(all.seqs))+all.dropped < n {
			t.Errorf("%s: %d sent + %d dropped does not cover the %d tuples offered", tc.name, len(all.seqs), all.dropped, n)
		}
		for i := range one.seqs {
			if one.seqs[i] != all.seqs[i] || !bytes.Equal(one.payloads[i], all.payloads[i]) {
				t.Errorf("%s: sent tuple %d differs: Process Seq %d, ProcessBatch Seq %d", tc.name, i, one.seqs[i], all.seqs[i])
				break
			}
		}
		for _, tp := range in {
			if len(tp.Payload) != tc.payload {
				t.Fatal("sending touched the caller's tuple")
			}
		}
	}
}

// TestExportBatchBlocksThenCompletes: with bounded blocking (the default) a
// batch larger than the log's budget is sent completely and in order once
// the peer acknowledges — the refused remainder waits, it is not dropped.
func TestExportBatchBlocksThenCompletes(t *testing.T) {
	const n = 500 // ~500 KiB against a 128 KiB budget
	exp, peer := wiredExport(t, TransportConfig{BlockTimeout: 30 * time.Second})
	in := logTuples(1, n, 1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		exp.ProcessBatch(0, in, nil)
	}()
	handshakeFrom(peer)
	got, _ := drainPeer(t, peer, n)
	<-done
	if len(got) != n || exp.Dropped() != 0 {
		t.Fatalf("sent %d of %d, dropped %d", len(got), n, exp.Dropped())
	}
	for i, s := range got {
		if s != uint64(i+1) {
			t.Fatalf("sent tuple %d has Seq %d: order not preserved", i, s)
		}
	}
}

// TestExportConcurrentProducers: several engine threads appending to one
// export at once — batches of varying size and single tuples — while the
// writer seals and writes over a small budget: every tuple arrives exactly
// once, each producer's tuples in its own order.
func TestExportConcurrentProducers(t *testing.T) {
	const producers, per = 4, 3000
	send, recv := loopbackPair(t)
	exp := newExportOp("x")
	exp.cfg = TransportConfig{RetransmitBytes: 4 * logBlockBytes, BlockTimeout: time.Minute}.withDefaults()
	if err := exp.connect(send, ""); err != nil {
		t.Fatal(err)
	}
	defer exp.close()
	imp := newImportSource("i")
	imp.connect(recv, nil)
	defer imp.close()
	last := make([]int, producers)
	for i := range last {
		last[i] = -1
	}
	var got, bad int
	collect := spl.EmitterFunc(func(_ int, tp *spl.Tuple) {
		p, i := int(tp.Key), int(tp.Seq)
		if p >= producers || i != last[p]+1 {
			bad++
		} else {
			last[p] = i
		}
		got++
		tp.Release()
	})
	for p := 0; p < producers; p++ {
		go func(p int) {
			ts := make([]*spl.Tuple, per)
			for i := range ts {
				ts[i] = &spl.Tuple{Seq: uint64(i), Key: uint64(p), Payload: make([]byte, 16+i%200)}
			}
			for i := 0; i < per; {
				n := min(1+(i*7+p)%97, per-i)
				if n%5 == 0 {
					exp.Process(0, ts[i], nil)
					n = 1
				} else {
					exp.ProcessBatch(0, ts[i:i+n], nil)
				}
				i += n
			}
		}(p)
	}
	deadline := time.Now().Add(30 * time.Second)
	for got < producers*per && time.Now().Before(deadline) && imp.Next(collect) {
	}
	if got != producers*per || bad != 0 || exp.Dropped() != 0 {
		t.Fatalf("received %d of %d tuples, %d out of order or foreign, %d dropped", got, producers*per, bad, exp.Dropped())
	}
}

// TestExportFramesMatchMarshal: tuples appended through ProcessBatch and
// Process — mixed record lengths, so both zigzag delta signs occur — seal
// into bytes identical to marshalBatchFrame over the same tuples and base
// sequence, a frame cut at writerBatchTuples included.
func TestExportFramesMatchMarshal(t *testing.T) {
	var ts []*spl.Tuple
	for len(ts) < writerBatchTuples+40 {
		ts = append(ts, batchFixtureTuples()...)
	}
	x := bareExport(1 << 20)
	x.ProcessBatch(0, ts[:100], nil)
	for _, tp := range ts[100:] {
		x.Process(0, tp, nil)
	}
	var wire bytes.Buffer
	sealFlush(t, x, &wire)
	var want []byte
	for first := 0; first < len(ts); first += writerBatchTuples {
		frame, err := marshalBatchFrame(nil, uint64(first)+1, ts[first:min(first+writerBatchTuples, len(ts))])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame...)
	}
	if !bytes.Equal(wire.Bytes(), want) {
		t.Fatalf("sealed %d bytes differ from marshalBatchFrame's %d", wire.Len(), len(want))
	}
	if x.Sent() != uint64(len(ts)) || x.WireFrames() != 2 {
		t.Fatalf("sent %d tuples in %d frames, want %d in 2", x.Sent(), x.WireFrames(), len(ts))
	}
}

// TestExportStagedDepth: an export holding an unsealed open frame reports
// non-zero StagedDepth, and zero once the frame is sealed and flushed.
func TestExportStagedDepth(t *testing.T) {
	x := bareExport(1 << 20)
	if d := x.StagedDepth(); d != 0 {
		t.Fatalf("empty export staged %d bytes", d)
	}
	ts := logTuples(1, 10, 32)
	x.ProcessBatch(0, ts, nil)
	if d, want := x.StagedDepth(), 4+batchBodyBytes(ts); d != want {
		t.Fatalf("open frame of %d tuples staged %d bytes, want %d", len(ts), d, want)
	}
	sealFlush(t, x, io.Discard)
	if d := x.StagedDepth(); d != 0 {
		t.Fatalf("staged %d bytes after seal and flush", d)
	}
}

// TestExportProcessBatchSteadyStateZeroAlloc: once the open frame's buffers
// and the block free list are warm, encoding a 64-tuple batch — and sealing,
// writing and releasing it — allocates nothing.
func TestExportProcessBatchSteadyStateZeroAlloc(t *testing.T) {
	x := bareExport(4 * logBlockBytes)
	all := benchBatch(16)
	defer releaseBatch(all)
	ts := all[:64]
	step := func() {
		x.ProcessBatch(0, ts, nil)
		sealFlush(t, x, io.Discard)
		x.log.release(x.nextSeq)
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("steady-state ProcessBatch of 64 tuples allocates %.2f objects, want 0", avg)
	}
}
