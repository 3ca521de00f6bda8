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
	x.sealLocked()
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
// Process — mixed record lengths, with and without text and payload — seal
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

// TestExportHoldsOpenFrameBlock: a frame that opened a fresh block has
// sealed nothing there yet, so an acknowledgement of every sealed sequence
// covers the block; it must stay live while producers encode into it, and
// the frame must seal, arrive intact, and then be released like any other.
func TestExportHoldsOpenFrameBlock(t *testing.T) {
	x := bareExport(4 * logBlockBytes)
	ts := logTuples(1, 7, 20<<10) // three ~20 KiB records fill a block
	x.ProcessBatch(0, ts[:4], nil)
	if x.WireFrames() != 1 || x.frame.count != 1 || len(x.log.blocks) != 2 {
		t.Fatalf("fixture: %d frames sealed, %d records open, %d blocks; want 1, 1, 2",
			x.WireFrames(), x.frame.count, len(x.log.blocks))
	}
	var wire bytes.Buffer
	if _, err := x.log.flush(&wire, x.log.appended); err != nil {
		t.Fatal(err)
	}
	x.log.release(x.nextSeq - 1) // every sealed sequence
	if len(x.log.blocks) != 1 || x.log.blocks[0] != x.frame.blk || len(x.log.free) != 1 {
		t.Fatalf("after the ack: %d live blocks (open frame's kept: %v), %d free; want 1, true, 1",
			len(x.log.blocks), len(x.log.blocks) > 0 && x.log.blocks[0] == x.frame.blk, len(x.log.free))
	}
	if x.log.retained != logBlockBytes {
		t.Fatalf("retained %d, want the open frame's block", x.log.retained)
	}
	// Producers go on: the frame fills its block, seals, and the next one
	// takes the freed block from the free list.
	x.ProcessBatch(0, ts[4:], nil)
	if len(x.log.free) != 0 || len(x.log.blocks) != 2 {
		t.Fatalf("%d free and %d live blocks, want the freed block reused", len(x.log.free), len(x.log.blocks))
	}
	sealFlush(t, x, &wire)
	// Sealed, the frame's block is released like any other.
	if x.log.release(x.nextSeq); len(x.log.blocks) != 0 || x.log.retained != 0 {
		t.Fatalf("after acknowledging everything: %d live blocks, %d bytes retained", len(x.log.blocks), x.log.retained)
	}
	got := decodeWire(t, wire.Bytes())
	if len(got) != 3 || got[1].first != 4 || len(got[1].seqs) != 3 || got[2].first != 7 {
		t.Fatalf("decoded %+v, want frames from 1, 4 (three tuples) and 7", got)
	}
	for i, f := range got {
		for j, s := range f.seqs {
			if s != f.first+uint64(j) {
				t.Fatalf("frame %d tuple %d carries Seq %d, want %d", i, j, s, f.first+uint64(j))
			}
		}
	}
}

// TestExportFramesCutAtBlockRoom: with ragged records (no payload, 1 KiB,
// 20 KiB and an oversize 70 KiB one, with and without text) frames are cut
// where the next record would not fit the block's room; every sealed frame
// is byte-identical to marshalBatchFrame over the same tuples, and a gated
// import's pressure gauge, charged frame by frame, accounts exactly the
// block memory the export retains.
func TestExportFramesCutAtBlockRoom(t *testing.T) {
	sizes := []int{0, 1 << 10, 20 << 10, 1 << 10, 0, 20 << 10, 20 << 10}
	var ts []*spl.Tuple
	for i := 0; i < 400; i++ {
		tp := &spl.Tuple{Seq: uint64(i), Key: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, sizes[i%len(sizes)])}
		if i%3 == 0 {
			tp.Text = "text of a record"
		}
		if i == 150 {
			tp.Payload = make([]byte, 70<<10)
		}
		ts = append(ts, tp)
	}
	x := bareExport(1 << 30)
	imp := newImportSource("i")
	imp.armPressure(1<<62, func() {})
	var wire []byte
	cutByRoom := 0
	check := func() {
		t.Helper()
		var buf bytes.Buffer
		if _, err := x.log.flush(&buf, x.log.appended); err != nil {
			t.Fatal(err)
		}
		wire = append(wire, buf.Bytes()...)
		for b := buf.Bytes(); len(b) > 0; {
			size, first, last := frameSpan(b)
			want, err := marshalBatchFrame(nil, first, ts[first-1:last])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b[:size], want) {
				t.Fatalf("frame %d..%d: sealed bytes differ from marshalBatchFrame", first, last)
			}
			if n := last - first + 1; n < writerBatchTuples && last < uint64(len(ts)) && size <= logBlockBytes {
				cutByRoom++
			}
			imp.notePressure(size)
			b = b[size:]
		}
		// The open frame's block is charged when the frame opens; the
		// import charges it with the frame.
		open, room := 0, imp.pressRoom
		if f := x.frame; f.count > 0 {
			open = blockCharge(&room, 4+batchHeaderBytes+batchRecordBytes(ts[f.first-1]))
		}
		if g := imp.winBytes.Load() + uint64(open); g != uint64(x.log.retained) {
			t.Fatalf("pressure gauge %d + open frame %d, export retains %d", imp.winBytes.Load(), open, x.log.retained)
		}
	}
	for _, tp := range ts {
		x.Process(0, tp, nil)
		check()
	}
	x.sealLocked()
	check()
	if cutByRoom < 10 {
		t.Fatalf("%d frames cut at block room, want the ragged stream to cut many", cutByRoom)
	}
	var seqs []uint64
	for _, f := range decodeWire(t, wire) {
		seqs = append(seqs, f.seqs...)
	}
	if len(seqs) != len(ts) {
		t.Fatalf("decoded %d tuples, appended %d", len(seqs), len(ts))
	}
}
