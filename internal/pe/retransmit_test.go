package pe

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"streamelastic/internal/spl"
)

// logTuples builds n tuples carrying payload bytes each, Seq numbered from
// seq0 so decoded frames can be matched back to what was staged.
func logTuples(seq0 uint64, n, payload int) []*spl.Tuple {
	ts := make([]*spl.Tuple, n)
	for i := range ts {
		ts[i] = &spl.Tuple{Seq: seq0 + uint64(i), Key: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, payload)}
	}
	return ts
}

// stageBatchFrame appends ts as one batch frame starting at wire sequence
// first, failing the test if the log reports full.
func stageBatchFrame(t *testing.T, l *blockLog, first uint64, ts []*spl.Tuple, acked uint64) {
	t.Helper()
	body := batchBodyBytes(ts)
	if l.full(4+body, acked) {
		t.Fatalf("log full staging frame at seq %d (retained %d of %d)", first, l.retained, l.budget)
	}
	l.appendBatch(first, ts, body)
}

// wireFrame is one decoded frame: the wire sequence of its first tuple and
// the application Seq of each tuple it carried.
type wireFrame struct {
	first uint64
	seqs  []uint64
}

// decodeWire decodes every frame in wire, releasing the tuples.
func decodeWire(t *testing.T, wire []byte) []wireFrame {
	t.Helper()
	dec := newDecoder(bytes.NewReader(wire))
	scratch := make([]*spl.Tuple, maxBatchTuples)
	var out []wireFrame
	for {
		n, first, err := dec.decodeFrame(scratch)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("decode frame %d: %v", len(out), err)
		}
		f := wireFrame{first: first}
		for _, tp := range scratch[:n] {
			f.seqs = append(f.seqs, tp.Seq)
		}
		releaseAll(scratch[:n])
		out = append(out, f)
	}
}

// flush writes the log's unsent bytes up to upTo to w the way the export's
// writer does — gather, write, step the cursor — and returns the bytes
// written.
func (l *blockLog) flush(w io.Writer, upTo uint64) (int, error) {
	iov := l.gather(upTo)
	if len(iov) == 0 {
		return 0, nil
	}
	n, err := l.write(w, iov)
	l.wrote(n)
	return n, err
}

// skip advances the written cursor to the end of the log without sending:
// the frames in between stay in the window and ride it to the next
// connection epoch.
func (l *blockLog) skip() {
	l.written = l.appended
	if n := len(l.blocks); n > 0 {
		l.wIdx, l.wOff = n-1, len(l.blocks[n-1].buf)
	}
}

func flushAll(t *testing.T, l *blockLog) []byte {
	t.Helper()
	var buf bytes.Buffer
	want := l.buffered()
	n, err := l.flush(&buf, l.appended)
	if err != nil || n != want || buf.Len() != want {
		t.Fatalf("flush wrote %d (buffer %d), want %d, err %v", n, buf.Len(), want, err)
	}
	if l.buffered() != 0 {
		t.Fatalf("%d bytes still buffered after flush", l.buffered())
	}
	return buf.Bytes()
}

// TestBlockLogRoundTrip stages multi- and single-tuple frames across
// several blocks, flushes them straight from block memory, and acknowledges
// everything: the wire must decode to exactly what was staged and the
// retained bytes must return to zero with the blocks on the free list.
func TestBlockLogRoundTrip(t *testing.T) {
	l := newBlockLog(1 << 20)
	seq := uint64(0)
	var want []wireFrame
	for f := 0; f < 40; f++ {
		ts := logTuples(1000+seq, 16, 500)
		if f%5 == 4 {
			ts = logTuples(1000+seq, 1, 300)
		}
		stageBatchFrame(t, l, seq+1, ts, 0)
		wf := wireFrame{first: seq + 1}
		for _, tp := range ts {
			wf.seqs = append(wf.seqs, tp.Seq)
		}
		want = append(want, wf)
		seq += uint64(len(ts))
	}
	if len(l.blocks) < 3 {
		t.Fatalf("fixture fits %d blocks, want it to span several", len(l.blocks))
	}
	if l.retained != len(l.blocks)*logBlockBytes {
		t.Fatalf("retained %d with %d live blocks", l.retained, len(l.blocks))
	}
	got := decodeWire(t, flushAll(t, l))
	if len(got) != len(want) {
		t.Fatalf("decoded %d frames, staged %d", len(got), len(want))
	}
	for i := range want {
		if got[i].first != want[i].first || len(got[i].seqs) != len(want[i].seqs) {
			t.Fatalf("frame %d: got first %d (%d tuples), want first %d (%d tuples)",
				i, got[i].first, len(got[i].seqs), want[i].first, len(want[i].seqs))
		}
		for j := range want[i].seqs {
			if got[i].seqs[j] != want[i].seqs[j] {
				t.Fatalf("frame %d tuple %d: Seq %d, want %d", i, j, got[i].seqs[j], want[i].seqs[j])
			}
		}
	}
	blocks := len(l.blocks)
	l.release(seq - 1)
	if len(l.blocks) != 1 {
		t.Fatalf("ack below the last sequence left %d live blocks, want the open one", len(l.blocks))
	}
	l.release(seq)
	if l.retained != 0 || len(l.blocks) != 0 {
		t.Fatalf("after full ack: retained %d bytes in %d blocks, want 0", l.retained, len(l.blocks))
	}
	if len(l.free) != blocks {
		t.Fatalf("free list holds %d blocks, released %d", len(l.free), blocks)
	}
	if l.buffered() != 0 {
		t.Fatalf("%d bytes buffered in an empty log", l.buffered())
	}
	// The log keeps working from empty: the next frame reuses a free block.
	stageBatchFrame(t, l, seq+1, logTuples(0, 4, 10), seq)
	if len(l.free) != blocks-1 || l.retained != logBlockBytes {
		t.Fatalf("restart: free %d retained %d", len(l.free), l.retained)
	}
	if got := decodeWire(t, flushAll(t, l)); len(got) != 1 || got[0].first != seq+1 {
		t.Fatalf("restart frame decoded as %+v", got)
	}
}

// TestBlockLogResume pins the resume contract: every frame carrying
// sequences past the watermark is re-sent whole, oldest first, whether the
// watermark falls on a frame boundary in the middle of a block or in the
// middle of a batch frame.
func TestBlockLogResume(t *testing.T) {
	const perFrame, frames = 8, 60
	l := newBlockLog(4 << 20)
	for f := 0; f < frames; f++ {
		stageBatchFrame(t, l, uint64(f*perFrame)+1, logTuples(uint64(f*perFrame), perFrame, 700), 0)
	}
	if len(l.blocks) < 4 {
		t.Fatalf("fixture spans %d blocks", len(l.blocks))
	}
	flushAll(t, l)
	head := uint64(frames * perFrame)

	// midBlock: the last sequence of the second frame of the second block.
	second := l.blocks[1]
	size, _, _ := frameSpan(second.buf)
	_, _, last := frameSpan(second.buf[size:])
	cases := []struct {
		name      string
		resume    uint64
		wantFirst uint64 // wire sequence of the first re-sent frame
	}{
		{"frame boundary mid-block", last, last + 1},
		{"mid batch frame", last + 3, last + 1},
		{"nothing delivered", 0, 1},
		{"all but the last tuple", head - 1, head - perFrame + 1},
	}
	for _, tc := range cases {
		fr, tuples, err := l.resumeFrom(tc.resume)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := decodeWire(t, flushAll(t, l))
		if len(got) != fr || len(got) == 0 {
			t.Fatalf("%s: re-sent %d frames, resumeFrom reported %d", tc.name, len(got), fr)
		}
		if got[0].first != tc.wantFirst {
			t.Fatalf("%s: first re-sent frame starts at %d, want %d", tc.name, got[0].first, tc.wantFirst)
		}
		if tuples != head-tc.resume {
			t.Fatalf("%s: reported %d tuples past the watermark, want %d", tc.name, tuples, head-tc.resume)
		}
		next := tc.wantFirst
		for i, f := range got {
			if f.first != next || len(f.seqs) != perFrame {
				t.Fatalf("%s: frame %d starts at %d with %d tuples, want %d with %d (whole frames, no gap)",
					tc.name, i, f.first, len(f.seqs), next, perFrame)
			}
			next += perFrame
		}
		if next != head+1 {
			t.Fatalf("%s: re-sent frames end at %d, want %d", tc.name, next-1, head)
		}
	}

	// Everything delivered: nothing to re-send.
	if fr, tuples, err := l.resumeFrom(head); err != nil || fr != 0 || tuples != 0 || l.buffered() != 0 {
		t.Fatalf("resume at head: frames %d tuples %d buffered %d err %v", fr, tuples, l.buffered(), err)
	}
}

// TestBlockLogResumeGap: a watermark older than the oldest retained frame
// is a gap, reported with the transport's existing error.
func TestBlockLogResumeGap(t *testing.T) {
	l := newBlockLog(1 << 20)
	for f := 0; f < 30; f++ {
		stageBatchFrame(t, l, uint64(f*8)+1, logTuples(0, 8, 700), 0)
	}
	flushAll(t, l)
	oldest := l.blocks[1].first
	l.release(oldest - 1) // frees the first block
	if l.blocks[0].first != oldest {
		t.Fatalf("oldest retained sequence %d, want %d", l.blocks[0].first, oldest)
	}
	_, _, err := l.resumeFrom(oldest - 10)
	if err == nil || !strings.Contains(err.Error(), "left the retransmit window") {
		t.Fatalf("resume behind the window: err %v, want the left-the-window error", err)
	}
	if fr, _, err := l.resumeFrom(oldest - 1); err != nil || fr == 0 {
		t.Fatalf("resume at the window's edge: frames %d err %v", fr, err)
	}
}

// TestBlockLogOversizeFrame: a frame larger than a block gets a dedicated
// block charged at its own size, never joins the free list, and the frames
// after it go on in pooled blocks.
func TestBlockLogOversizeFrame(t *testing.T) {
	l := newBlockLog(1 << 20)
	stageBatchFrame(t, l, 1, logTuples(0, 4, 100), 0)
	big := logTuples(100, 1, 3*logBlockBytes)
	bigSize := 4 + batchBodyBytes(big)
	stageBatchFrame(t, l, 5, big, 0)
	stageBatchFrame(t, l, 6, logTuples(200, 4, 100), 0)
	if len(l.blocks) != 3 {
		t.Fatalf("%d live blocks, want small/oversize/small", len(l.blocks))
	}
	if got := cap(l.blocks[1].buf); got != bigSize {
		t.Fatalf("oversize block capacity %d, want the frame's %d", got, bigSize)
	}
	if want := 2*logBlockBytes + bigSize; l.retained != want {
		t.Fatalf("retained %d, want %d", l.retained, want)
	}
	got := decodeWire(t, flushAll(t, l))
	if len(got) != 3 || got[1].first != 5 || got[1].seqs[0] != 100 || got[2].first != 6 {
		t.Fatalf("decoded %+v", got)
	}
	l.release(9)
	if l.retained != 0 || len(l.free) != 2 {
		t.Fatalf("after ack: retained %d, free list %d blocks (the oversize block must go to the collector)", l.retained, len(l.free))
	}
	// Larger than the whole budget, alone in an empty log: admitted.
	if huge := 2 << 20; l.full(huge, 9) {
		t.Fatalf("empty log refused a %d-byte frame", huge)
	}
}

// TestBlockLogBudget: the log reports full when the next block would pass
// the byte budget, an acknowledgement unblocks it, and live plus free-listed
// block memory never exceeds the budget.
func TestBlockLogBudget(t *testing.T) {
	const budget = 8 * logBlockBytes
	l := newBlockLog(budget)
	frame := logTuples(0, 16, 1000) // ~16 KiB: four to a block
	size := 4 + batchBodyBytes(frame)
	check := func() {
		t.Helper()
		if held := l.retained + len(l.free)*logBlockBytes; held > budget {
			t.Fatalf("holding %d bytes (%d live + %d free blocks), budget %d", held, l.retained, len(l.free), budget)
		}
	}
	seq, acked := uint64(0), uint64(0)
	for !l.full(size, acked) {
		l.appendBatch(seq+1, frame, size-4)
		seq += uint64(len(frame))
		check()
	}
	if l.retained != budget {
		t.Fatalf("full at %d retained bytes, want the budget %d", l.retained, budget)
	}
	if !l.full(size, acked) {
		t.Fatal("full did not stay full without an ack")
	}
	acked = l.blocks[0].last - 1
	if !l.full(size, acked) {
		t.Fatal("an ack short of the first block's last sequence unblocked the log")
	}
	acked = l.blocks[0].last
	if l.full(size, acked) {
		t.Fatal("acknowledging the first block did not unblock the log")
	}
	l.appendBatch(seq+1, frame, size-4)
	seq += uint64(len(frame))
	check()
	// Cycle several windows' worth: ack half, refill, never over budget.
	for round := 0; round < 20; round++ {
		acked = l.blocks[len(l.blocks)/2].last
		for !l.full(size, acked) {
			l.appendBatch(seq+1, frame, size-4)
			seq += uint64(len(frame))
			check()
		}
	}
	l.release(seq)
	check()
	if l.retained != 0 || len(l.free) != budget/logBlockBytes {
		t.Fatalf("drained: retained %d, %d free blocks, want 0 and %d", l.retained, len(l.free), budget/logBlockBytes)
	}
}

// TestBlockLogManySmallFrames is the old frame-counted ring's cliff, checked
// structurally: more than 2^15 un-acked single-tuple frames — what the ring
// held between two commits when acks were checkpoint-gated — sit inside the
// gated byte budget without the log ever reporting full.
func TestBlockLogManySmallFrames(t *testing.T) {
	l := newBlockLog(gatedRetransmitBytes)
	one := []*spl.Tuple{{Seq: 1, Key: 2, Payload: make([]byte, 16)}}
	body := batchBodyBytes(one)
	size := 4 + body
	const frames = 1<<15 + 1000
	for seq := uint64(1); seq <= frames; seq++ {
		if l.full(size, 0) {
			t.Fatalf("log full at frame %d with %d of %d bytes retained", seq, l.retained, l.budget)
		}
		l.appendBatch(seq, one, body)
	}
	if want := (frames*size + logBlockBytes - 1) / logBlockBytes * logBlockBytes; l.retained > want+logBlockBytes {
		t.Fatalf("%d frames of %d bytes retain %d bytes, want about %d", frames, size, l.retained, want)
	}
	if fr, tuples, err := l.resumeFrom(0); err != nil || fr != frames || tuples != frames {
		t.Fatalf("resume: %d frames %d tuples err %v", fr, tuples, err)
	}
}

// TestBlockLogSteadyStateAllocs: once the free list is warm, staging a frame,
// flushing it and releasing it on the ack allocates nothing.
func TestBlockLogSteadyStateAllocs(t *testing.T) {
	l := newBlockLog(4 * logBlockBytes)
	frame := logTuples(0, 32, 600) // ~20 KiB: three to a block
	body := batchBodyBytes(frame)
	seq := uint64(0)
	step := func() {
		if l.full(4+body, seq) {
			t.Fatal("log full with everything acknowledged")
		}
		l.appendBatch(seq+1, frame, body)
		seq += uint64(len(frame))
		if _, err := l.flush(io.Discard, l.appended); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		step() // warm the block and free lists
	}
	if avg := testing.AllocsPerRun(500, step); avg != 0 {
		t.Fatalf("steady-state stage+flush+ack allocates %.2f objects per frame, want 0", avg)
	}
}

// TestBlockLogWithheldFrame: a frame the writer withholds — flushing up to
// its start, as the FrameCorrupt hook does before poisoning the wire, then
// stepping over it — stays in the log and goes out with the next epoch's
// resume.
func TestBlockLogWithheldFrame(t *testing.T) {
	l := newBlockLog(1 << 20)
	// ~40 KiB frames, so the flushed range spans blocks.
	stageBatchFrame(t, l, 1, logTuples(0, 40, 1000), 0)
	stageBatchFrame(t, l, 41, logTuples(40, 40, 1000), 0)
	mark := l.appended
	stageBatchFrame(t, l, 81, logTuples(80, 40, 1000), 0)

	var wire bytes.Buffer
	if _, err := l.flush(&wire, mark); err != nil {
		t.Fatal(err)
	}
	if got := decodeWire(t, wire.Bytes()); len(got) != 2 || got[1].first != 41 {
		t.Fatalf("flushed up to the mark: %+v, want the two frames before it", got)
	}
	if l.buffered() == 0 {
		t.Fatal("the withheld frame is not buffered")
	}
	l.skip()
	if l.buffered() != 0 {
		t.Fatalf("%d bytes buffered after stepping over the frame", l.buffered())
	}
	if fr, tuples, err := l.resumeFrom(80); err != nil || fr != 1 || tuples != 40 {
		t.Fatalf("resume: frames %d tuples %d err %v", fr, tuples, err)
	}
	if got := decodeWire(t, flushAll(t, l)); len(got) != 1 || got[0].first != 81 || got[0].seqs[0] != 80 {
		t.Fatalf("next epoch carried %+v, want the withheld frame", got)
	}
}
