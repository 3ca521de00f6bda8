package state

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"
)

// twoCopyFrame is the file log's earlier framing: the body encoded into a
// fresh Encoder first, then copied behind a header with the CRC taken by a
// hash.Hash32. FileLog.frame must write exactly these bytes.
func twoCopyFrame(kind byte, body []byte) []byte {
	buf := make([]byte, recHeaderBytes+len(body))
	buf[0] = logMagic
	buf[1] = kind
	h := crc32.NewIEEE()
	h.Write([]byte{kind})
	h.Write(body)
	binary.LittleEndian.PutUint32(buf[2:6], h.Sum32())
	binary.LittleEndian.PutUint32(buf[6:10], uint32(len(body)))
	copy(buf[recHeaderBytes:], body)
	return buf
}

// twoCopyDataBody is the earlier data-record body encoding.
func twoCopyDataBody(rec Record) []byte {
	var e Encoder
	e.Uvarint(rec.Epoch)
	e.Uvarint(uint64(rec.Op))
	flags := byte(0)
	if rec.Full {
		flags |= 1
	}
	e.Byte(flags)
	e.Uvarint(rec.Watermark)
	e.buf = append(e.buf, rec.Data...)
	return e.buf
}

// TestFileLogFramesMatchTwoCopyEncoding pins the on-disk format across the
// in-place encoder: Append and Commit write byte for byte what the
// two-copy path wrote, including when a small record follows a large one
// in the reused scratch buffer.
func TestFileLogFramesMatchTwoCopyEncoding(t *testing.T) {
	l, path := openTempLog(t)
	defer l.Close()
	big := make([]byte, 200<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	recs := []Record{
		{Epoch: 1, Op: 3, Full: true, Watermark: 0, Data: []byte("full-snap")},
		{Epoch: 1, Op: 300, Full: true, Watermark: 1 << 40, Data: big},
		{Epoch: 2, Op: 3, Full: false, Watermark: 1<<40 + 5, Data: []byte("d")},
		{Epoch: 2, Op: 0, Full: false, Watermark: 1<<40 + 5, Data: nil},
		{Epoch: 1 << 33, Op: 1 << 20, Full: true, Watermark: ^uint64(0), Data: big[:70000]},
	}
	var want bytes.Buffer
	for i, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		want.Write(twoCopyFrame(recKindData, twoCopyDataBody(rec)))
		if i+1 == len(recs) || recs[i+1].Epoch != rec.Epoch {
			if err := l.Commit(rec.Epoch); err != nil {
				t.Fatal(err)
			}
			var e Encoder
			e.Uvarint(rec.Epoch)
			want.Write(twoCopyFrame(recKindCommit, e.Bytes()))
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		i := 0
		for i < len(got) && i < len(want.Bytes()) && got[i] == want.Bytes()[i] {
			i++
		}
		t.Fatalf("log is %d bytes, two-copy framing %d; first difference at byte %d", len(got), want.Len(), i)
	}
	loaded, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(recs) {
		t.Fatalf("loaded %d records, want %d", len(loaded), len(recs))
	}
	for i, r := range loaded {
		w := recs[i]
		if r.Epoch != w.Epoch || r.Op != w.Op || r.Full != w.Full || r.Watermark != w.Watermark || !bytes.Equal(r.Data, w.Data) {
			t.Fatalf("record %d loaded as {%d %d %v %d, %d bytes}, want {%d %d %v %d, %d bytes}",
				i, r.Epoch, r.Op, r.Full, r.Watermark, len(r.Data), w.Epoch, w.Op, w.Full, w.Watermark, len(w.Data))
		}
	}
}
