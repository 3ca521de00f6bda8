package state

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
)

// File log framing. Every record is independently CRC-framed so a torn
// tail (crash mid-append) or bit flip is detected on load and the log is
// truncated back to the last intact record:
//
//	record  = magic(1) kind(1) crc32(4 LE) len(4 LE) body(len)
//	data    = epoch uvarint | op uvarint | flags(1: bit0 full) |
//	          watermark uvarint | snapshot bytes (rest of body)
//	commit  = epoch uvarint
//
// The CRC covers kind+body. Epochs become recoverable only once their
// commit record is present, so Load after a crash mid-epoch falls back to
// the previous committed epoch.
const (
	logMagic       = 0xA7
	recKindData    = 0
	recKindCommit  = 1
	recHeaderBytes = 10
	// maxRecordBytes bounds a single record so a corrupt length field
	// cannot drive a huge allocation on load.
	maxRecordBytes = 1 << 30
)

// FileLog is the durable Store: an append-only CRC-framed log per PE.
// Compact rewrites the log in place (write temp + rename) once a full
// snapshot makes older epochs redundant.
type FileLog struct {
	mu   sync.Mutex
	path string
	f    *os.File
	scr  []byte // scratch frame buffer reused across appends

	corrupt atomic.Uint64 // CRC-failed records detected (and skipped) by scans
}

// OpenFileLog opens (creating if needed) the log at path. Any torn tail
// from a previous crash is truncated away so new appends stay readable.
func OpenFileLog(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &FileLog{path: path, f: f}
	good, _, err := l.scan()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Path returns the log's file path.
func (l *FileLog) Path() string { return l.path }

// scan reads the whole file and returns the byte offset of the end of the
// last framed record plus every intact record (data and commit) in order.
// A record whose frame is parseable but whose CRC fails (bit flip, injected
// corruption) is counted and skipped — the records after it are still
// recovered. Only a malformed tail (torn append: short frame, bad magic)
// stops the scan; bytes past that point are dropped by truncation. That is
// the recovery contract, not an error.
func (l *FileLog) scan() (int64, []logRec, error) {
	raw, err := os.ReadFile(l.path)
	if err != nil {
		return 0, nil, err
	}
	var recs []logRec
	off := 0
	for {
		rec, n, st := parseRecord(raw[off:])
		if st == parseStop {
			break
		}
		if st == parseSkip {
			l.corrupt.Add(1)
		} else {
			recs = append(recs, rec)
		}
		off += n
	}
	return int64(off), recs, nil
}

// CorruptionsDetected returns how many CRC-failed records scans have
// skipped over the log's lifetime in this process.
func (l *FileLog) CorruptionsDetected() uint64 { return l.corrupt.Load() }

type logRec struct {
	kind      byte
	epoch     uint64
	op        uint64
	full      bool
	watermark uint64
	data      []byte
}

// parseStatus classifies one frame-parse attempt.
type parseStatus int

const (
	parseOK   parseStatus = iota // intact record
	parseSkip                    // frame parseable but content corrupt: skip it
	parseStop                    // malformed/short: torn tail, stop scanning
)

// parseRecord decodes one frame from b, returning the record, the byte
// count to advance, and a status. A frame whose header is intact but whose
// CRC or body fails validation returns parseSkip with the frame's size, so
// the scan can step over an isolated corruption and keep the records after
// it.
func parseRecord(b []byte) (logRec, int, parseStatus) {
	if len(b) < recHeaderBytes {
		return logRec{}, 0, parseStop
	}
	if b[0] != logMagic {
		return logRec{}, 0, parseStop
	}
	kind := b[1]
	if kind != recKindData && kind != recKindCommit {
		return logRec{}, 0, parseStop
	}
	crc := binary.LittleEndian.Uint32(b[2:6])
	n := binary.LittleEndian.Uint32(b[6:10])
	if uint64(n) > maxRecordBytes || uint64(len(b)-recHeaderBytes) < uint64(n) {
		return logRec{}, 0, parseStop
	}
	size := recHeaderBytes + int(n)
	body := b[recHeaderBytes:size]
	h := crc32.NewIEEE()
	h.Write([]byte{kind})
	h.Write(body)
	if h.Sum32() != crc {
		return logRec{}, size, parseSkip
	}
	rec := logRec{kind: kind}
	d := NewDecoder(body)
	rec.epoch = d.Uvarint()
	if kind == recKindData {
		rec.op = d.Uvarint()
		flags := d.Byte()
		rec.full = flags&1 != 0
		rec.watermark = d.Uvarint()
		if d.Err() != nil {
			return logRec{}, size, parseSkip
		}
		rec.data = append([]byte(nil), body[len(body)-d.Remaining():]...)
	} else if d.Err() != nil {
		return logRec{}, size, parseSkip
	}
	return rec, size, parseOK
}

// frame encodes one record straight into the scratch buffer l.scr —
// header, then body, with no intermediate copy — and returns it: rec's data
// record for recKindData, the commit record of rec.Epoch for recKindCommit.
// The buffer is valid until the next frame.
func (l *FileLog) frame(kind byte, rec Record) []byte {
	buf := append(l.scr[:0], logMagic, kind, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = binary.AppendUvarint(buf, rec.Epoch)
	if kind == recKindData {
		buf = binary.AppendUvarint(buf, uint64(rec.Op))
		flags := byte(0)
		if rec.Full {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, rec.Watermark)
		buf = append(buf, rec.Data...)
	}
	body := buf[recHeaderBytes:]
	crc := crc32.Update(0, crc32.IEEETable, buf[1:2])
	binary.LittleEndian.PutUint32(buf[2:6], crc32.Update(crc, crc32.IEEETable, body))
	binary.LittleEndian.PutUint32(buf[6:10], uint32(len(body)))
	l.scr = buf
	return buf
}

// Append stages one data record.
func (l *FileLog) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.f.Write(l.frame(recKindData, rec))
	return err
}

// AppendTorn writes a deliberately half-written record (fault injection:
// CkptCrash). The torn bytes are exactly what a crash mid-append leaves
// behind; OpenFileLog and Load must truncate them away.
func (l *FileLog) AppendTorn(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	frame := l.frame(recKindData, rec)
	cut := len(frame)/2 + 1
	if _, err := l.f.Write(frame[:cut]); err != nil {
		return err
	}
	// Re-truncate immediately so subsequent appends in this process stay
	// readable — a real crash would never append again; the injector's
	// job is only to exercise the load-side truncation path, which the
	// fuzz target and open-time scan cover against the raw torn bytes.
	pos, err := l.f.Seek(0, 1)
	if err != nil {
		return err
	}
	if err := l.f.Truncate(pos - int64(cut)); err != nil {
		return err
	}
	_, err = l.f.Seek(pos-int64(cut), 0)
	return err
}

// AppendCorrupt writes a fully framed record and then flips one payload
// byte in place (fault injection: CkptCorrupt), leaving a frame whose CRC
// check must fail. Scans detect it, count it, and skip over it without
// losing the records around it.
func (l *FileLog) AppendCorrupt(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	frame := l.frame(recKindData, rec)
	pos, err := l.f.Seek(0, 1)
	if err != nil {
		return err
	}
	if _, err := l.f.Write(frame); err != nil {
		return err
	}
	// Flip the last body byte: the frame header stays parseable, the CRC
	// no longer matches.
	off := pos + int64(len(frame)) - 1
	if _, err := l.f.WriteAt([]byte{frame[len(frame)-1] ^ 0xFF}, off); err != nil {
		return err
	}
	return nil
}

// Commit appends epoch's commit record, making the epoch's staged data
// records recoverable by Load.
func (l *FileLog) Commit(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.f.Write(l.frame(recKindCommit, Record{Epoch: epoch}))
	return err
}

// Load returns records of committed epochs in append order.
func (l *FileLog) Load() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, recs, err := l.scan()
	if err != nil {
		return nil, err
	}
	committed := make(map[uint64]bool)
	for _, r := range recs {
		if r.kind == recKindCommit {
			committed[r.epoch] = true
		}
	}
	var out []Record
	for _, r := range recs {
		if r.kind == recKindData && committed[r.epoch] {
			out = append(out, Record{
				Epoch: r.epoch, Op: int32(r.op), Full: r.full,
				Watermark: r.watermark, Data: r.data,
			})
		}
	}
	return out, nil
}

// Compact rewrites the log keeping only committed records with
// Epoch >= keepEpoch, via temp file + rename.
func (l *FileLog) Compact(keepEpoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, recs, err := l.scan()
	if err != nil {
		return err
	}
	committed := make(map[uint64]bool)
	for _, r := range recs {
		if r.kind == recKindCommit {
			committed[r.epoch] = true
		}
	}
	tmp := l.path + ".compact"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	written := make(map[uint64]bool)
	for _, r := range recs {
		if r.epoch < keepEpoch || !committed[r.epoch] {
			continue
		}
		if r.kind == recKindData {
			frame := l.frame(recKindData, Record{
				Epoch: r.epoch, Op: int32(r.op), Full: r.full,
				Watermark: r.watermark, Data: r.data,
			})
			if _, err := nf.Write(frame); err != nil {
				nf.Close()
				os.Remove(tmp)
				return err
			}
			continue
		}
		if written[r.epoch] {
			continue
		}
		written[r.epoch] = true
		if _, err := nf.Write(l.frame(recKindCommit, Record{Epoch: r.epoch})); err != nil {
			nf.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := os.Rename(tmp, l.path); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	l.f.Close()
	l.f = nf
	return nil
}

// Close closes the underlying file.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

var _ Store = (*FileLog)(nil)
var _ Store = (*MemStore)(nil)
var _ TornAppender = (*FileLog)(nil)
var _ Corrupter = (*FileLog)(nil)

// String implements fmt.Stringer for debugging.
func (l *FileLog) String() string { return fmt.Sprintf("filelog(%s)", l.path) }
