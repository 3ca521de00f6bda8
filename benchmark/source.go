package main

import (
	"hash/crc32"
	"math/rand"
	"sync/atomic"
	"syscall"
	"time"

	"streamelastic/internal/spl"
)

// epoch anchors every timestamp the benchmark takes: tuple due times, hop
// stamps and spans are nanoseconds since it, read from the monotonic clock.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// inputs is the seeded, pre-generated ring of records a source replays: a
// key, a payload and the payload's checksum per record. The source emits
// record seq&mask for sequence number seq, so the sink (and the
// sliding-window reference) can recompute what any tuple must carry from its
// Seq alone.
type inputs struct {
	keys    []uint32
	sums    []uint32
	block   []byte
	payload int
	mask    uint64
}

// genInputs builds the ring from the seed. Nothing else in a run depends on
// the seed.
func genInputs(seed int64, w *workload) *inputs {
	r := rand.New(rand.NewSource(seed))
	n := 1 << w.ringBits
	in := &inputs{
		keys:    make([]uint32, n),
		sums:    make([]uint32, n),
		block:   make([]byte, n*w.payload),
		payload: w.payload,
		mask:    uint64(n - 1),
	}
	r.Read(in.block)
	var zipf *rand.Zipf
	if w.zipf > 1 {
		zipf = rand.NewZipf(r, w.zipf, 1, uint64(w.keys-1))
	}
	for i := range in.keys {
		if zipf != nil {
			in.keys[i] = uint32(zipf.Uint64())
		} else {
			in.keys[i] = uint32(r.Intn(w.keys))
		}
		in.sums[i] = crcOf(in.payloadAt(uint64(i)))
	}
	return in
}

func crcOf(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

func (in *inputs) payloadAt(i uint64) []byte {
	off := int(i) * in.payload
	return in.block[off : off+in.payload : off+in.payload]
}

// pacedHold bounds how long the paced generator holds a due tuple back while
// a batch fills; what it adds to latency is reported as gen.late_p99_ms.
const pacedHold = 200_000 // ns

// pause blocks the calling thread for d nanoseconds in the kernel. Not
// time.Sleep: in a Go process with nothing else to run, a sleeping goroutine
// is woken through the network poller, whose timeout counts milliseconds, so
// one short sleep in fifty lasts a full millisecond and the generator, not
// the system, sets the latency tail.
func pause(d int64) {
	if d > 0 {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // an early return only makes the next poll come sooner
	}
}

// Source modes. The driver goroutine switches them; the source loop reads
// the mode once per Next call.
const (
	modeIdle int32 = iota
	modeCount
	modeSat
	modePaced
	modeStop
)

// source replays the input ring. It is the benchmark's load generator and
// runs inside the system under test as an spl.Source, so its CPU is part of
// cpu_ns_per_tuple; the traced run reports its share as gen.ns_per_tuple.
//
// Emitted tuples share the ring's payload bytes: every queue crossing and
// every export clones, which is where the runtime pays its copy cost, and
// no operator of the benchmark graphs writes to a payload.
type source struct {
	in    *inputs
	batch int
	tr    *tracer // nil in untraced runs

	mode    atomic.Int32
	limit   atomic.Uint64 // modeCount stops at this sequence number
	emitted atomic.Uint64
	idle    atomic.Bool // set by an idle Next call, cleared by setMode

	// Open-loop schedule, written before mode is set to modePaced: tuple
	// pacedBase+i is due at pacedStart + i*interval.
	pacedStart int64
	pacedBase  uint64
	interval   float64

	// late holds how late each paced Next call ran (now minus the due time
	// of its first tuple), read by the driver after the phase quiesces.
	late []int64
}

func newSource(in *inputs, batch int, tr *tracer) *source {
	return &source{in: in, batch: batch, tr: tr, late: make([]int64, 0, 1<<18)}
}

func (s *source) Name() string                         { return "bench-src" }
func (s *source) Process(int, *spl.Tuple, spl.Emitter) {}

func (s *source) setMode(m int32) {
	s.idle.Store(false)
	s.mode.Store(m)
}

// emitCount lets the source emit exactly n more tuples, unthrottled.
func (s *source) emitCount(n uint64) {
	s.limit.Store(s.emitted.Load() + n)
	s.setMode(modeCount)
}

// startPaced begins the open loop at rate tuples per second.
func (s *source) startPaced(rate float64) {
	s.pacedStart = nowNS()
	s.pacedBase = s.emitted.Load()
	s.interval = 1e9 / rate
	s.late = s.late[:0]
	s.setMode(modePaced)
}

// Next emits up to one batch. It never blocks for more than a fraction of a
// millisecond, so the engine's pause barrier stays responsive in every mode.
func (s *source) Next(out spl.Emitter) bool {
	seq := s.emitted.Load()
	n := uint64(s.batch)
	var start int64
	switch s.mode.Load() {
	case modeStop:
		return false
	case modeIdle:
		return s.rest()
	case modeCount:
		left := s.limit.Load() - seq
		if left == 0 {
			return s.rest()
		}
		if left < n {
			n = left
		}
	case modePaced:
		// Like a batching ingest, the open loop hands over what is due once
		// a full batch is, or once the oldest due tuple has waited pacedHold.
		now := nowNS()
		done := seq - s.pacedBase
		due := uint64(float64(now-s.pacedStart)/s.interval) + 1
		start = s.pacedStart + int64(float64(done)*s.interval)
		if due < done+n && now-start < pacedHold {
			wait := start + pacedHold - now
			if full := s.pacedStart + int64(float64(done+n-1)*s.interval) - now; full < wait {
				wait = full
			}
			pause(wait)
			return true
		}
		if due-done < n {
			n = due - done
		}
		if len(s.late) < cap(s.late) {
			s.late = append(s.late, now-start)
		}
	}
	if s.tr == nil {
		s.emit(out, seq, int(n), start)
		return true
	}
	t0 := nowNS()
	e := s.tr.emitter(out, t0)
	s.emit(e, seq, int(n), start)
	s.tr.done(0, t0, nowNS(), e.child, seq, int(n))
	s.tr.pool.Put(e)
	return true
}

// rest tells the driver the source has nothing in hand and naps.
func (s *source) rest() bool {
	s.idle.Store(true)
	time.Sleep(200 * time.Microsecond)
	return true
}

func (s *source) emit(out spl.Emitter, seq uint64, n int, start int64) {
	paced := start != 0
	base := seq - s.pacedBase
	for i := 0; i < n; i++ {
		t := spl.AcquireTuple()
		q := seq + uint64(i)
		r := q & s.in.mask
		t.Seq, t.Key, t.Num1 = q, uint64(s.in.keys[r]), float64(q&1023)
		t.Payload = s.in.payloadAt(r)
		if paced {
			t.Time = s.pacedStart + int64(float64(base+uint64(i))*s.interval)
		}
		out.Emit(0, t)
	}
	s.emitted.Store(seq + uint64(n))
}
