package pe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamelastic/internal/fault"
	"streamelastic/internal/obs"
	"streamelastic/internal/queue"
	"streamelastic/internal/spl"
)

// importPollInterval bounds how long an idle import source blocks before
// yielding back to its operator thread, so engine reconfiguration (which
// waits for all loops to park) is never stalled by a quiet stream.
const importPollInterval = 20 * time.Millisecond

// importRingFrames sizes the frame ring between the stream reader goroutine
// and the import source (a power of two, as the MPMC requires): validated
// frames whose tuples the operator thread has not built yet. It is a
// deliberate network receive buffer, decoupling TCP reads from operator
// execution.
const importRingFrames = 8

// localRingCapacity sizes an in-process edge's tuple ring (a power of two).
const localRingCapacity = 1024

// localPopMax bounds how many tuples one Next takes off an in-process edge's
// ring, so a single operator-thread wake drains a burst without starving the
// engine's pause barrier.
const localPopMax = 64

// writerBatchTuples caps the records of one batch frame: the open frame is
// sealed before it would take one more.
const writerBatchTuples = 128

// maxUnwritten bounds how far producers may run ahead of the socket: a
// producer that must seal while this many sealed bytes wait unwritten takes
// the full-edge path until the writer catches up. The budget bounds the
// replay window the log keeps for the receiver; this bounds the standing
// queue in front of the socket, which under a checkpoint-gated budget would
// otherwise grow to the whole budget whenever the receiver is the
// bottleneck.
const maxUnwritten = 1 << 20

// closeFlushTimeout bounds the final seal-and-flush at stream close, so a
// stalled peer cannot wedge job shutdown.
const closeFlushTimeout = 2 * time.Second

// handshakeTimeout bounds the resume-sequence read after a (re)connect.
const handshakeTimeout = 5 * time.Second

// ackEvery and ackEveryBytes are the receive side's inline acknowledgement
// cadence: one ack per this many delivered frames or wire bytes, whichever
// comes first, with a ticker covering the idle tail. The byte bound — a
// quarter of the sender's default window — keeps bulk edges flowing: 256
// frames of 64 KiB are sixteen such windows, which would leave the writer
// waiting for the tick.
const (
	ackEvery      = 256
	ackEveryBytes = 256 << 10
)

// ackTickInterval paces the receive side's idle-tail acknowledgements.
const ackTickInterval = 50 * time.Millisecond

// ackWriteTimeout bounds one acknowledgement write. A legacy sender that
// never drains its side of the connection (the per-tuple-flush benchmark
// path) eventually fills the socket buffer; on the first timed-out ack the
// receiver stops acknowledging for that connection instead of wedging.
const ackWriteTimeout = time.Second

// exportOp is the terminal operator standing in for a cross-PE stream's
// sending side. Process and ProcessBatch encode each tuple on the calling
// engine thread, under the append lock, as the next record of the open batch
// frame — in place, in the open block of a byte-budgeted block log that
// holds the frame until the receiver acknowledges it — and give it the next
// wire sequence.
// A dedicated writer goroutine does only byte work: it seals the open frame
// when it comes round, writes the log's unsent bytes to the socket, applies
// fault effects, and handles acknowledgements and resume. No pooled tuple
// crosses from an engine thread to the writer.
//
// The writer survives peer death: it redials with capped exponential
// backoff plus jitter, reads the receiver's resume sequence on every
// (re)connect, and retransmits every unacknowledged frame past it — the
// stream is at-least-once on the wire, and the import side's sequence
// dedup makes it exactly-once downstream. The export is a sink in its PE's
// graph, so the PE's throughput meter counts exported tuples.
type exportOp struct {
	name string
	cfg  TransportConfig
	addr string // redial address; "" = single-connection mode (tests)

	// inj/site are the chaos hook: nil inj means no injection.
	inj  *fault.Injector
	site int

	// rec/recPE feed the flight recorder; a nil rec no-ops every Record.
	rec   *obs.FlightRecorder
	recPE int32

	mu    sync.Mutex    // guards connect/close transitions and conn epochs
	conn  net.Conn      // current epoch's connection, for close()
	thaw  chan struct{} // non-nil exactly while the edge is frozen
	wake  chan struct{}
	space chan struct{}
	quit  chan struct{}
	done  chan struct{}

	// amu is the append lock. Producers encode under it; the writer takes it
	// to seal, to snapshot the bytes it writes and to move the write cursor —
	// never across a socket write. It guards log (nil before connect and once
	// the writer has settled the books), nextSeq, frame, fx and frozenAt.
	amu      sync.Mutex
	log      *blockLog
	nextSeq  uint64 // wire sequence of the last tuple appended
	frame    openFrame
	fx       []frameFx // sealed frames whose fault effects are not applied yet
	frozenAt uint64    // log position the last freeze sealed up to

	// ring is an in-process edge's handoff (nil on a wire edge): the peer
	// import pops pooled clones straight off it.
	ring *queue.MPMC[*spl.Tuple]

	wired     atomic.Bool
	parked    atomic.Bool
	closed    atomic.Bool
	frozen    atomic.Bool  // migration freeze: writer parks, producers wait
	failed    atomic.Bool  // permanent: connection lost with no redial address
	connected atomic.Bool  // current connection attached and healthy
	local     atomic.Bool  // in-process edge: peer import pops the ring directly
	progress  atomic.Int64 // unix nanos of the writer's last useful work

	acked  atomic.Uint64 // receiver's acknowledged wire-sequence watermark
	ackSig chan struct{}

	seqHigh    atomic.Uint64 // highest wire sequence appended (readable snapshot of nextSeq)
	retransT   atomic.Uint64 // tuples rewritten on resume (replay accounting)
	sent       atomic.Uint64 // tuples appended (assigned a wire sequence)
	wireFrames atomic.Uint64 // batch frames sealed
	dropped    atomic.Uint64 // tuples the stream never took
	retrans    atomic.Uint64 // frame writes beyond the first (resume traffic)
	reconnects atomic.Uint64 // successful re-attaches after a lost connection
	corrupts   atomic.Uint64 // injected frame corruptions
	unacked    atomic.Uint64 // appended tuples never acknowledged, set at close
	window     atomic.Int64  // block memory the log retains for replay
	bytes      atomic.Uint64
	flushes    atomic.Uint64
	batches    batchHist
}

// openFrame is the batch frame producers are appending to: its records sit
// in blk past len(blk.buf), leaving room for the length prefix and header in
// front, and fx holds the fault effects its tuples fired. Sealing writes the
// header and extends blk.buf over the frame.
type openFrame struct {
	first uint64 // wire sequence of the first record
	count int
	body  int // batch body bytes so far: header plus records
	blk   *logBlock
	fx    frameFx
}

// frameFx is what the chaos hooks fired on one sealed frame's tuples; the
// writer applies it when its flush reaches the frame's start, at.
type frameFx struct {
	at      uint64
	kill    bool
	stall   time.Duration
	corrupt bool
}

var (
	_ spl.BatchProcessor = (*exportOp)(nil)
	_ spl.Recyclable     = (*exportOp)(nil)
)

func newExportOp(name string) *exportOp {
	return &exportOp{name: name, cfg: TransportConfig{}.withDefaults()}
}

// Name returns the operator name.
func (x *exportOp) Name() string { return x.name }

// RecyclesTuples marks the export as a recyclable sink: Process never
// retains the tuple it is handed — a wire edge encodes it, a local edge
// hands on a pooled clone — so the engine returns the original to the pool.
func (x *exportOp) RecyclesTuples() {}

// connect attaches the stream's first connection and starts the writer
// goroutine; must happen before the engine starts. A non-empty addr enables
// reconnection: on a lost connection the writer redials it and resumes from
// the block log. With addr empty the first connection is the only
// one, and losing it fails the stream permanently (tuples drop-and-count).
func (x *exportOp) connect(conn net.Conn, addr string) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.conn = conn
	x.addr = addr
	x.log = newBlockLog(x.cfg.RetransmitBytes)
	x.initSignals()
	go x.writerLoop(conn)
	x.wired.Store(true)
	return nil
}

// initSignals makes the endpoint's wake, space, quit, done and ack channels.
func (x *exportOp) initSignals() {
	x.wake = make(chan struct{}, 1)
	x.space = make(chan struct{}, 1)
	x.quit = make(chan struct{})
	x.done = make(chan struct{})
	x.ackSig = make(chan struct{}, 1)
	x.progress.Store(time.Now().UnixNano())
}

// connectLocal wires the export as the sending half of an in-process edge:
// Process pushes pooled clones into a tuple ring — with the wire path's
// backpressure, drop accounting and wake protocol — but no writer goroutine,
// encoder, or connection exists. The co-located peer import pops the ring
// directly via localPop, so a tuple crosses the edge as one pooled clone
// handoff with no encode/frame/TCP/decode in between. The edge is in-process
// and lossless by construction, so the reliability machinery (retransmit
// window, acks, resume) is exempt and its counters stay zero.
func (x *exportOp) connectLocal() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	ring, err := queue.NewMPMC[*spl.Tuple](localRingCapacity)
	if err != nil {
		return fmt.Errorf("pe: export %s local ring: %w", x.name, err)
	}
	x.ring = ring
	x.initSignals()
	// No writer goroutine: done starts closed so close() never waits.
	close(x.done)
	x.local.Store(true)
	x.connected.Store(true)
	x.wired.Store(true)
	return nil
}

// localPop transfers up to len(batch) staged tuples to the co-located peer
// import, which owns them outright afterwards. Counters mirror the wire
// path's bookkeeping at the same point in a tuple's life: sent when it
// leaves the ring, a batch-size sample per pop, progress for the watchdog's
// stall probe — but bytes and flushes stay zero, because no wire was touched
// and lying about it would poison the obs series.
func (x *exportOp) localPop(batch []*spl.Tuple) int {
	n := x.ring.TryPopN(batch)
	if n == 0 {
		return 0
	}
	x.batches.record(n)
	x.sent.Add(uint64(n))
	x.progress.Store(time.Now().UnixNano())
	x.signalSpace()
	return n
}

// localDrained reports whether a local export is closed with nothing left to
// pop — the peer import's end-of-stream condition.
func (x *exportOp) localDrained() bool {
	return x.closed.Load() && x.ring.Len() == 0
}

// accepting reports whether the stream can take tuples at all: wired, not
// closed, not permanently failed.
func (x *exportOp) accepting() bool {
	return x.wired.Load() && !x.closed.Load() && !x.failed.Load()
}

// Process sends one tuple; it is ProcessBatch of one.
func (x *exportOp) Process(_ int, t *spl.Tuple, _ spl.Emitter) {
	one := [1]*spl.Tuple{t}
	x.ProcessBatch(0, one[:], nil)
}

// ProcessBatch encodes a batch into the open frame under one append lock
// and wakes a parked writer once at the end. Tuples arriving before the
// stream is wired, after close, or after a permanent failure are counted as
// dropped. A tuple that finds the block log's budget spent takes stageSlow:
// it drops at once under DropOnFull, else blocks the producing scheduler
// thread up to BlockTimeout, and the rest of the batch follows behind it, so
// order, counters and backpressure are those of per-tuple Process calls.
func (x *exportOp) ProcessBatch(_ int, ts []*spl.Tuple, _ spl.Emitter) {
	if !x.accepting() {
		x.dropped.Add(uint64(len(ts)))
		return
	}
	if x.ring != nil {
		x.stageLocal(ts)
		return
	}
	x.amu.Lock()
	for _, t := range ts {
		if x.appendLocked(t) {
			continue
		}
		x.publishLocked()
		x.amu.Unlock()
		if !x.stageSlow(func() bool { return x.appendOne(t) }) {
			x.dropped.Add(1)
		}
		x.amu.Lock()
	}
	x.publishLocked()
	x.amu.Unlock()
	x.wakeWriter()
}

// appendOne is appendLocked for one tuple under its own lock hold.
func (x *exportOp) appendOne(t *spl.Tuple) bool {
	x.amu.Lock()
	defer x.amu.Unlock()
	ok := x.appendLocked(t)
	x.publishLocked()
	return ok
}

// appendLocked encodes t as the open frame's next record, straight into the
// log's open block, and gives it the next wire sequence. The frame is sealed
// first when it holds writerBatchTuples records or t's record would not fit
// in the block's room. A frame opens charged for its length prefix, header
// and first record; a tuple too large to share a block is sealed alone into
// a dedicated one, and one too large to frame at all is dropped and
// counted. It reports false — t not taken — when a new frame needs block
// memory the budget has none of, or a seal would put more than maxUnwritten
// bytes in front of the socket. The chaos hooks fire per appended tuple, in
// append order, so a fault plan's Nth event lands on the same tuple however
// the stream is framed. Callers hold amu.
func (x *exportOp) appendLocked(t *spl.Tuple) bool {
	if x.log == nil {
		x.dropped.Add(1) // the writer has settled the books
		return true
	}
	f, l := &x.frame, x.log
	rec := batchRecordBytes(t)
	if f.count == writerBatchTuples || f.count > 0 && rec > l.room {
		if l.buffered() >= maxUnwritten {
			return false
		}
		x.sealLocked()
	}
	if f.count == 0 {
		body := batchHeaderBytes + rec
		if body > maxFrameBytes {
			x.dropped.Add(1)
			return true
		}
		oversize := 4+body > logBlockBytes
		if oversize && l.buffered() >= maxUnwritten || l.full(4+body, x.acked.Load()) {
			return false
		}
		if oversize {
			fx := frameFx{at: l.appended}
			if x.inj != nil {
				x.fire(&fx)
			}
			x.nextSeq++
			one := [1]*spl.Tuple{t}
			l.appendBatch(x.nextSeq, one[:], body)
			x.sealed(1, fx)
			return true
		}
		f.first, f.body, f.blk = x.nextSeq+1, batchHeaderBytes, l.open(4+body)
		l.hold = true
	} else {
		l.room -= rec
	}
	end := len(f.blk.buf) + 4 + f.body
	appendRecord(f.blk.buf[end:end], t)
	f.body += rec
	f.count++
	x.nextSeq++
	if x.inj != nil {
		x.fire(&f.fx)
	}
	return true
}

// sealLocked turns the open frame into one sealed v2 batch frame: it writes
// the length prefix and header in front of the records and extends the
// block over them. Callers hold amu.
func (x *exportOp) sealLocked() {
	f := &x.frame
	if f.count == 0 {
		return
	}
	b, start := f.blk, len(f.blk.buf)
	appendBatchHeader(b.buf[start:start], f.body, f.first, f.count)
	b.buf = b.buf[:start+4+f.body]
	f.fx.at = x.log.appended
	x.log.stamp(b, 4+f.body, f.first, f.first+uint64(f.count)-1)
	x.log.hold = false
	x.sealed(f.count, f.fx)
	*f = openFrame{}
}

// sealed books a frame of n tuples just sealed at fx.at: the frame and
// batch-size counters, the window gauge, and — when the hooks armed any —
// its fault effects for the writer. Callers hold amu.
func (x *exportOp) sealed(n int, fx frameFx) {
	x.wireFrames.Add(1)
	x.batches.record(n)
	x.window.Store(int64(x.log.retained))
	if x.inj != nil {
		x.fx = append(x.fx, fx)
	}
}

// fire ranks one appended tuple's chaos events — kill, stall, corrupt, in
// that order — into the effects of the frame holding it.
func (x *exportOp) fire(fx *frameFx) {
	if x.inj.Fire(fault.ConnKill, x.site) {
		fx.kill = true
	}
	fx.stall += x.inj.FireDelay(fault.WriterStall, x.site)
	if x.inj.Fire(fault.FrameCorrupt, x.site) {
		x.corrupts.Add(1)
		fx.corrupt = true
	}
}

// publishLocked makes the tuples appended since the last call visible to
// the sent counter and the seqHigh snapshot. Callers hold amu.
func (x *exportOp) publishLocked() {
	if d := x.nextSeq - x.seqHigh.Load(); d != 0 {
		x.sent.Add(d)
		x.seqHigh.Store(x.nextSeq)
	}
}

// stageLocal hands pooled clones of ts to the co-located import through the
// tuple ring, with the wire path's backpressure and drop accounting.
func (x *exportOp) stageLocal(ts []*spl.Tuple) {
	for _, t := range ts {
		c := t.Clone()
		if !x.ring.TryPush(c) && !x.stageSlow(func() bool { return x.ring.TryPush(c) }) {
			c.Release()
			x.dropped.Add(1)
		}
	}
	x.wakeWriter()
}

// stageSlow is the full-edge path: give up at once under DropOnFull, else
// retry try on every space signal up to BlockTimeout. A frozen edge parks
// the producer instead, with the timeout suspended until the thaw; close or
// a permanent failure gives up. It reports whether try took the tuple.
func (x *exportOp) stageSlow(try func() bool) bool {
	if x.cfg.DropOnFull {
		return false
	}
	// Park on the space signal rather than spinning: a yield loop on a
	// saturated box burns the producing core in scheduler churn and starves
	// the very goroutine that must free space.
	timer := time.NewTimer(x.cfg.BlockTimeout)
	defer timer.Stop()
	for !x.closed.Load() && !x.failed.Load() {
		if try() {
			x.signalSpace() // there may be room for the next parked producer too
			return true
		}
		x.wakeWriter()
		if th := x.frozenThaw(); th != nil {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			select {
			case <-th:
			case <-x.quit:
			}
			timer.Reset(x.cfg.BlockTimeout)
			continue
		}
		select {
		case <-x.space:
		case <-x.quit:
		case <-timer.C:
			return false
		}
	}
	x.signalSpace() // pass the end of the stream on to the next parked producer
	return false
}

// freeze parks the stream: the open frame is sealed, the writer writes the
// log up to that point and stops, and producers go on appending until the
// budget is spent, then wait for the thaw instead of timing out into the
// drop counter. Appended tuples stay in the log; nothing is lost.
// Idempotent.
func (x *exportOp) freeze() {
	x.mu.Lock()
	if x.thaw == nil {
		x.thaw = make(chan struct{})
		x.amu.Lock()
		if x.log != nil {
			x.sealLocked()
			x.frozenAt = x.log.appended
		}
		x.amu.Unlock()
		x.frozen.Store(true)
	}
	x.mu.Unlock()
	x.wakeWriter()
}

// unfreeze releases a frozen stream: the writer resumes writing and blocked
// producers retry. Idempotent.
func (x *exportOp) unfreeze() {
	x.mu.Lock()
	th := x.thaw
	x.thaw = nil
	x.frozen.Store(false)
	x.mu.Unlock()
	if th != nil {
		close(th)
	}
	x.signalSpace()
	x.wakeWriter()
}

// frozenThaw returns the channel to wait on while the edge is frozen, or nil
// when it is not. The atomic pre-check keeps the hot path lock-free; the
// mu-guarded re-read closes the race with a concurrent unfreeze (a nil thaw
// after the flag read means the freeze already lifted).
func (x *exportOp) frozenThaw() chan struct{} {
	if !x.frozen.Load() {
		return nil
	}
	x.mu.Lock()
	th := x.thaw
	x.mu.Unlock()
	return th
}

// seedSequence pre-loads the wire-sequence counter so this export continues
// a predecessor's sequence domain after a region migration. Must be called
// before connect. The acked watermark seeds too: sequences at or below the
// seed were acknowledged to the predecessor.
func (x *exportOp) seedSequence(n uint64) {
	x.nextSeq = n
	x.seqHigh.Store(n)
	storeMax(&x.acked, n)
}

// reroute points the stream at a new peer address and kills the current
// connection; the writer's redial loop picks up the new address and the
// resume handshake replays anything the new peer has not seen.
func (x *exportOp) reroute(addr string) {
	x.mu.Lock()
	x.addr = addr
	conn := x.conn
	x.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// currentAddr reads the redial address under mu (reroute writes it there).
func (x *exportOp) currentAddr() string {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.addr
}

// wakeWriter nudges a parked writer (or, on a local edge, a parked peer
// import). The writer re-checks for work after setting parked, so an append
// that misses the flag is still observed.
func (x *exportOp) wakeWriter() {
	if x.parked.Load() {
		select {
		case x.wake <- struct{}{}:
		default:
		}
	}
}

// signalSpace tells one producer blocked on a full edge to retry.
func (x *exportOp) signalSpace() {
	select {
	case x.space <- struct{}{}:
	default:
	}
}

// setConn records the current epoch's connection so close() can bound its
// final flush with a write deadline and close the right socket.
func (x *exportOp) setConn(conn net.Conn) {
	x.mu.Lock()
	x.conn = conn
	x.mu.Unlock()
}

// connSession is one connection epoch: its socket and the ack-reader
// goroutine draining the receiver's acknowledgement back-channel.
type connSession struct {
	conn    net.Conn
	ackDone chan struct{}
}

func (s *connSession) teardown() {
	_ = s.conn.Close()
	<-s.ackDone
}

// writerLoop runs connection epochs until close: attach (handshake +
// resume), write what producers append, and on a lost connection redial and
// resume. Without a redial address a lost connection fails the stream
// permanently and later tuples drop-and-count, preserving counter
// convergence for single-connection users.
func (x *exportOp) writerLoop(first net.Conn) {
	defer close(x.done)
	conn := first
	for {
		sess, err := x.attach(conn)
		if err == nil {
			x.connected.Store(true)
			x.runConn(sess)
			x.connected.Store(false)
			sess.teardown()
		} else if sess != nil {
			sess.teardown()
		} else {
			_ = conn.Close()
		}
		if x.closed.Load() {
			x.finish()
			return
		}
		if x.currentAddr() == "" {
			x.failed.Store(true)
			x.finish()
			x.signalSpace() // parked producers see the failure
			return
		}
		next := x.redial()
		if next == nil {
			x.finish()
			return
		}
		x.reconnects.Add(1)
		x.rec.Record(obs.EvReconnect, x.recPE, int64(x.site), 0, "")
		x.setConn(next)
		conn = next
	}
}

// attach performs the resume handshake on a fresh connection: read the
// receiver's delivered watermark (bounded by handshakeTimeout), start the
// ack reader, and retransmit every sealed frame past the watermark.
// Retransmit granularity is the frame: a batch frame only partially past the
// watermark is rewritten whole and the importer's sequence dedup drops the
// overlap.
func (x *exportOp) attach(conn net.Conn) (*connSession, error) {
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var hb [8]byte
	if _, err := io.ReadFull(conn, hb[:]); err != nil {
		return nil, fmt.Errorf("pe: export %s handshake: %w", x.name, err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	resume := binary.LittleEndian.Uint64(hb[:])
	x.amu.Lock()
	if resume > x.nextSeq {
		// A sane receiver cannot have seen tuples that were never appended.
		resume = x.nextSeq
	}
	frames, tuples, err := x.log.resumeFrom(resume)
	x.amu.Unlock()
	storeMax(&x.acked, resume)
	sess := &connSession{conn: conn, ackDone: make(chan struct{})}
	go x.ackReader(conn, sess.ackDone)
	x.retrans.Add(uint64(frames))
	x.retransT.Add(tuples)
	if err != nil {
		return sess, err
	}
	if tuples > 0 {
		// One event per resume burst (tuple count), not per frame.
		x.rec.Record(obs.EvRetransmit, x.recPE, int64(x.site), int64(tuples), "")
	}
	if err := x.flushSess(sess, x.flushLimit()); err != nil {
		return sess, err
	}
	x.progress.Store(time.Now().UnixNano())
	return sess, nil
}

// ackReader drains the receiver's acknowledgement back-channel, advancing
// the acked watermark, waking the writer and telling a producer parked on
// the budget to retry. It exits when the connection dies, which is also how
// the writer learns of a peer death while parked.
func (x *exportOp) ackReader(conn net.Conn, done chan struct{}) {
	defer close(done)
	var b [8]byte
	for {
		if _, err := io.ReadFull(conn, b[:]); err != nil {
			return
		}
		storeMax(&x.acked, binary.LittleEndian.Uint64(b[:]))
		select {
		case x.ackSig <- struct{}{}:
		default:
		}
		x.signalSpace()
	}
}

// storeMax raises a to v if v is larger; acknowledgement watermarks only
// move forward.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// runConn serves one connection until the epoch ends (connection error,
// ack-reader death, or close). Each round seals the open frame and writes
// everything sealed, then parks until a producer appends: frames carry what
// producers appended while the writer was busy, and an idle stream never
// holds a tuple back.
func (x *exportOp) runConn(sess *connSession) {
	for {
		if th := x.frozenThaw(); th != nil {
			// Migration freeze: write what was appended before the freeze so
			// the peer can acknowledge it, then park without writing anything
			// further, so the delivered watermark stops moving and quiescence
			// can be observed. Producers may go on appending until the budget
			// is spent; the resume handshake replays it after a reroute. The
			// freeze survives connection epochs: a reroute closes the
			// connection, ackDone fires, the next epoch parks here again.
			if x.flushSess(sess, x.flushLimit()) != nil {
				return
			}
			x.parked.Store(true)
			select {
			case <-th:
				x.parked.Store(false)
				continue
			case <-sess.ackDone:
				x.parked.Store(false)
				return
			case <-x.quit:
				x.parked.Store(false)
				x.finalDrain(sess)
				return
			}
		}
		if x.sealAndFlush(sess) != nil {
			return
		}
		x.progress.Store(time.Now().UnixNano())
		x.parked.Store(true)
		if !x.idle() {
			x.parked.Store(false)
			continue
		}
		select {
		case <-x.wake:
		case <-x.ackSig:
			// Idle and acknowledged: hand the blocks back now, so the window
			// gauge falls with the acks and not at the next flush.
			x.amu.Lock()
			x.log.release(x.acked.Load())
			x.window.Store(int64(x.log.retained))
			x.amu.Unlock()
		case <-sess.ackDone:
			x.parked.Store(false)
			return
		case <-x.quit:
			x.parked.Store(false)
			x.finalDrain(sess)
			return
		}
		x.parked.Store(false)
	}
}

// flushLimit is the log position the writer may write up to: everything,
// or while the edge is frozen what the freeze sealed.
func (x *exportOp) flushLimit() uint64 {
	if !x.frozen.Load() {
		return ^uint64(0)
	}
	x.amu.Lock()
	defer x.amu.Unlock()
	return x.frozenAt
}

// idle reports that nothing waits to be sealed, written or applied.
func (x *exportOp) idle() bool {
	x.amu.Lock()
	defer x.amu.Unlock()
	return x.frame.count == 0 && x.log.buffered() == 0 && len(x.fx) == 0
}

// sealAndFlush seals the open frame and writes everything sealed.
func (x *exportOp) sealAndFlush(sess *connSession) error {
	x.amu.Lock()
	x.sealLocked()
	x.amu.Unlock()
	return x.flushSess(sess, ^uint64(0))
}

// flushSess writes the sealed bytes up to log position limit to the
// connection, applying the fault effects of each frame on the way: before a
// faulted frame goes out, a kill closes the socket, a stall sleeps, and a
// corruption poisons the wire with an invalid length prefix in the frame's
// place and ends the epoch — the frame itself rides the window to the next
// epoch (the mid-batch-frame fault surface).
func (x *exportOp) flushSess(sess *connSession, limit uint64) error {
	for {
		x.amu.Lock()
		upTo := min(x.log.appended, limit)
		fx, faulted := frameFx{}, len(x.fx) > 0 && x.fx[0].at < upTo
		if faulted {
			fx = x.fx[0]
			upTo = fx.at
		}
		x.amu.Unlock()
		if err := x.flushTo(sess, upTo); err != nil || !faulted {
			return err
		}
		x.amu.Lock()
		x.fx = x.fx[:copy(x.fx, x.fx[1:])]
		x.amu.Unlock()
		if fx.kill {
			_ = sess.conn.Close()
		}
		if fx.stall > 0 {
			time.Sleep(fx.stall)
		}
		if fx.corrupt {
			var bad [4]byte
			binary.LittleEndian.PutUint32(bad[:], ^uint32(0))
			if _, err := sess.conn.Write(bad[:]); err != nil {
				return err
			}
			return fmt.Errorf("pe: export %s injected frame corruption", x.name)
		}
	}
}

// flushTo writes the log's unsent bytes up to position upTo onto the
// connection straight from block memory, counting wire bytes and the flush.
// The socket write runs outside the append lock, so producers keep
// appending; the blocks it covers stay pinned until it returns. Blocks the
// receiver has acknowledged meanwhile are released after it, and a producer
// parked on a full edge is told to retry.
func (x *exportOp) flushTo(sess *connSession, upTo uint64) error {
	l := x.log
	x.amu.Lock()
	iov := l.gather(upTo)
	x.amu.Unlock()
	if len(iov) == 0 {
		return nil
	}
	n, err := l.write(sess.conn, iov)
	x.amu.Lock()
	l.wrote(n)
	l.release(x.acked.Load())
	x.window.Store(int64(l.retained))
	x.amu.Unlock()
	x.signalSpace()
	x.bytes.Add(uint64(n))
	if err != nil {
		return err
	}
	x.flushes.Add(1)
	return nil
}

// finalDrain seals and writes what producers appended before close. A few
// yield rounds let producers that passed the accepting check before close
// land their appends; what cannot be written (dead peer, stuck window) is
// left for finish() to account.
func (x *exportOp) finalDrain(sess *connSession) {
	for round := 0; round < 3; round++ {
		if x.sealAndFlush(sess) != nil {
			return
		}
		runtime.Gosched()
	}
}

// finish settles the stream's books at writer exit: tuples still in the open
// frame never reached the log and drop-and-count, and the never-acknowledged
// appended tuples are recorded — they may or may not have reached the peer.
// The stream is over: nothing can be replayed any more, so the blocks go,
// and producers arriving later drop at the nil log.
func (x *exportOp) finish() {
	x.amu.Lock()
	if n := uint64(x.frame.count); n > 0 {
		x.dropped.Add(n)
		x.sent.Add(-n)
		x.nextSeq -= n
		x.seqHigh.Store(x.nextSeq)
	}
	if a := x.acked.Load(); a < x.nextSeq {
		x.unacked.Store(x.nextSeq - a)
	}
	x.log, x.frame, x.fx = nil, openFrame{}, nil
	x.amu.Unlock()
	x.window.Store(0)
}

// redial re-establishes the stream connection with capped exponential
// backoff plus jitter, returning nil only when the export closes first.
func (x *exportOp) redial() net.Conn {
	backoff := x.cfg.ReconnectBaseDelay
	for {
		if x.closed.Load() {
			return nil
		}
		conn, err := net.DialTimeout("tcp", x.currentAddr(), handshakeTimeout)
		if err == nil {
			return conn
		}
		// Jitter spreads simultaneous redials (a dead PE kills many
		// streams at once) across the backoff window.
		d := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		timer := time.NewTimer(d)
		select {
		case <-x.quit:
			timer.Stop()
			return nil
		case <-timer.C:
		}
		backoff *= 2
		if backoff > x.cfg.ReconnectMaxDelay {
			backoff = x.cfg.ReconnectMaxDelay
		}
	}
}

// Sent returns the number of tuples appended to the stream (assigned a wire
// sequence).
func (x *exportOp) Sent() uint64 { return x.sent.Load() }

// Dropped returns the number of tuples the stream never took.
func (x *exportOp) Dropped() uint64 { return x.dropped.Load() }

// BytesSent returns the wire bytes of encoded frames, retransmits included.
func (x *exportOp) BytesSent() uint64 { return x.bytes.Load() }

// Flushes returns the number of explicit flushes onto the connection.
func (x *exportOp) Flushes() uint64 { return x.flushes.Load() }

// WireFrames returns the number of batch frames sealed into the log.
// Sent/WireFrames is the batch amortization ratio; WireFrames/Flushes is
// frames per flush.
func (x *exportOp) WireFrames() uint64 { return x.wireFrames.Load() }

// Retransmits returns the number of frame writes beyond each frame's first.
func (x *exportOp) Retransmits() uint64 { return x.retrans.Load() }

// Reconnects returns the number of successful re-attaches.
func (x *exportOp) Reconnects() uint64 { return x.reconnects.Load() }

// Unacked returns the appended tuples never acknowledged, recorded at close.
func (x *exportOp) Unacked() uint64 { return x.unacked.Load() }

// UnackedBytes returns the block memory the stream retains for replay: the
// blocks holding frames the receiver has not acknowledged yet.
func (x *exportOp) UnackedBytes() int64 { return x.window.Load() }

// StagedDepth returns what the edge holds but has not handed on: on a wire
// edge the bytes appended but not yet written to the socket, open frame
// included; on a local edge the tuples in the ring. Zero means everything
// appended has left the export.
func (x *exportOp) StagedDepth() int {
	if !x.wired.Load() {
		return 0
	}
	if x.ring != nil {
		return x.ring.Len()
	}
	x.amu.Lock()
	defer x.amu.Unlock()
	if x.log == nil {
		return 0
	}
	n := x.log.buffered()
	if x.frame.count > 0 {
		n += 4 + x.frame.body
	}
	return n
}

// Connected reports whether the stream currently has a healthy connection.
func (x *exportOp) Connected() bool { return x.connected.Load() }

// LastProgress returns when the writer last made useful progress.
func (x *exportOp) LastProgress() time.Time {
	return time.Unix(0, x.progress.Load())
}

func (x *exportOp) close() {
	if x.closed.Swap(true) {
		return
	}
	x.mu.Lock()
	if x.conn != nil {
		// Unblock a writer stuck in a TCP write against a stalled peer so
		// the final drain is bounded.
		_ = x.conn.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
	}
	quit, done := x.quit, x.done
	x.mu.Unlock()
	if quit != nil {
		close(quit)
		<-done
	}
	if x.local.Load() {
		// No writer goroutine settled the books: leftover clones the peer
		// never popped drop-and-count here so pushed == sent + dropped
		// converges, exactly as finish() does for a wire stream. The peer
		// may race a final pop; MPMC keeps the split disjoint.
		x.connected.Store(false)
		var batch [localPopMax]*spl.Tuple
		for {
			n := x.ring.TryPopN(batch[:])
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				x.dropped.Add(1)
				batch[i].Release()
				batch[i] = nil
			}
			x.signalSpace()
		}
		return
	}
	x.mu.Lock()
	if x.conn != nil {
		_ = x.conn.Close()
	}
	x.mu.Unlock()
}

// importSource is the source standing in for a cross-PE stream's receiving
// side. A dedicated reader goroutine reads each frame into a pooled arena,
// validates it, sheds the duplicate prefix a retransmit carries, and hands
// the frame — not its tuples — to the operator thread through a small MPMC
// frame ring. Next builds the tuples on the operator thread and emits them
// in one EmitN, so a compiled region's batch buffer takes the frame whole
// and every tuple is acquired and released by the goroutines of one engine.
// A blocked TCP read can never stall the engine's pause barrier, and one
// wake delivers a whole frame.
//
// The import owns the stream's listener (when launched as part of a job):
// after a connection dies it accepts the sender's redial, replies with its
// delivered wire-sequence watermark so the sender resumes from its block
// log, and deduplicates by wire sequence — retransmitted frames
// it already delivered drop-and-count, making the at-least-once wire
// exactly-once downstream.
type importSource struct {
	name string

	// rec/recPE/site feed the flight recorder; a nil rec no-ops every
	// Record.
	rec   *obs.FlightRecorder
	recPE int32
	site  int

	mu     sync.Mutex
	conn   net.Conn
	ln     net.Listener
	inq    *queue.MPMC[frameRef] // frame ring: reader -> operator thread
	done   chan struct{}
	closed atomic.Bool

	// inWake nudges an operator thread parked on an empty frame ring;
	// inSpace nudges a reader blocked on a full one. Both carry at most one
	// pending signal, like the export's wake/space pair.
	inWake  chan struct{}
	inSpace chan struct{}

	// rbatch is the operator thread's build (or, on a local edge, pop)
	// scratch; only the thread driving Next touches it.
	rbatch []*spl.Tuple

	// peer is the in-process fast path: a non-nil peer means this import pops
	// the co-located export's tuple ring directly (no reader goroutine, frame
	// ring, or connection exists).
	peer *exportOp

	// timer is the reusable idle-poll timer; only the operator thread
	// driving Next touches it.
	timer *time.Timer

	received  atomic.Uint64 // unique tuples delivered downstream
	delivered atomic.Uint64 // highest wire sequence delivered (resume/dedup)
	frames    atomic.Uint64 // wire frames decoded
	dups      atomic.Uint64 // retransmitted tuples dropped by dedup
	resumes   atomic.Uint64 // connections re-accepted after the first
	bytes     atomic.Uint64

	// Checkpoint/replay support. emitted is the wire sequence of the last
	// tuple actually emitted downstream (wire sequences are contiguous per
	// unique delivery, so it equals the emit count); the checkpoint
	// coordinator stamps it on each epoch under the pause barrier.
	// ackFloor caps the acknowledgement watermark reported upstream:
	// while gated (checkpointing on), acks never pass the last committed
	// checkpoint, so the export's block log provably retains the replay
	// range (floor, head]. MaxUint64 means ungated. ackKick wakes the
	// current connection's ack ticker when the floor advances, so the sender
	// frees the committed blocks at once instead of at the next tick.
	emitted  atomic.Uint64
	ackFloor atomic.Uint64
	ackKick  chan struct{}

	// Commit-on-pressure (armed with the ack gate, see armPressure). winBytes
	// is the block memory the delivered frames cost the sender's log, charged
	// exactly as the log charges it (blockCharge over pressRoom); cutBytes is
	// its value at the last cut and commitBytes at the last committed one, so
	// winBytes-commitBytes is the window the sender is holding for replay.
	// When that passes pressHigh the reader asks the checkpointer for an
	// early cut through pressCut. pressRoom and reqBytes (winBytes at the
	// last request) belong to the reader goroutine.
	pressHigh   atomic.Uint64
	pressCut    func()
	winBytes    atomic.Uint64
	cutBytes    atomic.Uint64
	commitBytes atomic.Uint64
	pressRoom   int
	reqBytes    uint64

	// pendingRewind, guarded by mu, is a recovery request: the reader
	// loop applies it between connection epochs (see rewind).
	pendingRewind *rewindReq
	rewinding     atomic.Bool
}

// rewindReq asks the reader loop to roll the dedup/resume watermarks back
// to a checkpoint; done is closed once the rewind has been applied.
type rewindReq struct {
	to   uint64
	done chan struct{}
}

var (
	_ spl.Source      = (*importSource)(nil)
	_ spl.DrainExempt = (*importSource)(nil)
)

func newImportSource(name string) *importSource {
	s := &importSource{name: name, ackKick: make(chan struct{}, 1)}
	s.ackFloor.Store(^uint64(0)) // ungated until checkpointing arms the gate
	return s
}

// seedWatermark pre-loads the delivered/emitted watermarks so a replacement
// import continues a retired predecessor's sequence domain: the next resume
// handshake tells the (rerouted) sender to skip everything the old import
// already delivered. Must be called before connect.
func (s *importSource) seedWatermark(n uint64) {
	s.delivered.Store(n)
	s.emitted.Store(n)
}

// gateAcks arms the ack floor at zero: no frame is acknowledged upstream
// until the first checkpoint commits and advances the floor. Called once
// at wiring time, before the engine starts.
func (s *importSource) gateAcks() { s.ackFloor.Store(0) }

// armPressure turns commit-on-pressure on: once high bytes of sender block
// memory have arrived past the last committed cut, the reader calls cut (the
// PE checkpointer's non-blocking RequestCut). Called once at wiring time,
// before the engine starts.
func (s *importSource) armPressure(high uint64, cut func()) {
	s.pressCut = cut
	s.pressHigh.Store(high)
}

// advanceAckFloor raises the ack floor to the committed checkpoint
// watermark (floor only ever advances), moves the pressure gauge's base to
// that cut, and acknowledges upstream at once: every block below the floor
// is window the sender holds for nothing.
func (s *importSource) advanceAckFloor(wm uint64) {
	storeMax(&s.ackFloor, wm)
	s.commitBytes.Store(s.cutBytes.Load())
	select {
	case s.ackKick <- struct{}{}:
	default:
	}
}

// notePressure charges one delivered frame to the pressure gauge and asks
// for an early cut when the window past the last commit reaches the
// high-water mark — once per mark: the next request waits for a commit to
// move the base or for another mark's worth of traffic. Reader goroutine
// only.
func (s *importSource) notePressure(frameBytes int) {
	high := s.pressHigh.Load()
	if high == 0 {
		return
	}
	charge := blockCharge(&s.pressRoom, frameBytes)
	if charge == 0 {
		return
	}
	w := s.winBytes.Add(uint64(charge))
	commit := s.commitBytes.Load()
	if base := max(commit, s.reqBytes); w-base < high {
		return
	}
	s.reqBytes = w
	s.rec.Record(obs.EvPressureCut, s.recPE, int64(s.site), int64(w-commit), "")
	s.pressCut()
}

// ackView caps an acknowledgement value at the ack floor.
func (s *importSource) ackView(v uint64) uint64 {
	if f := s.ackFloor.Load(); v > f {
		return f
	}
	return v
}

// cutWatermark returns the wire sequence of the last tuple emitted
// downstream and marks the pressure gauge's position for this cut; the
// checkpoint coordinator calls it under the pause barrier.
func (s *importSource) cutWatermark() uint64 {
	s.cutBytes.Store(s.winBytes.Load())
	return s.emitted.Load()
}

// rewind rolls the import back to checkpoint watermark `to`: the current
// connection epoch is killed, frames read-but-not-built are released, and
// the dedup/resume watermarks reset so the next handshake makes the sender
// retransmit (to, head] from its log. Called with the engine paused, so no
// Next is in flight; replayed tuples re-enter the pipeline exactly as live
// ones. No-op on local edges, closed streams, or when `to` is ahead of this
// stream's delivery (foreign watermark).
func (s *importSource) rewind(to uint64) {
	if s.peer != nil || s.closed.Load() {
		return
	}
	s.mu.Lock()
	if s.inq == nil || to > s.delivered.Load() || s.pendingRewind != nil {
		s.mu.Unlock()
		return
	}
	req := &rewindReq{to: to, done: make(chan struct{})}
	s.pendingRewind = req
	s.rewinding.Store(true)
	conn, ended := s.conn, s.done
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	// The reader may be blocked pushing a frame into a full ring (the engine
	// is paused) and must finish its epoch before the rewind can apply: wake
	// it, and pushFrame gives up on seeing the rewind. Only applyRewind
	// empties the ring — draining it from here would race the next epoch and
	// throw replayed frames away. The timeout only guards pathological
	// shutdown races (no live connection and no redial); a late apply is
	// still safe — it just re-delivers tuples the dedup downstream drops.
	s.signalInSpace()
	timeout := time.NewTimer(5 * time.Second)
	defer timeout.Stop()
	select {
	case <-req.done:
	case <-ended: // stream ended underneath the rewind
	case <-timeout.C:
	}
}

// applyRewind applies a pending rewind between connection epochs: no
// serveConn is active, so draining the frame ring and resetting the
// watermarks races nobody. (The engine is paused, so no Next pops either.)
func (s *importSource) applyRewind(q *queue.MPMC[frameRef]) {
	s.mu.Lock()
	req := s.pendingRewind
	s.pendingRewind = nil
	s.mu.Unlock()
	if req == nil {
		return
	}
	for {
		f, ok := q.TryPop()
		if !ok {
			break
		}
		f.a.Release()
	}
	s.delivered.Store(req.to)
	s.emitted.Store(req.to)
	// The replayed range is already in the sender's log: charge it once.
	commit := s.commitBytes.Load()
	s.winBytes.Store(commit)
	s.reqBytes, s.pressRoom = commit, 0
	s.rewinding.Store(false)
	close(req.done)
}

// Name returns the operator name.
func (s *importSource) Name() string { return s.name }

// DrainExempt keeps the import running during a drain: it carries the
// in-flight tuples the drain is waiting for.
func (s *importSource) DrainExempt() {}

// Process is a no-op: sources have no input ports.
func (s *importSource) Process(int, *spl.Tuple, spl.Emitter) {}

// connect attaches the stream's first connection and starts the reader
// goroutine; must happen before the engine starts. A non-nil listener is
// adopted for the stream's lifetime: when a connection dies the reader
// accepts the sender's redial on it and resumes. With ln nil the first
// connection is the only one (tests, benchmarks).
func (s *importSource) connect(conn net.Conn, ln net.Listener) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conn = conn
	s.ln = ln
	// importRingFrames is a power of two, so NewMPMC cannot fail.
	s.inq, _ = queue.NewMPMC[frameRef](importRingFrames)
	s.inWake = make(chan struct{}, 1)
	s.inSpace = make(chan struct{}, 1)
	s.rbatch = make([]*spl.Tuple, maxBatchTuples)
	s.done = make(chan struct{})
	go s.readLoop(conn, s.inq, s.done)
}

// connectLocal wires the import as the receiving half of an in-process
// edge: Next pops the co-located export's tuple ring directly instead of
// building frames a reader goroutine hands over. Must happen before the
// engine starts, after the export's connectLocal.
func (s *importSource) connectLocal(exp *exportOp) {
	s.mu.Lock()
	s.peer = exp
	s.rbatch = make([]*spl.Tuple, localPopMax)
	s.mu.Unlock()
}

func (s *importSource) setConn(conn net.Conn) {
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()
}

// readLoop serves connection epochs: read frames from the current
// connection until it dies, then (with a listener) accept the sender's
// redial and continue. done closes only when the stream truly ends; the
// operator thread treats done-closed plus an empty frame ring as
// end-of-stream.
func (s *importSource) readLoop(conn net.Conn, q *queue.MPMC[frameRef], done chan struct{}) {
	defer close(done)
	for {
		if conn != nil {
			s.serveConn(conn, q)
			_ = conn.Close()
			conn = nil
		}
		// Between connection epochs no reader is running: the only safe
		// point to roll the watermarks back for a checkpoint recovery.
		s.applyRewind(q)
		s.mu.Lock()
		ln := s.ln
		s.mu.Unlock()
		if ln == nil || s.closed.Load() {
			return
		}
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.closed.Load() {
			_ = c.Close()
			return
		}
		// A rewind requested while blocked in Accept applies now, before
		// the new epoch handshakes with the (rolled-back) watermark.
		s.applyRewind(q)
		s.resumes.Add(1)
		s.rec.Record(obs.EvResume, s.recPE, int64(s.site), 0, "")
		s.setConn(c)
		conn = c
	}
}

// serveConn speaks one connection epoch of the resume protocol: send the
// delivered watermark as the handshake, then read and validate batch
// frames, shedding the records whose wire sequences sit at or below the
// watermark (retransmitted duplicates — within a batch frame the overlap is
// always a prefix, since sequences ascend) and acknowledging delivery
// inline every ackEvery frames or ackEveryBytes with a ticker covering the
// idle tail (and a kick from the checkpoint commit path). A validated frame
// lands in the frame ring with one push; a full ring blocks the reader on
// the operator thread's space signal, which stops the socket reads and lets
// TCP push back on the sender.
func (s *importSource) serveConn(conn net.Conn, q *queue.MPMC[frameRef]) {
	var wmu sync.Mutex
	var ackFailed atomic.Bool
	writeU64 := func(v uint64) bool {
		if ackFailed.Load() {
			return false
		}
		wmu.Lock()
		defer wmu.Unlock()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		_ = conn.SetWriteDeadline(time.Now().Add(ackWriteTimeout))
		_, err := conn.Write(b[:])
		_ = conn.SetWriteDeadline(time.Time{})
		if err != nil {
			ackFailed.Store(true)
			return false
		}
		return true
	}
	// Every acknowledgement — handshake included — is capped at the ack
	// floor: with checkpointing armed, frames above the last committed
	// watermark stay in the sender's block log so a recovery rewind
	// can replay them. The resume/dedup watermark (delivered) is NOT
	// capped; excess retransmits after a reconnect are dropped as dups.
	if !writeU64(s.ackView(s.delivered.Load())) {
		return
	}
	lastAcked := s.ackView(s.delivered.Load())
	var tickAcked atomic.Uint64
	tickAcked.Store(lastAcked)
	stopTick := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		tick := time.NewTicker(ackTickInterval)
		defer tick.Stop()
		for {
			select {
			case <-stopTick:
				return
			case <-tick.C:
			case <-s.ackKick:
			}
			d := s.ackView(s.delivered.Load())
			if d != tickAcked.Load() && writeU64(d) {
				tickAcked.Store(d)
			}
		}
	}()
	defer func() {
		close(stopTick)
		<-tickDone
	}()
	dec := newDecoder(conn)
	defer dec.close()
	sinceAck, sinceAckBytes := 0, 0
	for {
		f, err := dec.readFrame()
		if err != nil {
			// EOF ends the epoch cleanly; a framing error also ends it —
			// the reset is what triggers the sender's retransmit resume.
			return
		}
		if s.rewinding.Load() {
			// A checkpoint recovery is rolling this stream back; end the
			// epoch without advancing any watermark.
			f.a.Release()
			return
		}
		size := dec.lastFrameBytes()
		s.bytes.Add(uint64(size))
		s.frames.Add(1)
		// Dedup at tuple-seq granularity: a retransmitted batch frame that
		// partially overlaps the watermark sheds its already-delivered
		// prefix here.
		if wm := s.delivered.Load(); wm >= f.base {
			f.skip = int(min(wm-f.base+1, uint64(f.count)))
			s.dups.Add(uint64(f.skip))
			if f.skip == f.count {
				f.a.Release()
				continue // whole frame was duplicate
			}
		}
		last := f.base + uint64(f.count) - 1
		s.delivered.Store(last)
		if !s.pushFrame(q, f) {
			return // closing or rewinding; the frame was released
		}
		s.received.Add(uint64(f.count - f.skip))
		s.notePressure(size)
		sinceAck++
		sinceAckBytes += size
		if sinceAck >= ackEvery || sinceAckBytes >= ackEveryBytes {
			sinceAck, sinceAckBytes = 0, 0
			// Gated, the view sits at the floor between commits: say it once.
			if a := s.ackView(last); a != tickAcked.Load() && writeU64(a) {
				tickAcked.Store(a)
			}
		}
	}
}

// pushFrame lands a validated frame in the frame ring and wakes a parked
// operator thread, parking on the space signal while the ring is full. It
// returns false — releasing the frame — when the stream closes or a rewind
// begins, so a dead consumer can never wedge the reader.
func (s *importSource) pushFrame(q *queue.MPMC[frameRef], f frameRef) bool {
	var timer *time.Timer
	for !q.TryPush(f) {
		if s.closed.Load() || s.rewinding.Load() {
			f.a.Release()
			return false
		}
		if timer == nil {
			timer = time.NewTimer(importPollInterval)
			defer timer.Stop()
		} else {
			timer.Reset(importPollInterval)
		}
		select {
		case <-s.inSpace:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
		}
	}
	s.signalInWake()
	return true
}

// signalInWake nudges an operator thread parked on an empty frame ring.
func (s *importSource) signalInWake() {
	select {
	case s.inWake <- struct{}{}:
	default:
	}
}

// signalInSpace tells a reader blocked on a full frame ring that a slot
// freed.
func (s *importSource) signalInSpace() {
	select {
	case s.inSpace <- struct{}{}:
	default:
	}
}

// Next emits the next frame's tuples: a non-blocking pop when traffic is
// flowing (no timer-heap traffic at all on that path), falling back to a
// park on the reader's wake signal bounded by the reusable poll timer when
// the stream is quiet. It yields with true (and no emission) when the stream
// is idle for a poll interval, and returns false only once the stream has
// ended and drained.
func (s *importSource) Next(out spl.Emitter) bool {
	if s.peer != nil {
		return s.nextLocal(out)
	}
	s.mu.Lock()
	q, done := s.inq, s.done
	s.mu.Unlock()
	if q == nil {
		// Not wired yet; yield.
		time.Sleep(importPollInterval)
		return !s.closed.Load()
	}
	// Fast path: a frame is already waiting; the poll timer stays cold.
	if s.emitFrame(out, q) {
		return true
	}
	select {
	case <-done:
		// The reader has exited; emit anything it pushed before the end,
		// then finish the stream. (done closing happens after the reader's
		// final push, so an empty pop here really is the end.)
		return s.emitFrame(out, q)
	default:
	}
	if s.timer == nil {
		s.timer = time.NewTimer(importPollInterval)
	} else {
		s.timer.Reset(importPollInterval)
	}
	select {
	case <-s.inWake:
		if !s.timer.Stop() {
			// The timer fired concurrently; drain it so the next Reset
			// starts clean (pre-1.23 timer semantics).
			select {
			case <-s.timer.C:
			default:
			}
		}
		s.emitFrame(out, q)
		return true
	case <-done:
		if !s.timer.Stop() {
			select {
			case <-s.timer.C:
			default:
			}
		}
		return s.emitFrame(out, q)
	case <-s.timer.C:
		return true
	}
}

// emitFrame pops one frame, builds its tuples on the calling operator
// thread and hands them downstream in one emitN; false when the ring is
// empty. The whole frame goes in one call, so no decode state outlives it.
func (s *importSource) emitFrame(out spl.Emitter, q *queue.MPMC[frameRef]) bool {
	f, ok := q.TryPop()
	if !ok {
		return false
	}
	s.signalInSpace()
	s.emitN(out, buildFrame(f, s.rbatch))
	return true
}

// nextLocal is the in-process edge's Next: pop a batch straight off the
// peer export's tuple ring and emit it — ownership of the pooled clones
// transfers to this PE's runtime, which releases them downstream exactly as
// it would built tuples. On an empty ring it parks on the export's wake
// protocol (the same parked-flag handshake the writer goroutine uses, so
// Process's wakeWriter nudges the import instead), bounded by the reusable
// poll timer so engine reconfiguration is never stalled by a quiet edge.
func (s *importSource) nextLocal(out spl.Emitter) bool {
	p := s.peer
	n := p.localPop(s.rbatch)
	if n > 0 {
		for i := 0; i < n; i++ {
			out.Emit(0, s.rbatch[i])
			s.rbatch[i] = nil
		}
		s.received.Add(uint64(n))
		return true
	}
	if s.closed.Load() || p.localDrained() {
		return false
	}
	p.parked.Store(true)
	if p.ring.Len() > 0 {
		p.parked.Store(false)
		return true
	}
	if s.timer == nil {
		s.timer = time.NewTimer(importPollInterval)
	} else {
		s.timer.Reset(importPollInterval)
	}
	fired := false
	select {
	case <-p.wake:
	case <-p.quit:
	case <-s.timer.C:
		fired = true
	}
	p.parked.Store(false)
	if !fired && !s.timer.Stop() {
		select {
		case <-s.timer.C:
		default:
		}
	}
	return true
}

// emitN hands the first n tuples of the build scratch downstream — in one
// EmitN when the emitter is batch-aware, so a cross-PE frame lands straight
// in a compiled region's source buffer, else tuple by tuple — and counts
// them.
func (s *importSource) emitN(out spl.Emitter, n int) {
	if be, ok := out.(spl.BatchEmitter); ok {
		be.EmitN(0, s.rbatch[:n])
		for i := 0; i < n; i++ {
			s.rbatch[i] = nil
		}
	} else {
		for i := 0; i < n; i++ {
			out.Emit(0, s.rbatch[i])
			s.rbatch[i] = nil
		}
	}
	// Wire sequences are contiguous, so counting emits tracks the wire
	// sequence of the last tuple handed downstream — the checkpoint
	// watermark read under the pause barrier.
	s.emitted.Add(uint64(n))
}

// Received returns the number of unique tuples delivered downstream.
func (s *importSource) Received() uint64 { return s.received.Load() }

// BytesReceived returns the wire bytes of successfully decoded frames.
func (s *importSource) BytesReceived() uint64 { return s.bytes.Load() }

// FramesReceived returns the number of wire frames decoded.
func (s *importSource) FramesReceived() uint64 { return s.frames.Load() }

// DupsDropped returns the retransmitted duplicates dropped by dedup.
func (s *importSource) DupsDropped() uint64 { return s.dups.Load() }

// Resumes returns the connections re-accepted after the first.
func (s *importSource) Resumes() uint64 { return s.resumes.Load() }

func (s *importSource) close() {
	s.closed.Store(true)
	s.mu.Lock()
	conn, ln, done := s.conn, s.ln, s.done
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	if conn != nil {
		_ = conn.Close()
	}
	if done != nil {
		<-done
	}
}

// dialStream connects a sender to a receiver's listener with retries, since
// PE launch order is arbitrary.
func dialStream(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	if lastErr == nil {
		lastErr = errors.New("dial timeout")
	}
	return nil, lastErr
}

// accepted wraps an accept result.
type accepted struct {
	conn net.Conn
	err  error
}

// acceptOne accepts a single connection asynchronously.
func acceptOne(l net.Listener) <-chan accepted {
	ch := make(chan accepted, 1)
	go func() {
		conn, err := l.Accept()
		ch <- accepted{conn: conn, err: err}
	}()
	return ch
}
