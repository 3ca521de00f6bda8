package pe

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"streamelastic/internal/spl"
)

// logBlockBytes is the size of one pooled block of the export's block log.
// batchTargetBytes is cut so a full batch frame fills exactly one block.
const logBlockBytes = 64 << 10

// pressureShare is the fraction of the byte budget a checkpoint-gated import
// lets arrive past the last committed cut before it asks for an early one
// (commit-on-pressure): half, so the cut commits and its ack frees the first
// half of the window while the sender is still filling the second.
const pressureShare = 2

// blockCharge returns the block memory a frame of n bytes adds to a log
// whose open block has *room bytes left, and updates *room: nothing when the
// frame fits, one pooled block when it opens a fresh one, its own size when
// it is larger than a block and gets a dedicated one. The export's log and a
// gated import's pressure gauge both account with it, so the receiver counts
// exactly the memory its sender retains.
func blockCharge(room *int, n int) int {
	switch {
	case n <= *room:
		*room -= n
		return 0
	case n > logBlockBytes:
		*room = 0
		return n
	default:
		*room = logBlockBytes - n
		return logBlockBytes
	}
}

// logBlock is one block of the log: whole encoded frames back to back,
// covering the inclusive wire-sequence range [first, last].
type logBlock struct {
	buf   []byte
	first uint64
	last  uint64
}

// blockLog is the export's write buffer and retransmit window in one: an
// append-only log of encoded frames held in 64 KiB blocks. Producers seal
// each frame straight into the open block, the writer writes to the socket
// from block memory, and a block returns to the free list once the acked
// watermark passes its last sequence — so the memory retained follows the
// un-acked window, and the window is bounded in bytes of block memory, not in
// frames. Frames never span blocks; a frame larger than a block gets a
// dedicated one that is left to the garbage collector on release.
//
// The export's append lock guards the log. The writer alone gathers and
// writes, and its socket write runs outside the lock: gather pins the blocks
// it hands out until wrote, so a producer that releases acknowledged blocks
// meanwhile never frees memory under an in-flight write. The free list is a
// plain capped stack rather than a sync.Pool, which a GC cycle would empty
// under load.
type blockLog struct {
	budget   int         // bound on retained plus free-listed block memory
	blocks   []*logBlock // live blocks, oldest first; the last one is open
	free     []*logBlock // released pooled blocks
	room     int         // bytes left in the open block
	retained int         // block memory held by live blocks

	// appended and written are running byte totals; the bytes between them
	// are sealed but not yet handed to the socket in this connection epoch.
	// wIdx/wOff locate written inside blocks.
	appended uint64
	written  uint64
	wIdx     int
	wOff     int
	pinned   bool        // a gathered write is in flight from wIdx/wOff on
	iov      [][]byte    // gather's scratch
	bufs     net.Buffers // the header over iov a vectored write consumes
}

func newBlockLog(budget int) *blockLog {
	return &blockLog{budget: budget}
}

// full reports whether a frame of n bytes has to wait for acknowledgements:
// it needs a new block and the budget has none left. Blocks the acked
// watermark has passed are released first. An empty log admits any frame, so
// a single frame larger than the whole budget still makes progress.
func (l *blockLog) full(n int, acked uint64) bool {
	if n <= l.room {
		return false
	}
	l.release(acked)
	if len(l.blocks) == 0 {
		return false
	}
	return l.retained+max(n, logBlockBytes) > l.budget // a fresh block's charge
}

// release returns every block whose sequences the acked watermark covers to
// the free list (dedicated oversize blocks, and pooled ones the budget has no
// room to keep, go to the garbage collector), stopping at a block an
// in-flight write still reads.
func (l *blockLog) release(acked uint64) {
	n := 0
	for n < len(l.blocks) && l.blocks[n].last <= acked {
		b := l.blocks[n]
		if l.pinned && n >= l.wIdx && (n > l.wIdx || l.wOff < len(b.buf)) {
			break
		}
		l.retained -= cap(b.buf)
		if n == l.wIdx {
			// Acknowledged without this epoch having written all of it (a
			// resume handshake moved the cursor back): skip the rest.
			l.written += uint64(len(b.buf) - l.wOff)
			l.wIdx, l.wOff = n+1, 0
		}
		if cap(b.buf) == logBlockBytes && l.retained+(len(l.free)+1)*logBlockBytes <= l.budget {
			b.buf = b.buf[:0]
			l.free = append(l.free, b)
		}
		l.blocks[n] = nil
		n++
	}
	if n == 0 {
		return
	}
	l.blocks = l.blocks[:copy(l.blocks, l.blocks[n:])]
	l.wIdx -= n
	if len(l.blocks) == 0 {
		l.room = 0
	}
}

// open returns the block a frame of n bytes is marshalled into, opening a
// new one when the open block lacks the room.
func (l *blockLog) open(n int) *logBlock {
	charge := blockCharge(&l.room, n)
	if charge == 0 {
		return l.blocks[len(l.blocks)-1]
	}
	var b *logBlock
	if k := len(l.free); charge == logBlockBytes && k > 0 {
		b, l.free = l.free[k-1], l.free[:k-1]
	} else {
		b = &logBlock{buf: make([]byte, 0, charge)}
	}
	b.first = 0
	l.retained += charge
	l.blocks = append(l.blocks, b)
	return b
}

// stamp records a just-appended frame's sequence range on its block.
func (l *blockLog) stamp(b *logBlock, grew int, first, last uint64) {
	if b.first == 0 {
		b.first = first
	}
	b.last = last
	l.appended += uint64(grew)
}

// appendBatch marshals ts as one v2 batch frame of body bytes covering wire
// sequences first..first+len(ts)-1. The caller has checked full and sized
// the batch (see appendBatchFrame).
func (l *blockLog) appendBatch(first uint64, ts []*spl.Tuple, body int) {
	b := l.open(4 + body)
	b.buf = appendBatchFrame(b.buf, first, ts, body)
	l.stamp(b, 4+body, first, first+uint64(len(ts))-1)
}

// appendFrame seals count records as one v2 batch frame from its encoded
// parts: the records back to back in recs, their zigzag-varint lengths in
// lens. The caller has checked full.
func (l *blockLog) appendFrame(first uint64, count int, lens, recs []byte) {
	body := batchHeaderBytes + len(lens) + len(recs)
	b := l.open(4 + body)
	b.buf = appendBatchHeader(b.buf, body, first, count)
	b.buf = append(append(b.buf, lens...), recs...)
	l.stamp(b, 4+body, first, first+uint64(count)-1)
}

// buffered returns the sealed bytes not yet handed to the socket.
func (l *blockLog) buffered() int { return int(l.appended - l.written) }

// gather returns the unsent bytes up to the running total upTo (appended
// for everything) as slices of block memory, and pins their blocks until
// wrote records the write.
func (l *blockLog) gather(upTo uint64) [][]byte {
	l.iov = l.iov[:0]
	idx, off := l.wIdx, l.wOff
	for pos := l.written; pos < upTo; idx, off = idx+1, 0 {
		chunk := l.blocks[idx].buf[off:]
		if rest := upTo - pos; uint64(len(chunk)) > rest {
			chunk = chunk[:rest]
		}
		if len(chunk) > 0 {
			l.iov = append(l.iov, chunk)
			pos += uint64(len(chunk))
		}
	}
	l.pinned = len(l.iov) > 0
	return l.iov
}

// write hands gathered bytes to w and returns how many it took. A range
// that spans blocks goes out as one vectored write where w supports it (a
// TCP connection does), so a flush stays one syscall. It touches no log
// state but the writer's own scratch, so it runs without the lock.
func (l *blockLog) write(w io.Writer, iov [][]byte) (int, error) {
	if len(iov) == 1 {
		return w.Write(iov[0])
	}
	// WriteTo consumes the slice it is called on: hand it a copy of the
	// header, so the scratch keeps its capacity.
	l.bufs = iov
	n, err := l.bufs.WriteTo(w)
	return int(n), err
}

// wrote steps the written cursor over the n bytes a write took (all of the
// gathered ones unless it failed) and unpins.
func (l *blockLog) wrote(n int) {
	l.written += uint64(n)
	for left := n; left > 0; {
		if room := len(l.blocks[l.wIdx].buf) - l.wOff; left > room {
			left -= room
			l.wIdx, l.wOff = l.wIdx+1, 0
		} else {
			l.wOff += left
			left = 0
		}
	}
	l.pinned = false
}

// frameSpan decodes the header of the batch frame at the start of b: its
// wire size and inclusive sequence range.
func frameSpan(b []byte) (size int, first, last uint64) {
	raw := binary.LittleEndian.Uint32(b)
	first = binary.LittleEndian.Uint64(b[4:])
	count := binary.LittleEndian.Uint32(b[12:])
	return 4 + int(raw&^batchFrameFlag), first, first + uint64(count) - 1
}

// resumeFrom starts a connection epoch at the receiver's watermark: it walks
// the live window oldest to newest and moves the written cursor back to the
// first frame carrying sequences past resume, so the next flush re-sends that
// frame and everything after it — whole frames only; a partially delivered
// batch frame goes out whole and the importer's sequence dedup drops the
// overlap. It verifies the frames cover (resume, last] without a gap and
// returns the frame and tuple counts the flush will carry (tuples counted
// past resume only).
func (l *blockLog) resumeFrom(resume uint64) (frames int, tuples uint64, err error) {
	l.written = l.appended // nothing to re-send unless the walk finds it
	if n := len(l.blocks); n > 0 {
		l.wIdx, l.wOff = n-1, len(l.blocks[n-1].buf)
	}
	expect := resume + 1
	pos := l.appended // running byte total at the start of the frame under the walk
	for _, b := range l.blocks {
		pos -= uint64(len(b.buf))
	}
	for i, b := range l.blocks {
		if b.last <= resume {
			pos += uint64(len(b.buf))
			continue
		}
		for off := 0; off < len(b.buf); {
			size, first, last := frameSpan(b.buf[off:])
			if last > resume {
				if first > expect {
					return frames, tuples, fmt.Errorf("pe: frames (%d, %d) left the retransmit window", resume, first)
				}
				if frames == 0 {
					l.written, l.wIdx, l.wOff = pos, i, off
				}
				frames++
				from := first
				if expect > from {
					from = expect
				}
				tuples += last - from + 1
				expect = last + 1
			}
			off += size
			pos += uint64(size)
		}
	}
	return frames, tuples, nil
}
