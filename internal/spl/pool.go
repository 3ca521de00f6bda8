package spl

import (
	"math/bits"
	"runtime"
	"sync"
	_ "unsafe" // for go:linkname

	"streamelastic/internal/racebuild"
)

// Tuple and payload pooling.
//
// Every scheduler-queue crossing clones a tuple (the paper's copy overhead),
// so under the dynamic threading model the hot path would allocate a Tuple
// plus a payload buffer per crossing. The pools below make the steady state
// allocation-free: Clone draws both the struct and the payload buffer from
// pools, and Release returns them.
//
// Ownership protocol (see DESIGN.md "Hot path & memory discipline"):
//
//   - Emit transfers ownership of the tuple to the runtime; the emitting
//     operator must not touch it afterwards.
//   - The runtime releases a tuple once it has cloned it into a scheduler
//     queue (the clone carries the data onward) and after a Recyclable sink
//     has processed it.
//   - Only payload buffers obtained from the pool (via Clone or
//     AcquirePayload) are recycled; buffers merely referenced by a tuple —
//     such as a Generator's shared payload — are left alone.
//
// Tuple structs go through a free list per P before sync.Pool. Nearly every
// tuple is acquired and released on the goroutine that made it (a source, a
// wire import's frame build, a sink), so a stack indexed by the current P
// serves it without the CAS sync.Pool pays per Get and Put. An empty stack
// falls through to Get, a full one to Put, so tuples that cross Ps cost what
// they did before. Race builds use sync.Pool alone (see internal/racebuild).
//
// Releasing a tuple that was never pool-allocated is safe; both free lists
// accept foreign values. Releasing the same tuple twice is a bug (two later
// acquires would alias), which is why only the runtime calls Release.

// Payload size classes are powers of two from 64 B to 1 MiB; larger payloads
// fall back to the garbage collector.
const (
	minPayloadClassBits = 6
	maxPayloadClassBits = 20
	numPayloadClasses   = maxPayloadClassBits - minPayloadClassBits + 1
)

var tuplePool = sync.Pool{New: func() any { return new(Tuple) }}

// tupleCacheSize is twice the largest batch one engine thread holds before
// releasing any of it (a 128-record wire frame), so a batch of releases fits
// on top of a batch of acquires without spilling.
const tupleCacheSize = 256

// tupleCache is one P's stack; a cache line of padding keeps neighbouring
// Ps' counts and slots off each other's lines.
type tupleCache struct {
	n     int
	stack [tupleCacheSize]*Tuple
	_     [64]byte
}

// tupleCaches has one stack per P; a P id beyond it (GOMAXPROCS raised at
// run time) uses sync.Pool alone.
var tupleCaches = make([]tupleCache, max(runtime.GOMAXPROCS(0), runtime.NumCPU()))

// procPin disables preemption and returns the current P's id, so the caller
// owns that P's stack until procUnpin. Both are on the runtime's linkname
// allowlist (go.dev/issue/67401).
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// payloadPools recycles payload buffers per power-of-two size class. The
// pools store *[]byte boxes rather than slices so neither Get nor Put
// allocates an interface header; the box pointer travels with the buffer
// inside Tuple.payloadBox between acquire and release.
var payloadPools [numPayloadClasses]sync.Pool

func init() {
	for c := range payloadPools {
		size := 1 << (minPayloadClassBits + c)
		payloadPools[c].New = func() any {
			b := make([]byte, size)
			return &b
		}
	}
}

// payloadClass returns the size class whose buffers hold n > 0 bytes, or -1
// when n exceeds the largest pooled class.
func payloadClass(n int) int {
	if n > 1<<maxPayloadClassBits {
		return -1
	}
	c := bits.Len(uint(n-1)) - minPayloadClassBits
	if c < 0 {
		return 0
	}
	return c
}

// AcquireTuple returns a zeroed tuple from the pool. Callers that hand the
// tuple to Emit relinquish it; the runtime recycles it at the end of its
// life, so sources and operators that acquire every emitted tuple run
// allocation-free in the steady state.
func AcquireTuple() *Tuple {
	if !racebuild.Enabled {
		if pid := procPin(); pid < len(tupleCaches) {
			if c := &tupleCaches[pid]; c.n > 0 {
				c.n--
				t := c.stack[c.n]
				c.stack[c.n] = nil
				procUnpin()
				return t
			}
		}
		procUnpin()
	}
	return tuplePool.Get().(*Tuple)
}

// AcquirePayload gives t an exclusively owned payload buffer of length n
// drawn from the pool (len(t.Payload) == n; contents are unspecified).
// Release will return the buffer to its size class.
func (t *Tuple) AcquirePayload(n int) {
	if t.arena != nil {
		// The tuple is trading an arena view for an owned buffer; drop the
		// view's reference first so the frame buffer can recycle.
		t.arena.Release()
		t.arena = nil
	}
	if n <= 0 {
		t.Payload, t.payloadBox = nil, nil
		return
	}
	c := payloadClass(n)
	if c < 0 {
		t.Payload, t.payloadBox = make([]byte, n), nil
		return
	}
	box := payloadPools[c].Get().(*[]byte)
	t.Payload, t.payloadBox = (*box)[:n], box
}

// Release returns the tuple — and its payload buffer, when pool-owned — to
// the pools. The caller must hold the only live reference; afterwards the
// tuple must not be touched. Only the runtime and tests call Release; see
// the ownership protocol above.
func (t *Tuple) Release() {
	if t.payloadBox != nil {
		payloadPools[payloadClass(cap(*t.payloadBox))].Put(t.payloadBox)
	} else if t.arena != nil {
		t.arena.Release()
	}
	*t = Tuple{}
	if !racebuild.Enabled {
		if pid := procPin(); pid < len(tupleCaches) {
			if c := &tupleCaches[pid]; c.n < tupleCacheSize {
				c.stack[c.n] = t
				c.n++
				procUnpin()
				return
			}
		}
		procUnpin()
	}
	tuplePool.Put(t)
}

// PayloadPooled reports whether the tuple's payload buffer is owned by the
// payload pool (diagnostic; used by tests).
func (t *Tuple) PayloadPooled() bool { return t.payloadBox != nil }
