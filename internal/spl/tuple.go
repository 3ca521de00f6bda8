// Package spl implements the stream-processing data and operator model that
// the elastic runtime schedules: tuples, operators, sources, and a library of
// built-in operators. It mirrors the SPL abstractions described in the paper
// (operators receive and emit tuples on streams) without any scheduling
// policy of its own; threading decisions live in internal/exec and
// internal/core.
package spl

// Tuple is the unit of data flowing between operators.
//
// Tuples carry a fixed set of scalar attributes plus an opaque payload. The
// payload is what makes tuple size matter to the scheduler: crossing a
// scheduler queue — the shared MPMC queues and the per-worker work-stealing
// deques alike — deep-copies the tuple, including the payload, which is the
// "copy overhead" the paper attributes to the dynamic threading model.
//
// Ownership on the dynamic path is exclusive end to end: the emitting side
// clones the tuple into the queue or deque and releases its original, and
// whoever removes the clone — the worker that popped it locally, a thief
// that stole it, or a reconfiguration drain — owns it outright and must
// execute or Release it exactly once. Deque cells are zeroed on removal so
// a pooled tuple is never reachable from two places.
type Tuple struct {
	// Seq is a sequence number assigned by the producing source.
	Seq uint64
	// Key is a partitioning key used by keyed operators.
	Key uint64
	// Time is an event timestamp in nanoseconds, assigned by the source.
	Time int64
	// Text is the primary string attribute (e.g. a word, a domain name).
	Text string
	// Num1 and Num2 are numeric attributes (e.g. price and volume).
	Num1 float64
	Num2 float64
	// Payload is the opaque serialized body of the tuple.
	Payload []byte

	// payloadBox, when non-nil, is the pooled buffer backing Payload;
	// Release returns it to its size-class pool. Tuples whose payload
	// merely references a buffer owned elsewhere leave it nil.
	payloadBox *[]byte

	// arena, when non-nil, means Payload is a read-only view into a shared
	// ref-counted frame buffer (see Arena); Release drops the reference
	// instead of recycling a payload buffer. Mutually exclusive with
	// payloadBox.
	arena *Arena
}

// Clone returns a deep copy of the tuple. The payload bytes are copied, so
// the clone can safely cross a scheduler queue while the original is reused
// by the producing thread. The clone's struct and payload buffer come from
// the tuple pool; recycle them with Release when the clone's life ends.
func (t *Tuple) Clone() *Tuple {
	c := AcquireTuple()
	c.Seq, c.Key, c.Time = t.Seq, t.Key, t.Time
	c.Text, c.Num1, c.Num2 = t.Text, t.Num1, t.Num2
	if n := len(t.Payload); n > 0 {
		c.AcquirePayload(n)
		copy(c.Payload, t.Payload)
	}
	return c
}

// Size returns the number of bytes the tuple occupies for copy-cost
// accounting: the payload plus a fixed header estimate for the scalar
// attributes.
func (t *Tuple) Size() int {
	return len(t.Payload) + tupleHeaderBytes + len(t.Text)
}

// tupleHeaderBytes approximates the fixed in-memory size of a tuple's scalar
// attributes for copy-cost accounting.
const tupleHeaderBytes = 64
