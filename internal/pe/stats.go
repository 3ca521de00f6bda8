package pe

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// TransportConfig tunes the inter-PE stream transport. The zero value means
// defaults throughout, so existing callers keep their behaviour. There is
// no flush policy to tune: the writer writes whatever producers have sealed
// each time it runs, so frames per write follow the load and an idle
// stream never holds a tuple back.
type TransportConfig struct {
	// BlockTimeout bounds how long a full edge — the block log's budget
	// spent, or 1 MiB of sealed frames waiting for the socket — blocks the
	// producing scheduler thread (default 1s, also for any value ≤ 0); on
	// expiry the tuple is dropped and counted. A tiny timeout trades
	// completeness for latency. A frozen edge parks its producers until the
	// thaw whatever the timeout, so a migration loses nothing.
	BlockTimeout time.Duration
	// RetransmitBytes is the byte budget of the export's block log — the
	// block memory holding encoded frames until the receiver acknowledges
	// them (default 1 MiB, four acknowledgement periods; 16 MiB when Launch
	// gates acks at the checkpoint floor; at least two 64 KiB blocks). It
	// bounds both resume traffic after a reconnect and the memory held per
	// stream, and a spent budget blocks producers until acknowledgements
	// arrive. The ungated default is deliberately small: a sender whose
	// receiver is the bottleneck fills whatever window it is given, kernel
	// socket buffers included, so the budget is the edge's standing queue —
	// memory every byte of which is written and read once per pass, and which
	// stays cache-resident only while it is short. A checkpoint-gated import
	// asks for an early cut once half of the budget has arrived past the last
	// commit, so a gated budget trades memory for cut rate: 16 MiB holds the
	// standing replay window near 8 MiB at the price of a cut per 8 MiB of
	// traffic. Raise it for a job whose cut pauses the PE for more than ~10
	// ms and that cuts several times a second: each doubling halves the cut
	// rate and doubles the memory held.
	RetransmitBytes int
	// ReconnectBaseDelay/ReconnectMaxDelay bound the export's redial
	// backoff after a lost connection: capped exponential growth from base
	// to max, with jitter (defaults 10ms / 500ms; a max below the base is
	// raised to the base).
	ReconnectBaseDelay time.Duration
	ReconnectMaxDelay  time.Duration
}

const (
	defaultBlockTimeout    = time.Second
	defaultRetransmitBytes = 1 << 20
	gatedRetransmitBytes   = 16 << 20
	defaultReconnectBase   = 10 * time.Millisecond
	defaultReconnectMax    = 500 * time.Millisecond
)

// withDefaults fills zero fields.
func (c TransportConfig) withDefaults() TransportConfig {
	if c.BlockTimeout <= 0 {
		c.BlockTimeout = defaultBlockTimeout
	}
	if c.RetransmitBytes <= 0 {
		c.RetransmitBytes = defaultRetransmitBytes
	}
	if c.RetransmitBytes < 2*logBlockBytes {
		c.RetransmitBytes = 2 * logBlockBytes
	}
	if c.ReconnectBaseDelay <= 0 {
		c.ReconnectBaseDelay = defaultReconnectBase
	}
	if c.ReconnectMaxDelay <= 0 {
		c.ReconnectMaxDelay = defaultReconnectMax
	}
	if c.ReconnectMaxDelay < c.ReconnectBaseDelay {
		c.ReconnectMaxDelay = c.ReconnectBaseDelay
	}
	return c
}

// batchHistBuckets is the number of log2 batch-size buckets: bucket i
// counts sealed frames of [2^i, 2^(i+1)) tuples.
const batchHistBuckets = 8

// batchHist is a lock-free histogram of tuples per sealed frame; it shows whether the stream coalesces (high buckets) or
// runs tuple-at-a-time.
type batchHist [batchHistBuckets]atomic.Uint64

func (h *batchHist) record(n int) {
	if n <= 0 {
		return
	}
	i := bits.Len(uint(n)) - 1
	if i >= batchHistBuckets {
		i = batchHistBuckets - 1
	}
	h[i].Add(1)
}

// snapshot returns the bucket counts, or nil when nothing was recorded.
func (h *batchHist) snapshot() []uint64 {
	out := make([]uint64, batchHistBuckets)
	any := false
	for i := range h {
		out[i] = h[i].Load()
		any = any || out[i] != 0
	}
	if !any {
		return nil
	}
	return out
}

// StreamStats is one cross-PE stream's transport counters, send and receive
// side combined.
type StreamStats struct {
	// Stream identifies the cross edge; FromPE/ToPE are its endpoints.
	Stream int
	FromPE int
	ToPE   int

	// Send side: tuples encoded onto the wire, batch frames sealed
	// (Sent/WireFrames is the batch amortization ratio, WireFrames/Flushes
	// the frames per flush), tuples dropped (stream not wired, errored, or
	// block log full past the blocking budget), wire bytes written,
	// explicit flush syscalls, and DrainSizes, the histogram of tuples per
	// sealed frame (log2 buckets; the name predates the frame log). Several
	// frames usually coalesce into one flush.
	Sent       uint64
	WireFrames uint64
	Dropped    uint64
	BytesSent  uint64
	Flushes    uint64
	DrainSizes []uint64

	// Send-side recovery: frame writes beyond each frame's first (resume
	// traffic after reconnects), successful re-attaches after a lost
	// connection, and staged frames never acknowledged when the stream
	// closed (delivery unknown — counted separately, never as dropped).
	Retransmits uint64
	Reconnects  uint64
	Unacked     uint64

	// Receive side: tuples delivered to the importing PE, wire bytes and
	// wire frames of successfully decoded frames.
	Received       uint64
	BytesReceived  uint64
	FramesReceived uint64

	// Receive-side recovery: retransmitted duplicate tuples dropped by
	// sequence dedup (at-least-once wire made exactly-once downstream) and
	// connections re-accepted after the first.
	DupsDropped uint64
	Resumes     uint64
}
