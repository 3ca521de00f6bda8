package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies flight-recorder events.
type EventKind uint8

// Event kinds. A and B are kind-specific numeric payloads:
//
//	EvAdapt            A=threads B=queues, Detail="phase: note"
//	EvFault            A=site    B=event rank, Detail=point label
//	EvQuarantine       A=node    B=timeout nanos
//	EvRelease          A=node
//	EvReconnect        A=stream
//	EvRetransmit       A=stream  B=frames retransmitted
//	EvResume           A=stream
//	EvWatchdogTrip     Detail=probe cause
//	EvWatchdogRecover
//	EvSteal            A=tuples stolen B=thief worker id (sampled by the engine)
//	EvPark             A=worker id B=cumulative parks (sampled by the engine)
//	EvCheckpoint       A=epoch   B=snapshot bytes, Detail="full"/"incr"
//	EvRestore          A=node (-1 = all) B=epoch, Detail=cause
//	EvPressureCut      A=stream  B=window bytes past the last committed cut
const (
	EvAdapt EventKind = iota + 1
	EvFault
	EvQuarantine
	EvRelease
	EvReconnect
	EvRetransmit
	EvResume
	EvWatchdogTrip
	EvWatchdogRecover
	EvSteal
	EvPark
	EvCheckpoint
	EvRestore
	EvPressureCut
)

// String returns the kind's stable dump label.
func (k EventKind) String() string {
	switch k {
	case EvAdapt:
		return "adapt"
	case EvFault:
		return "fault"
	case EvQuarantine:
		return "quarantine"
	case EvRelease:
		return "release"
	case EvReconnect:
		return "reconnect"
	case EvRetransmit:
		return "retransmit"
	case EvResume:
		return "resume"
	case EvWatchdogTrip:
		return "watchdog-trip"
	case EvWatchdogRecover:
		return "watchdog-recover"
	case EvSteal:
		return "steal"
	case EvPark:
		return "park"
	case EvCheckpoint:
		return "checkpoint"
	case EvRestore:
		return "restore"
	case EvPressureCut:
		return "pressure-cut"
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// Event is one structured flight-recorder entry. Seq is a global 1-based
// record number; Time is unix nanoseconds; PE is the originating processing
// element (-1 when not PE-scoped).
type Event struct {
	Seq    uint64
	Time   int64
	Kind   EventKind
	PE     int32
	A, B   int64
	Detail string
}

// frSlot is one ring cell. The per-slot mutex makes a wrapped-over write
// race-clean against readers without serializing writers globally.
type frSlot struct {
	mu sync.Mutex
	ev Event
}

// DefaultFlightRecorderSize is the ring capacity used when none is given.
const DefaultFlightRecorderSize = 4096

// FlightRecorder is a bounded ring of the most recent structured runtime
// events: elasticity decisions, fault injections, quarantines, transport
// reconnects/retransmits, watchdog transitions, steal/park transitions. It
// exists to answer "what was the runtime doing right before this?" — the
// watchdog dumps it automatically on a trip.
//
// Record reserves a slot with one atomic add and writes under that slot's
// mutex: concurrent writers never contend unless they collide on a cell,
// and recording allocates nothing. A nil *FlightRecorder is valid and
// drops every event, so call sites need no guards.
type FlightRecorder struct {
	seq   atomic.Uint64
	slots []frSlot
	mask  uint64
}

// NewFlightRecorder returns a recorder retaining the last `capacity` events
// (rounded up to a power of two; <= 0 means DefaultFlightRecorderSize).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightRecorderSize
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &FlightRecorder{slots: make([]frSlot, n), mask: uint64(n - 1)}
}

// Record appends one event, overwriting the oldest when the ring is full.
// Safe for concurrent use and on a nil receiver.
func (f *FlightRecorder) Record(kind EventKind, pe int32, a, b int64, detail string) {
	if f == nil {
		return
	}
	s := f.seq.Add(1)
	slot := &f.slots[(s-1)&f.mask]
	slot.mu.Lock()
	slot.ev = Event{Seq: s, Time: time.Now().UnixNano(), Kind: kind, PE: pe, A: a, B: b, Detail: detail}
	slot.mu.Unlock()
}

// Len returns how many events have ever been recorded (not how many are
// retained).
func (f *FlightRecorder) Len() uint64 {
	if f == nil {
		return 0
	}
	return f.seq.Load()
}

// Cap returns the ring capacity.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Events returns the retained events in sequence order. Records landing
// while the scan runs may or may not appear; ordering among returned events
// is always by Seq.
func (f *FlightRecorder) Events() []Event {
	if f == nil {
		return nil
	}
	out := make([]Event, 0, len(f.slots))
	for i := range f.slots {
		f.slots[i].mu.Lock()
		ev := f.slots[i].ev
		f.slots[i].mu.Unlock()
		if ev.Seq != 0 {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// DumpTo writes a human-readable dump of the retained events, oldest first.
func (f *FlightRecorder) DumpTo(w io.Writer) error {
	for _, ev := range f.Events() {
		t := time.Unix(0, ev.Time).UTC().Format("15:04:05.000000")
		if _, err := fmt.Fprintf(w, "%8d %s pe=%d %-16s a=%d b=%d %s\n",
			ev.Seq, t, ev.PE, ev.Kind, ev.A, ev.B, ev.Detail); err != nil {
			return err
		}
	}
	return nil
}
