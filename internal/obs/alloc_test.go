package obs

import (
	"testing"
	"time"

	"streamelastic/internal/racebuild"
)

// allocGuard asserts that step allocates nothing per run, matching the
// engine's pool-guard convention: warm first, then AllocsPerRun, skipped
// under the race detector where instrumentation itself allocates.
func allocGuard(t *testing.T, name string, step func()) {
	t.Helper()
	if racebuild.Enabled {
		t.Skip("alloc accounting is unreliable under the race detector")
	}
	for i := 0; i < 128; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(5000, step); avg > 0.05 {
		t.Fatalf("%s allocates %.3f per op, want 0", name, avg)
	}
}

func TestCounterIncAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	allocGuard(t, "Counter.Inc", c.Inc)
}

func TestHistogramObserveAllocFree(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help")
	d := 137 * time.Nanosecond
	allocGuard(t, "Histogram.Observe", func() {
		h.Observe(d)
		d += 991 * time.Nanosecond // walk the buckets and shards
	})
}

func TestFlightRecordAllocFree(t *testing.T) {
	f := NewFlightRecorder(64)
	allocGuard(t, "FlightRecorder.Record", func() {
		f.Record(EvSteal, 0, 16, 3, "")
	})
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * 7)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := time.Duration(0)
		for pb.Next() {
			h.Observe(d)
			d += 977
		}
	})
}

func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlightRecorder(DefaultFlightRecorderSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Record(EvPark, 0, int64(i), 0, "")
	}
}
