package obs

import (
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter value = %d, want 5", got)
	}
	g := r.Gauge("g", "help")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge value = %v, want 2.5", got)
	}
	g.SetInt(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge value = %v, want -3", got)
	}
}

func TestDuplicateRegistrationReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "help", Label{Key: "x", Value: "1"})
	b := r.Counter("dup_total", "help", Label{Key: "x", Value: "1"})
	if a != b {
		t.Fatal("duplicate Counter registration returned a different instrument")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("duplicate counter does not share state")
	}
	h1 := r.Histogram("h_seconds", "help")
	h2 := r.Histogram("h_seconds", "help")
	if h1 != h2 {
		t.Fatal("duplicate Histogram registration returned a different instrument")
	}
	g1 := r.Gauge("g", "help")
	g2 := r.Gauge("g", "help")
	if g1 != g2 {
		t.Fatal("duplicate Gauge registration returned a different instrument")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering the same name as a different kind did not panic")
		}
	}()
	r.Gauge("m", "help")
}

func TestDuplicateCollectorPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("fn_total", "help", func() uint64 { return 1 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate CounterFunc registration did not panic")
		}
	}()
	r.CounterFunc("fn_total", "help", func() uint64 { return 2 })
}

func TestConstLabelsMergedAndSorted(t *testing.T) {
	r := NewRegistry(Label{Key: "pe", Value: "3"})
	r.Counter("c_total", "help", Label{Key: "a", Value: "x"})
	samples := r.Gather()
	if len(samples) != 1 {
		t.Fatalf("Gather returned %d samples, want 1", len(samples))
	}
	labels := samples[0].Labels
	if len(labels) != 2 || labels[0].Key != "a" || labels[1].Key != "pe" || labels[1].Value != "3" {
		t.Fatalf("labels = %v, want sorted [a=x pe=3]", labels)
	}
}

func TestGatherDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "help")
	r.Counter("aa_total", "help", Label{Key: "k", Value: "2"})
	r.Counter("aa_total", "help", Label{Key: "k", Value: "1"})
	r.GaugeFunc("mm", "help", func() float64 { return 7 })
	want := []struct {
		name string
		val  string
	}{
		{"aa_total", "1"}, {"aa_total", "2"}, {"mm", ""}, {"zz_total", ""},
	}
	for i := 0; i < 3; i++ {
		samples := r.Gather()
		if len(samples) != len(want) {
			t.Fatalf("Gather returned %d samples, want %d", len(samples), len(want))
		}
		for j, w := range want {
			if samples[j].Name != w.name {
				t.Fatalf("sample %d name = %q, want %q", j, samples[j].Name, w.name)
			}
			if w.val != "" && samples[j].Labels[0].Value != w.val {
				t.Fatalf("sample %d label value = %q, want %q", j, samples[j].Labels[0].Value, w.val)
			}
		}
	}
}

func TestCollectorValuesFlow(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("c_total", "help", func() uint64 { return 42 })
	r.GaugeFunc("g", "help", func() float64 { return 1.5 })
	r.SetHistogramFunc("h_seconds", "help", func() HistSnapshot {
		return HistSnapshot{Buckets: []uint64{0, 2}, Count: 2, Sum: 6, Scale: 1e-9}
	})
	for _, s := range r.Gather() {
		switch s.Name {
		case "c_total":
			if s.U != 42 {
				t.Fatalf("counter fn U = %d, want 42", s.U)
			}
		case "g":
			if s.Value != 1.5 {
				t.Fatalf("gauge fn value = %v, want 1.5", s.Value)
			}
		case "h_seconds":
			if s.Hist == nil || s.Hist.Count != 2 {
				t.Fatalf("histogram fn snapshot = %+v, want count 2", s.Hist)
			}
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Nanosecond) // bucket 6: [64,128)
	h.Observe(100 * time.Nanosecond)
	h.Observe(time.Microsecond) // bucket 9: [512,1024) — 1000ns
	h.Observe(-time.Second)     // clamps to 0, bucket 0
	snap := h.Snapshot()
	if snap.Count != 4 {
		t.Fatalf("count = %d, want 4", snap.Count)
	}
	if snap.Buckets[6] != 2 || snap.Buckets[9] != 1 || snap.Buckets[0] != 1 {
		t.Fatalf("buckets = %v, want 2 in [6], 1 in [9], 1 in [0]", snap.Buckets)
	}
	wantSum := (100 + 100 + 1000 + 0) * 1e-9
	if diff := snap.Sum - wantSum; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("sum = %v, want %v", snap.Sum, wantSum)
	}
	if m := snap.Mean(); m <= 0 {
		t.Fatalf("mean = %v, want > 0", m)
	}
}

func TestHistSnapshotQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Nanosecond) // bucket 6, upper bound 128ns
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Microsecond) // bucket 13, upper bound 16384ns
	}
	snap := h.Snapshot()
	if q := snap.Quantile(0.5); q != 128e-9 {
		t.Fatalf("p50 = %v, want 128ns in seconds", q)
	}
	if q := snap.Quantile(0.99); q != 16384e-9 {
		t.Fatalf("p99 = %v, want 16384ns in seconds", q)
	}
	var empty HistSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestRegisterSettled(t *testing.T) {
	r := NewRegistry()
	settled := false
	RegisterSettled(r, func() bool { return settled })
	read := func() float64 {
		for _, s := range r.Gather() {
			if s.Name == MetricSettled {
				return s.Value
			}
		}
		t.Fatal("settled gauge not found")
		return -1
	}
	if v := read(); v != 0 {
		t.Fatalf("settled = %v, want 0", v)
	}
	settled = true
	if v := read(); v != 1 {
		t.Fatalf("settled = %v, want 1", v)
	}
}
