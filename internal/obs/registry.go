// Package obs is the runtime's unified observability subsystem: a per-PE
// telemetry registry of atomic counters, gauges, and sharded log2-bucketed
// histograms registered by name+labels; a bounded flight recorder of
// structured runtime events; and Prometheus text exposition over the
// registries. It replaces the ad-hoc reporting surfaces that grew with the
// engine (StreamStats, SchedCounters, /statusz formatting, trace CSV) with
// one read path: producers register instruments or collector callbacks
// once, and every consumer — /metrics, /statusz, dashboards — reads the
// same series.
//
// Instruments are built for the engine's hot path: counter increments and
// histogram observations are single atomic operations with no allocation,
// and collector callbacks are only invoked at scrape time.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one name=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// Kind discriminates registered series types.
type Kind uint8

// Series kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing series. Inc and Add are single
// atomic adds; the trailing pad keeps adjacent counters off one cache line
// so independent hot-path writers do not false-share.
type Counter struct {
	v atomic.Uint64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a point-in-time value series.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// series is one registered (label set -> collector) binding. Exactly one
// collector field is non-nil, matching the family's kind.
type series struct {
	labels []Label // const labels merged in, sorted by key
	sig    string  // canonical label signature: identity within the family

	counter   *Counter
	gauge     *Gauge
	counterFn func() uint64
	gaugeFn   func() float64
	hist      *Histogram
	histFn    func() HistSnapshot
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	series []*series
	bySig  map[string]*series
}

// Registry holds one processing element's metric families. All methods are
// safe for concurrent use; instrument operations (Counter.Inc, Gauge.Set,
// Histogram.Observe) never touch the registry lock.
type Registry struct {
	constLabels []Label

	mu       sync.Mutex
	families map[string]*family
	names    []string // family names, sorted
}

// NewRegistry returns an empty registry. constLabels are attached to every
// series it registers — a job gives each PE's registry a pe="N" label so
// the merged /metrics exposition keeps the PEs' series distinct.
func NewRegistry(constLabels ...Label) *Registry {
	cl := append([]Label(nil), constLabels...)
	sort.Slice(cl, func(i, j int) bool { return cl[i].Key < cl[j].Key })
	return &Registry{constLabels: cl, families: make(map[string]*family)}
}

// ConstLabels returns the labels attached to every series in the registry.
func (r *Registry) ConstLabels() []Label { return append([]Label(nil), r.constLabels...) }

// mergeLabels combines the registry's const labels with per-series labels
// into one sorted set.
func (r *Registry) mergeLabels(labels []Label) []Label {
	out := make([]Label, 0, len(r.constLabels)+len(labels))
	out = append(out, r.constLabels...)
	out = append(out, labels...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// labelSig renders a canonical signature for a sorted label set.
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sig := ""
	for _, l := range labels {
		sig += fmt.Sprintf("%q=%q,", l.Key, l.Value)
	}
	return sig
}

// getFamily returns the family for name, creating it on first registration;
// it panics on a kind conflict, which is always a programming error.
// The caller holds r.mu.
func (r *Registry) getFamily(name, help string, kind Kind) *family {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bySig: make(map[string]*series)}
		r.families[name] = f
		i := sort.SearchStrings(r.names, name)
		r.names = append(r.names, "")
		copy(r.names[i+1:], r.names[i:])
		r.names[i] = name
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// add installs s in f, or returns the already-registered series with the
// same label signature (nil when there is none). The caller holds r.mu.
func (f *family) add(s *series) *series {
	if prev := f.bySig[s.sig]; prev != nil {
		return prev
	}
	f.bySig[s.sig] = s
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].sig < f.series[j].sig })
	return nil
}

// set installs s in f, replacing any series already registered under the
// same label signature. Replacement swaps the series pointer, never mutates
// the old series: a Gather that copied the slice before the swap still reads
// the old (immutable) binding safely. The caller holds r.mu.
func (f *family) set(s *series) {
	if prev := f.bySig[s.sig]; prev != nil {
		f.bySig[s.sig] = s
		for i, old := range f.series {
			if old == prev {
				f.series[i] = s
				break
			}
		}
		return
	}
	f.bySig[s.sig] = s
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].sig < f.series[j].sig })
}

// Counter registers (or returns the existing) counter for name+labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindCounter)
	s := &series{labels: r.mergeLabels(labels), counter: &Counter{}}
	s.sig = labelSig(s.labels)
	if prev := f.add(s); prev != nil {
		if prev.counter == nil {
			panic(fmt.Sprintf("obs: metric %q%s already registered as a callback", name, s.sig))
		}
		return prev.counter
	}
	return s.counter
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. fn must be safe for concurrent use. Registering a second collector
// for the same name+labels panics.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindCounter)
	s := &series{labels: r.mergeLabels(labels), counterFn: fn}
	s.sig = labelSig(s.labels)
	if f.add(s) != nil {
		panic(fmt.Sprintf("obs: duplicate registration of %q%s", name, s.sig))
	}
}

// Gauge registers (or returns the existing) gauge for name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindGauge)
	s := &series{labels: r.mergeLabels(labels), gauge: &Gauge{}}
	s.sig = labelSig(s.labels)
	if prev := f.add(s); prev != nil {
		if prev.gauge == nil {
			panic(fmt.Sprintf("obs: metric %q%s already registered as a callback", name, s.sig))
		}
		return prev.gauge
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindGauge)
	s := &series{labels: r.mergeLabels(labels), gaugeFn: fn}
	s.sig = labelSig(s.labels)
	if f.add(s) != nil {
		panic(fmt.Sprintf("obs: duplicate registration of %q%s", name, s.sig))
	}
}

// SetCounterFunc registers a counter collector for name+labels, replacing
// any previous binding for the same series. The rebind registrar for
// endpoints that churn at runtime (a re-dialed stream after a region
// migration re-registers under the same labels without panicking).
func (r *Registry) SetCounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindCounter)
	s := &series{labels: r.mergeLabels(labels), counterFn: fn}
	s.sig = labelSig(s.labels)
	f.set(s)
}

// SetGaugeFunc registers a gauge collector for name+labels, replacing any
// previous binding for the same series.
func (r *Registry) SetGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindGauge)
	s := &series{labels: r.mergeLabels(labels), gaugeFn: fn}
	s.sig = labelSig(s.labels)
	f.set(s)
}

// Histogram registers (or returns the existing) histogram for name+labels.
// Observations are durations; buckets are log2 in nanoseconds and exported
// in seconds.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindHistogram)
	s := &series{labels: r.mergeLabels(labels), hist: &Histogram{}}
	s.sig = labelSig(s.labels)
	if prev := f.add(s); prev != nil {
		if prev.hist == nil {
			panic(fmt.Sprintf("obs: metric %q%s already registered as a callback", name, s.sig))
		}
		return prev.hist
	}
	return s.hist
}

// SetHistogramFunc registers a histogram whose snapshot is read from fn at
// scrape time — the bridge for histograms that live outside the registry
// (the transport's batch-size buckets) — replacing any previous binding for
// the same series.
func (r *Registry) SetHistogramFunc(name, help string, fn func() HistSnapshot, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindHistogram)
	s := &series{labels: r.mergeLabels(labels), histFn: fn}
	s.sig = labelSig(s.labels)
	f.set(s)
}

// Sample is one series' current value as returned by Gather.
type Sample struct {
	Name   string
	Labels []Label
	Kind   Kind
	// Value carries gauges (and a float rendering of counters); U carries
	// counters at full precision. Hist is set for histogram series.
	Value float64
	U     uint64
	Hist  *HistSnapshot
}

// collect evaluates one series. Called outside the registry lock so
// collector callbacks may take their own locks freely.
func (s *series) collect(name string, kind Kind) Sample {
	out := Sample{Name: name, Labels: s.labels, Kind: kind}
	switch {
	case s.counter != nil:
		out.U = s.counter.Value()
		out.Value = float64(out.U)
	case s.counterFn != nil:
		out.U = s.counterFn()
		out.Value = float64(out.U)
	case s.gauge != nil:
		out.Value = s.gauge.Value()
	case s.gaugeFn != nil:
		out.Value = s.gaugeFn()
	case s.hist != nil:
		h := s.hist.Snapshot()
		out.Hist = &h
	case s.histFn != nil:
		h := s.histFn()
		out.Hist = &h
	}
	return out
}

// snapshotFamilies copies the family list (series slices included) so
// collection can run without the registry lock.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.names))
	for _, name := range r.names {
		f := r.families[name]
		cp := &family{name: f.name, help: f.help, kind: f.kind}
		cp.series = append(cp.series, f.series...)
		out = append(out, cp)
	}
	return out
}

// Gather evaluates every registered series, sorted by name then label
// signature — a deterministic scrape for renderers like the /statusz
// builder.
func (r *Registry) Gather() []Sample {
	var out []Sample
	for _, f := range r.snapshotFamilies() {
		for _, s := range f.series {
			out = append(out, s.collect(f.name, f.kind))
		}
	}
	return out
}
