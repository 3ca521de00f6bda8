package monitor

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"streamelastic/internal/obs"
)

// registryForStatus builds a registry shaped like a PE's: engine gauges,
// sched counters, transport series with (stream, dir, peer) labels.
func registryForStatus() *obs.Registry {
	r := obs.NewRegistry(obs.Label{Key: "pe", Value: "0"})
	r.GaugeFunc(obs.MetricOperators, "operators", func() float64 { return 10 })
	r.GaugeFunc(obs.MetricThreads, "threads", func() float64 { return 4 })
	r.GaugeFunc(obs.MetricQueues, "queues", func() float64 { return 3 })
	r.GaugeFunc(obs.MetricUptime, "uptime", func() float64 { return 9.5 })
	obs.RegisterSettled(r, func() bool { return true })
	r.CounterFunc(obs.MetricSinkTuples, "sink tuples", func() uint64 { return 12345 })
	r.CounterFunc(obs.MetricPanics, "panics", func() uint64 { return 2 })
	r.GaugeFunc(obs.MetricSupActive, "quarantined", func() float64 { return 1 })
	r.CounterFunc(obs.MetricSchedSteals, "steals", func() uint64 { return 77 })
	r.CounterFunc(obs.MetricSchedParks, "parks", func() uint64 { return 5 })
	lat := r.Histogram(obs.MetricLatency, "latency")
	for i := 0; i < 100; i++ {
		lat.Observe(time.Millisecond)
	}
	exp := []obs.Label{
		{Key: "stream", Value: "0"}, {Key: "dir", Value: "export"}, {Key: "peer", Value: "1"},
	}
	r.CounterFunc(obs.MetricTransportTuples, "tuples", func() uint64 { return 777 }, exp...)
	r.CounterFunc(obs.MetricTransportBytes, "bytes", func() uint64 { return 43210 }, exp...)
	r.CounterFunc(obs.MetricTransportDropped, "dropped", func() uint64 { return 2 }, exp...)
	r.CounterFunc(obs.MetricTransportFlushes, "flushes", func() uint64 { return 9 }, exp...)
	r.CounterFunc(obs.MetricTransportRetransmits, "retrans", func() uint64 { return 3 }, exp...)
	r.GaugeFunc(obs.MetricTransportUnacked, "unacked", func() float64 { return 4 }, exp...)
	r.SetHistogramFunc(obs.MetricTransportDrainSize, "drains", func() obs.HistSnapshot {
		return obs.HistSnapshot{Buckets: []uint64{1, 0, 4, 0, 0}, Count: 5, Sum: 13, Scale: 1}
	}, exp...)
	imp := []obs.Label{
		{Key: "stream", Value: "0"}, {Key: "dir", Value: "import"}, {Key: "peer", Value: "0"},
	}
	r.CounterFunc(obs.MetricTransportTuples, "tuples", func() uint64 { return 775 }, imp...)
	r.CounterFunc(obs.MetricTransportBytes, "bytes", func() uint64 { return 43100 }, imp...)
	r.CounterFunc(obs.MetricTransportDups, "dups", func() uint64 { return 6 }, imp...)
	return r
}

func TestBuildStatusFromRegistry(t *testing.T) {
	h := &WatchdogStatus{Name: "pe0", Healthy: true}
	st := BuildStatus("pe0", registryForStatus(), h)
	if st.Name != "pe0" || st.Operators != 10 || st.Threads != 4 || st.Queues != 3 {
		t.Fatalf("config fields: %+v", st)
	}
	if !st.Settled || st.SinkTuples != 12345 || st.UptimeSecs != 9.5 {
		t.Fatalf("counters: %+v", st)
	}
	if st.OperatorPanics != 2 || st.Quarantined != 1 {
		t.Fatalf("supervision: %+v", st)
	}
	if st.Health == nil || !st.Health.Healthy {
		t.Fatalf("health: %+v", st.Health)
	}
	if st.Sched == nil || st.Sched.Steals != 77 || st.Sched.Parks != 5 {
		t.Fatalf("sched: %+v", st.Sched)
	}
	if st.Latency.Count != 100 || st.Latency.P99 <= 0 {
		t.Fatalf("latency: %+v", st.Latency)
	}
	if st.Latency.Mean < 0.9 || st.Latency.Mean > 1.1 {
		t.Fatalf("latency mean = %v ms, want ~1", st.Latency.Mean)
	}
	if len(st.Streams) != 2 {
		t.Fatalf("streams: %+v", st.Streams)
	}
	exp := st.Streams[0]
	if exp.Dir != "export" || exp.Peer != 1 || exp.Tuples != 777 || exp.Bytes != 43210 ||
		exp.Dropped != 2 || exp.Flushes != 9 || exp.Retransmits != 3 || exp.Unacked != 4 {
		t.Fatalf("export stream: %+v", exp)
	}
	if len(exp.DrainSizes) != 3 || exp.DrainSizes[2] != 4 {
		t.Fatalf("drain sizes trimmed wrong: %v", exp.DrainSizes)
	}
	imp := st.Streams[1]
	if imp.Dir != "import" || imp.Peer != 0 || imp.Tuples != 775 || imp.DupsDropped != 6 {
		t.Fatalf("import stream: %+v", imp)
	}
}

func TestBuildStatusNilRegistry(t *testing.T) {
	st := BuildStatus("x", nil, nil)
	if st.Name != "x" || st.Sched != nil || st.Streams != nil || st.Health != nil {
		t.Fatalf("nil registry status: %+v", st)
	}
}

func TestObservabilityHandler(t *testing.T) {
	reg := registryForStatus()
	fr := obs.NewFlightRecorder(64)
	fr.Record(obs.EvAdapt, 0, 4, 3, "threading-model: queue placed")
	p := fakeProvider{
		statuses: []Status{BuildStatus("pe0", reg, nil)},
	}
	srv := httptest.NewServer(ObservabilityHandler(p, []*obs.Registry{reg}, fr))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE engine_sink_tuples_total counter",
		`engine_sink_tuples_total{pe="0"} 12345`,
		`transport_tuples_total{dir="export",pe="0",peer="1",stream="0"} 777`,
		"sched_steals_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}

	resp, err = srv.Client().Get(srv.URL + "/flightz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "queue placed") {
		t.Fatalf("/flightz = %q", body)
	}

	resp, err = srv.Client().Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var sts []Status
	if err := json.NewDecoder(resp.Body).Decode(&sts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sts) != 1 || sts[0].SinkTuples != 12345 {
		t.Fatalf("/statusz = %+v", sts)
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}
}

func TestObservabilityHandlerNoRecorder(t *testing.T) {
	srv := httptest.NewServer(ObservabilityHandler(fakeProvider{}, nil, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/flightz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("/flightz without recorder: status %d, want 404", resp.StatusCode)
	}
}

// TestWatchdogTripHook checks OnTrip fires once per trip with the cause and
// OnRecover fires once health returns — the flight-recorder dump trigger.
func TestWatchdogTripHook(t *testing.T) {
	healthy := true
	probe := Probe{Name: "engine", Check: func(time.Time) (bool, string) {
		if healthy {
			return true, ""
		}
		return false, "stalled"
	}}
	var trips []string
	recovers := 0
	w := NewWatchdog("pe0", []Probe{probe}, nil, WatchdogConfig{
		UnhealthyAfter: 2, HealthyAfter: 2,
		OnTrip:    func(cause string) { trips = append(trips, cause) },
		OnRecover: func() { recovers++ },
	})
	now := time.Now()
	healthy = false
	for i := 0; i < 4; i++ {
		w.CheckNow(now)
	}
	if len(trips) != 1 || trips[0] != "engine: stalled" {
		t.Fatalf("trips = %v, want one [engine: stalled]", trips)
	}
	healthy = true
	for i := 0; i < 4; i++ {
		w.CheckNow(now)
	}
	if recovers != 1 {
		t.Fatalf("recovers = %d, want 1", recovers)
	}
}
