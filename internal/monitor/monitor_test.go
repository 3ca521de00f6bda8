package monitor

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"streamelastic/internal/core"
	"streamelastic/internal/obs"
)

type fakeProvider struct {
	statuses []Status
	traces   map[int][]core.TraceEvent
	regs     []*obs.Registry
	fr       *obs.FlightRecorder
}

func (f fakeProvider) Statuses() []Status { return f.statuses }

func (f fakeProvider) AdaptationTrace(i int) []core.TraceEvent { return f.traces[i] }

func (f fakeProvider) Registries() []*obs.Registry { return f.regs }

func (f fakeProvider) FlightRecorder() *obs.FlightRecorder { return f.fr }

func newServer(t *testing.T) (*httptest.Server, fakeProvider) {
	t.Helper()
	p := fakeProvider{
		statuses: []Status{{
			Name: "pe0", Operators: 10, Threads: 4, Queues: 3,
			Settled: true, SinkTuples: 12345, UptimeSecs: 9.5,
			Latency: LatencyMS{Count: 100, Mean: 1.5, P50: 1, P95: 3, P99: 5},
			Streams: []StreamStatus{
				{Stream: 0, Dir: "export", Peer: 1, Tuples: 777, Bytes: 43210,
					Dropped: 2, Flushes: 9, DrainSizes: []uint64{1, 0, 4}},
				{Stream: 0, Dir: "import", Peer: 0, Tuples: 775, Bytes: 43100},
			},
		}},
		traces: map[int][]core.TraceEvent{
			0: {
				{Time: 5 * time.Second, Throughput: 1000, Threads: 2, Queues: 1, Phase: core.PhaseTC, Note: "x"},
			},
		},
	}
	srv := httptest.NewServer(ObservabilityHandler(p))
	t.Cleanup(srv.Close)
	return srv, p
}

func TestStatusEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := srv.Client().Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var got []Status
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].SinkTuples != 12345 || got[0].Threads != 4 {
		t.Fatalf("decoded %+v", got)
	}
	if got[0].Latency.P99 != 5 {
		t.Fatalf("latency p99 = %v", got[0].Latency.P99)
	}
	if len(got[0].Streams) != 2 {
		t.Fatalf("streams = %+v, want 2 endpoints", got[0].Streams)
	}
	exp := got[0].Streams[0]
	if exp.Dir != "export" || exp.Tuples != 777 || exp.Bytes != 43210 ||
		exp.Dropped != 2 || exp.Flushes != 9 || len(exp.DrainSizes) != 3 {
		t.Fatalf("export stream status %+v", exp)
	}
	imp := got[0].Streams[1]
	if imp.Dir != "import" || imp.Tuples != 775 || imp.Bytes != 43100 {
		t.Fatalf("import stream status %+v", imp)
	}
}

func TestTraceEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := srv.Client().Get(srv.URL + "/tracez?pe=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0]["throughput"].(float64) != 1000 {
		t.Fatalf("decoded %+v", got)
	}
	if got[0]["phase"].(string) != string(core.PhaseTC) {
		t.Fatalf("phase = %v", got[0]["phase"])
	}
}

func TestTraceEndpointErrors(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := srv.Client().Get(srv.URL + "/tracez?pe=9")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("missing trace status %d, want 404", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/tracez?pe=abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad index status %d, want 400", resp.StatusCode)
	}
}

func TestStatusJSONFieldNames(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := srv.Client().Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, field := range []string{
		"sinkTuples", "latencyMs", "uptimeSecs", "settled",
		"streams", "dir", "flushes", "drainSizes", "dropped",
	} {
		if !strings.Contains(body, field) {
			t.Fatalf("JSON missing field %q: %s", field, body)
		}
	}
}

func TestSASOEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := srv.Client().Get(srv.URL + "/sasoz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"observations", "oscillations", "accuracy", "overshootThreads"} {
		if _, ok := got[field]; !ok {
			t.Fatalf("sasoz missing %q: %v", field, got)
		}
	}
	if got["observations"].(float64) != 1 {
		t.Fatalf("observations = %v", got["observations"])
	}
	resp2, err := srv.Client().Get(srv.URL + "/sasoz?pe=7")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Fatalf("missing trace status %d", resp2.StatusCode)
	}
}
