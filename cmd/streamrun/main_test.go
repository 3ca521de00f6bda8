package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamelastic/internal/pe"
)

func TestRunPipelineLive(t *testing.T) {
	err := run("pipeline", 10, 4, 8, 64, 5000, false, 8, 4,
		1500*time.Millisecond, 100*time.Millisecond, true, 1, "", 0, pe.TransportConfig{}, resilienceConfig{}, false,
		true, obsConfig{})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSkewedBushy(t *testing.T) {
	err := run("bushy", 0, 4, 8, 64, 100, true, 1, 2,
		1200*time.Millisecond, 100*time.Millisecond, false, 1, "", 0, pe.TransportConfig{}, resilienceConfig{}, false,
		false, obsConfig{})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunMultiPE(t *testing.T) {
	err := run("pipeline", 8, 4, 8, 64, 5000, false, 4, 4,
		1500*time.Millisecond, 100*time.Millisecond, false, 2, "", 0,
		pe.TransportConfig{},
		resilienceConfig{watchdog: true, panicBudget: 2}, true,
		true, obsConfig{})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunMultiPEShortBlockTimeout runs a multi-PE job whose edges block
// only a millisecond before dropping (-streamblock 1ms): latency over
// completeness, end to end.
func TestRunMultiPEShortBlockTimeout(t *testing.T) {
	err := run("pipeline", 8, 4, 8, 64, 5000, false, 4, 4,
		1500*time.Millisecond, 100*time.Millisecond, false, 2, "", 0,
		pe.TransportConfig{BlockTimeout: time.Millisecond}, resilienceConfig{}, true,
		false, obsConfig{})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunSinglePEResilience runs one PE with the watchdog, fault injection
// and a durable checkpoint log, which a single engine shares with every
// multi-PE run.
func TestRunSinglePEResilience(t *testing.T) {
	dir := t.TempDir()
	err := run("pipeline", 6, 4, 8, 64, 2000, false, 4, 2,
		1200*time.Millisecond, 100*time.Millisecond, true, 1, "", 0, pe.TransportConfig{},
		resilienceConfig{watchdog: true, chaos: true, checkpoint: true, ckptDir: dir}, false,
		false, obsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "pe0.ckpt")); err != nil {
		t.Fatalf("no checkpoint log: %v", err)
	}
}

func TestRunCluster(t *testing.T) {
	err := run("pipeline", 8, 4, 8, 64, 2000, false, 4, 2,
		2500*time.Millisecond, 100*time.Millisecond, false, 1, "2:4", time.Second,
		pe.TransportConfig{}, resilienceConfig{}, false, false, obsConfig{})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunClusterBadSpec(t *testing.T) {
	if err := run("pipeline", 8, 4, 8, 64, 2000, false, 1, 2,
		time.Second, 100*time.Millisecond, false, 1, "4:2", 0,
		pe.TransportConfig{}, resilienceConfig{}, false, false, obsConfig{}); err == nil {
		t.Fatal("inverted width spec accepted")
	}
}

func TestRunUnknownShape(t *testing.T) {
	if err := run("triangle", 10, 4, 8, 64, 100, false, 1, 4,
		time.Second, 100*time.Millisecond, false, 1, "", 0, pe.TransportConfig{}, resilienceConfig{}, false, false, obsConfig{}); err == nil {
		t.Fatal("unknown shape accepted")
	}
}

func TestRunWithObs(t *testing.T) {
	dir := t.TempDir()
	ocfg := obsConfig{
		metricsAddr: "127.0.0.1:0",
		flightPath:  dir + "/flight.txt",
		tracePath:   dir + "/trace.json",
		sample:      8,
	}
	err := run("pipeline", 6, 4, 8, 64, 2000, false, 4, 2,
		1200*time.Millisecond, 100*time.Millisecond, false, 1, "", 0,
		pe.TransportConfig{}, resilienceConfig{}, false, false, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	flight, err := os.ReadFile(ocfg.flightPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(flight), "=== flight-recorder dump (exit) ===") {
		t.Fatalf("flight dump malformed:\n%s", flight)
	}
	trace, err := os.ReadFile(ocfg.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace output carries no events")
	}
}

func TestRunFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/topo.txt"
	src := "source s generator payload=64 cost=100\nop w work flops=5000\nop k sink\nedge s -> w\nedge w -> k\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runFile(path, 4, 1200*time.Millisecond, 100*time.Millisecond, true, true, obsConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := runFile(dir+"/missing.txt", 4, time.Second, 100*time.Millisecond, false, false, obsConfig{}); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := dir + "/bad.txt"
	if err := os.WriteFile(bad, []byte("gibberish"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runFile(bad, 4, time.Second, 100*time.Millisecond, false, false, obsConfig{}); err == nil {
		t.Fatal("bad topology accepted")
	}
}
