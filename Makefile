GO ?= go

# Packages with lock-free / pooled hot-path code that must stay race-clean.
RACE_PKGS := ./internal/exec/... ./internal/queue/... ./internal/spl/... ./internal/pe/... ./internal/obs/... ./internal/metrics/... ./internal/cluster/...

# Benchmark packages; bench output is benchstat-comparable (go test -json).
BENCH_PKGS := ./internal/exec/... ./internal/queue/...
BENCH_OUT  := BENCH_1.json

# Inter-PE transport benchmarks: batched vs per-tuple-flush loopback runs
# plus the zero-alloc encode/decode microbenchmarks.
BENCH_PE_OUT := BENCH_2.json

# Work-stealing scheduler benchmarks: the contended fan-in shape at
# 2/4/8/16 workers, plus the deque microbenchmarks (push/pop and
# steal-half, both 0 allocs/op). BENCH_4's shared-MPMC rows are history:
# that scheduler mode is gone.
BENCH_SCHED_OUT := BENCH_4.json

# Observability benchmarks: registry instrument hot paths (counter inc,
# sharded histogram observe, flight-recorder record — all 0 allocs/op) and
# the end-to-end sampling overhead sweep (off / 1% / every tuple).
BENCH_OBS_OUT := BENCH_5.json

# Hot-path benchmarks for the shared-point-elimination round: the contended
# fan-in worker sweep with the sharded sink, plus the zero-copy decode
# microbenchmarks. Results embed GOMAXPROCS as a reported metric. BENCH_6's
# locked-sink (Fig. 10 baseline) rows are history: that sink is gone.
BENCH_HOTPATH_OUT := BENCH_6.json

# Region-compilation benchmarks: compiled batch execution on deep
# all-manual chains (tuples/s, 0 allocs/op; gomaxprocs reported). BENCH_7's
# interpreted (scalar) rows are history: the switch that selected them is
# gone.
BENCH_FUSED_OUT := BENCH_7.json

# Checkpoint overhead benchmarks: live keyed-pipeline throughput with
# checkpointing off vs 1s vs 100ms intervals against a file-backed log.
# The acceptance bar: <= 10% tuples/s loss at the 1s interval vs off.
BENCH_CKPT_OUT := BENCH_8.json

# Wire-format benchmarks: v2 batch frames end to end over loopback
# (BenchmarkExportImportWire), plus the batch encode/decode steady-state
# microbenchmarks (0 allocs/op). Every row reports gomaxprocs. BENCH_9's
# v1 frame-per-tuple rows are history: that wire format is gone.
BENCH_WIRE_OUT := BENCH_9.json

# Cluster elasticity benchmarks: time-to-settle and delivery-rate dip for
# live grow 2->4 / shrink 4->2 of a running stateful pipeline (per-cycle
# settle_grow_ms / settle_shrink_ms, deepest 50ms throughput window during
# each transition as a fraction of steady state, gomaxprocs provenance).
BENCH_CLUSTER_OUT := BENCH_10.json

# Repeat count for benchstat-bound runs: benchstat needs several samples
# per key to average and mark significance, one run proves nothing.
BENCH_COUNT ?= 5

.PHONY: build test race vet bench bench-pe bench-sched bench-sched-smoke bench-hotpath bench-hotpath-smoke bench-obs bench-fused bench-fused-smoke bench-ckpt bench-ckpt-smoke bench-wire bench-wire-smoke bench-cluster bench-cluster-smoke bench-e2e-smoke benchstat fuzz fuzz-pe fuzz-wire fuzz-deque fuzz-obs fuzz-batch fuzz-ckpt chaos chaos-state chaos-cluster

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

vet:
	$(GO) vet ./...

# bench writes machine-readable benchmark results to $(BENCH_OUT); feed the
# file to `benchstat` (or compare two runs' files) to track hot-path
# regressions across commits.
bench:
	$(GO) test -json -run '^$$' -bench . -benchmem $(BENCH_PKGS) > $(BENCH_OUT)

# bench-pe writes the transport benchmark results (tuples/s and allocs/op
# for export->import at 64B/1KiB/16KiB payloads, batched vs per-tuple
# flush) to $(BENCH_PE_OUT) in the same benchstat-comparable format.
bench-pe:
	$(GO) test -json -run '^$$' -bench 'ExportImport|SteadyState' -benchmem ./internal/pe/ > $(BENCH_PE_OUT)

# bench-sched writes the scheduler results (tuples/s on the contended
# fan-in per worker count, deque allocs/op) to $(BENCH_SCHED_OUT); compare
# steal/workers=N across commits with benchstat.
bench-sched:
	$(GO) test -json -run '^$$' -bench 'ContendedFanIn' -benchmem ./internal/exec/ > $(BENCH_SCHED_OUT)
	$(GO) test -json -run '^$$' -bench 'WSDeque' -benchmem ./internal/queue/ >> $(BENCH_SCHED_OUT)

# One-iteration smoke of the same benchmarks for CI: proves they run, makes
# no timing claims.
bench-sched-smoke:
	$(GO) test -run '^$$' -bench 'ContendedFanIn' -benchtime 1x -benchmem ./internal/exec/
	$(GO) test -run '^$$' -bench 'WSDeque' -benchtime 1x -benchmem ./internal/queue/

# bench-hotpath writes the raw-speed round 2 results to
# $(BENCH_HOTPATH_OUT): the contended fan-in at 2/4/8/16 workers (every run
# reports a gomaxprocs metric), plus the decode benchmarks showing zero
# payload-copy allocs. The sweep is benchstat-ready: per-worker
# sub-benchmark keys plus $(BENCH_COUNT) repeats per key, so the multi-core
# rerun is this one command followed by
# `make benchstat OLD=BENCH_6.json NEW=<new file>`.
bench-hotpath:
	$(GO) test -json -run '^$$' -bench 'ContendedFanIn' -benchmem -count=$(BENCH_COUNT) ./internal/exec/ > $(BENCH_HOTPATH_OUT)
	$(GO) test -json -run '^$$' -bench 'Decode|ExportImport' -benchmem -count=$(BENCH_COUNT) ./internal/pe/ >> $(BENCH_HOTPATH_OUT)

# One-hundred-iteration smoke of the fan-in benches for CI, plus the tuple
# free-list bench at 1000 batches: proves they build and run without
# panicking, makes no timing claims.
bench-hotpath-smoke:
	$(GO) test -run '^$$' -bench 'ContendedFanIn' -benchtime 100x -benchmem ./internal/exec/
	$(GO) test -run '^$$' -bench 'TupleAcquireRelease' -benchtime 1000x -benchmem ./internal/spl/

# bench-obs writes the observability overhead results (instrument
# microbenchmarks plus the queue-crossing sampling sweep) to
# $(BENCH_OBS_OUT); compare sampling=off against sampling=every with
# benchstat to bound the instrumentation tax.
bench-obs:
	$(GO) test -json -run '^$$' -bench 'CounterInc|HistogramObserve|FlightRecord' -benchmem ./internal/obs/ > $(BENCH_OBS_OUT)
	$(GO) test -json -run '^$$' -bench 'QueueCrossingSampling' -benchmem ./internal/exec/ >> $(BENCH_OBS_OUT)

# bench-ckpt writes the checkpoint overhead sweep to $(BENCH_CKPT_OUT):
# BenchmarkCheckpoint/off vs /1s vs /100ms on the live keyed pipeline,
# five runs each (the off-vs-1s gap is single-digit percent, so the claim
# needs averages, not one sample). Compare off against 1s with benchstat
# to verify the <= 10% overhead bar.
bench-ckpt:
	$(GO) test -json -run '^$$' -bench 'BenchmarkCheckpoint' -benchmem -count=5 ./internal/exec/ > $(BENCH_CKPT_OUT)

# One-iteration smoke of the checkpoint benches for CI, plus the keyed
# state update benches (the counter in its keyed_ckpt and resize_bulk
# shapes, and the tracked Map.Ref) at a fixed 100000 iterations: proves
# they run, makes no timing claims.
bench-ckpt-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkCheckpoint' -benchtime 1x -benchmem ./internal/exec/
	$(GO) test -run '^$$' -bench '^BenchmarkKeyedCounter$$' -benchtime 100000x -benchmem ./internal/spl/
	$(GO) test -run '^$$' -bench '^BenchmarkMapRef$$' -benchtime 100000x -benchmem ./internal/state/

# bench-fused writes the region-compilation results to
# $(BENCH_FUSED_OUT): BenchmarkManualChain fused/depth=4 and 16, 0 allocs/op;
# compare against BENCH_7.json's fused rows with `make benchstat`.
bench-fused:
	$(GO) test -json -run '^$$' -bench 'ManualChain' -benchmem ./internal/exec/ > $(BENCH_FUSED_OUT)

# One-hundred-iteration smoke of the fused benches for CI: proves the
# compiled path builds and runs, makes no timing claims.
bench-fused-smoke:
	$(GO) test -run '^$$' -bench 'ManualChain' -benchtime 100x -benchmem ./internal/exec/

# bench-wire writes the wire results to $(BENCH_WIRE_OUT):
# BenchmarkExportImportWire wire=batch at 16B/64B/1KiB/16KiB payloads
# ($(BENCH_COUNT) repeats per key at 2s each — the end-to-end loopback needs
# a couple of seconds of steady state before connection setup, pool warmup,
# and window fill stop skewing the sample), plus the batch encode/decode
# steady-state microbenchmarks. The last line reruns the legacy-keyed
# transport benches so `make benchstat OLD=BENCH_2.json NEW=BENCH_9.json`
# pairs them against their v1-era numbers.
bench-wire:
	$(GO) test -json -run '^$$' -bench 'ExportImportWire' -benchtime 2s -benchmem -count=$(BENCH_COUNT) ./internal/pe/ > $(BENCH_WIRE_OUT)
	$(GO) test -json -run '^$$' -bench 'BatchEncodeSteadyState|BatchDecodeSteadyState' -benchmem ./internal/pe/ >> $(BENCH_WIRE_OUT)
	$(GO) test -json -run '^$$' -bench 'ExportImport$$|ExportImportPerTupleFlush$$|BenchmarkEncodeSteadyState$$|BenchmarkDecodeSteadyState$$' -benchmem ./internal/pe/ >> $(BENCH_WIRE_OUT)

# One-hundred-iteration smoke of the wire benches for CI: proves they build
# and run, makes no timing claims. The small-payload wire rows and the 1 KiB
# bulk row then run at 5000x, past the 4096-tuple volume where
# BenchmarkExportImportWire checks that per-tuple Process calls share frames
# (WireFrames < Sent) — the check a one-frame-per-tuple regression fails —
# and, on the bulk row, across many block-room frame cuts and receive-chunk
# edges (5000 1 KiB tuples are about twenty 256 KiB chunks).
bench-wire-smoke:
	$(GO) test -run '^$$' -bench 'ExportImportWire|BatchEncodeSteadyState|BatchDecodeSteadyState' -benchtime 100x -benchmem ./internal/pe/
	$(GO) test -run '^$$' -bench 'ExportImportWire/wire=batch/payload=(16|64|1024)$$' -benchtime 5000x ./internal/pe/

# benchstat diffs two committed BENCH_*.json artifacts with the stdlib-only
# in-repo tool (averages repeated runs, marks better/worse per unit):
#   make benchstat OLD=BENCH_4.json NEW=BENCH_6.json
OLD ?= BENCH_4.json
NEW ?= BENCH_6.json
benchstat:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

# Short deterministic pass over the MPMC batch-operation fuzz corpus.
fuzz:
	$(GO) test ./internal/queue/ -run '^$$' -fuzz FuzzMPMCBatchOps -fuzztime 20s

# Short fuzz pass over the transport's coalesced multi-frame streams.
fuzz-pe:
	$(GO) test ./internal/pe/ -run '^$$' -fuzz FuzzBatchedFrames -fuzztime 20s

# Short fuzz pass over the v2 batch frame decoder (hostile headers, seq
# deltas, record lengths; committed seed corpus in testdata/fuzz).
fuzz-wire:
	$(GO) test ./internal/pe/ -run '^$$' -fuzz FuzzBatchFrameDecode -fuzztime 20s

# Short fuzz pass over the work-stealing deque against a reference model.
fuzz-deque:
	$(GO) test ./internal/queue/ -run '^$$' -fuzz FuzzDeque -fuzztime 20s

# Short fuzz pass over the Prometheus label-escaping round trip.
fuzz-obs:
	$(GO) test ./internal/obs/ -run '^$$' -fuzz FuzzPromEscape -fuzztime 20s

# Short fuzz pass over batch-compiled vs interpreted execution equivalence:
# random operator chains, inputs and fault plans; byte-identical sink output
# and fault logs, equal panic and supervision counts required in both
# region shapes.
fuzz-batch:
	$(GO) test ./internal/exec/ -run '^$$' -fuzz FuzzBatchEquivalence -fuzztime 20s

# Short fuzz pass over the checkpoint decode surfaces: snapshot codec,
# Map/Cell restore, and the CRC-framed file log's torn/corrupt scan.
fuzz-ckpt:
	$(GO) test ./internal/state/ -run '^$$' -fuzz FuzzCheckpointCodec -fuzztime 20s

# Seeded fault-injection suite under the race detector: connection kills,
# frame corruption, operator panics with quarantine (fired inside compiled
# regions), watchdog freeze — all with exactly-once delivery and full tuple
# accounting asserted.
chaos:
	$(GO) test -race -count=1 -run 'Chaos' -v ./internal/pe/

# Stateful-recovery chaos suite under the race detector: operator panics,
# connection kills, and checkpoint crash/corrupt/torn faults on the keyed
# join pipeline, with byte-identical output asserted against a fault-free
# run on the exactly-once path.
chaos-state:
	$(GO) test -race -count=1 -run 'ChaosState' -v ./internal/pe/

# Cluster-migration chaos suite under the race detector: a stateful region
# is moved between PEs mid-stream with connections killed mid-migration and
# operator panics dropping tuples, and the sink output must be
# byte-identical to a same-seed run that never migrates.
chaos-cluster:
	$(GO) test -race -count=1 -run 'ChaosCluster' -v ./internal/cluster/

# bench-cluster writes the elasticity settling results to
# $(BENCH_CLUSTER_OUT): BenchmarkClusterGrowShrink cycles a live stateful
# pipeline 2 -> 4 -> 2 per iteration and reports time-to-settle and the
# deepest 50ms delivery-rate window for each transition (1.0 = no dip),
# with gomaxprocs on every row for provenance.
bench-cluster:
	$(GO) test -json -run '^$$' -bench 'ClusterGrowShrink' -benchtime 5x -count=$(BENCH_COUNT) ./internal/cluster/ > $(BENCH_CLUSTER_OUT)

# One-cycle smoke of the elasticity bench for CI: proves the grow/shrink
# cycle completes without aborts or duplicates, makes no timing claims.
bench-cluster-smoke:
	$(GO) test -run '^$$' -bench 'ClusterGrowShrink' -benchtime 1x ./internal/cluster/

# The end-to-end benchmark under benchmark/ is a module of its own that
# compiles against internal/... but that `go build ./...` and `go test ./...`
# do not descend into: build it and run its short tests, so a rename here
# that breaks the harness fails CI instead of the next benchmark run.
bench-e2e-smoke:
	cd benchmark && $(GO) test -short ./...
