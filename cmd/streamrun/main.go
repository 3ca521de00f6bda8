// Command streamrun executes a benchmark topology live on goroutines with
// multi-level elasticity and reports the adaptation as it happens.
//
// Usage:
//
//	streamrun -shape pipeline -ops 50 -flops 20000 -duration 5s
//	streamrun -shape mixed -width 4 -depth 8 -skewed -trace
//	streamrun -shape pipeline -ops 12 -cluster 2:4 -clustercycle 3s -duration 12s
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"streamelastic"

	"streamelastic/internal/cluster"
	"streamelastic/internal/core"
	"streamelastic/internal/exec"
	"streamelastic/internal/fault"
	"streamelastic/internal/metrics"
	"streamelastic/internal/monitor"
	"streamelastic/internal/obs"
	"streamelastic/internal/pe"
	"streamelastic/internal/state"
	"streamelastic/internal/workload"
)

func main() {
	var (
		shape    = flag.String("shape", "pipeline", "graph shape: pipeline, dataparallel, mixed, bushy")
		ops      = flag.Int("ops", 50, "operator count (pipeline)")
		width    = flag.Int("width", 4, "parallel width (dataparallel, mixed)")
		depth    = flag.Int("depth", 8, "chain depth (mixed)")
		payload  = flag.Int("payload", 1024, "tuple payload bytes")
		flops    = flag.Float64("flops", 10000, "per-operator FLOPs (balanced distribution)")
		skewed   = flag.Bool("skewed", false, "use the skewed 10/30/60 cost distribution")
		threads  = flag.Int("maxthreads", 16, "scheduler-thread cap")
		duration = flag.Duration("duration", 5*time.Second, "run time")
		period   = flag.Duration("period", 200*time.Millisecond, "adaptation period")
		trace    = flag.Bool("trace", false, "print the full adaptation trace at exit")
		pes      = flag.Int("pes", 1, "split the graph across N processing elements connected by TCP")
		clusterW = flag.String("cluster", "", "run under the cluster job manager with this malleable width spec min:max[:step[:desired]]; the PE fleet grows and shrinks live by region migration")
		clusterC = flag.Duration("clustercycle", 0, "with -cluster, alternate the desired width between the spec maximum and minimum at this interval (0 = hold the spec's desired width)")
		file     = flag.String("file", "", "run a topology description file instead of a generated shape")

		streamBlock = flag.Duration("streamblock", 0, "transport: how long a backed-up stream blocks the PE before dropping a tuple; a tiny value trades completeness for latency (0 = 1s default)")
		streamStats = flag.Bool("streamstats", false, "print per-stream transport counters at exit (multi-PE runs)")

		schedStats = flag.Bool("schedstats", false, "print work-stealing scheduler counters (affinity pushes, steals, overflows, parks) at exit")
		batch      = flag.Int("batch", 1, "source: tuples emitted per generator turn (larger batches feed the compiled-region path whole batches)")

		watchdog    = flag.Bool("watchdog", false, "run a health watchdog per PE that freezes adaptation while the PE is unhealthy (multi-PE runs)")
		panicBudget = flag.Int("panicbudget", 0, "quarantine an operator after this many recovered panics (0 = supervision off)")
		chaos       = flag.Bool("chaos", false, "inject deterministic faults (operator panics, connection kills) into multi-PE runs")
		chaosSeed   = flag.Int64("chaosseed", 1, "seed for -chaos fault injection")
		checkpoint  = flag.Bool("checkpoint", false, "periodically snapshot keyed operator state (incremental, per PE) and recover quarantined stateful operators exactly-once")
		ckptDir     = flag.String("ckptdir", "", "directory for checkpoint logs (pe<N>.ckpt); empty keeps checkpoints in memory")
		ckptEvery   = flag.Duration("ckptinterval", 0, "checkpoint interval (0 = 1s default)")

		metricsAddr = flag.String("metrics", "", "serve /metrics (Prometheus), /statusz, /flightz, /tracez.json and /debug/pprof on this address (e.g. 127.0.0.1:8080)")
		flightPath  = flag.String("flightrec", "", "write a flight-recorder dump to this file at exit")
		tracePath   = flag.String("traceout", "", "write the adaptation trace as Chrome trace_event JSON to this file at exit")
		sample      = flag.Int("sample", 0, "latency-sample every Nth queued delivery per emitting loop into per-operator histograms (0 = off)")
	)
	flag.Parse()

	tcfg := pe.TransportConfig{
		BlockTimeout: *streamBlock,
	}
	rcfg := resilienceConfig{
		watchdog:     *watchdog,
		panicBudget:  *panicBudget,
		chaos:        *chaos,
		chaosSeed:    *chaosSeed,
		checkpoint:   *checkpoint,
		ckptDir:      *ckptDir,
		ckptInterval: *ckptEvery,
	}
	ocfg := obsConfig{
		metricsAddr: *metricsAddr,
		flightPath:  *flightPath,
		tracePath:   *tracePath,
		sample:      *sample,
	}
	var err error
	if *file != "" {
		err = runFile(*file, *threads, *duration, *period, *trace, *schedStats, ocfg)
	} else {
		err = run(*shape, *ops, *width, *depth, *payload, *flops, *skewed, *batch, *threads, *duration, *period, *trace, *pes, *clusterW, *clusterC, tcfg, rcfg, *streamStats, *schedStats, ocfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamrun:", err)
		os.Exit(1)
	}
}

// runFile parses a topology description (see streamelastic.ParseTopology)
// and runs it live with multi-level elasticity.
func runFile(path string, maxThreads int, duration, period time.Duration, dumpTrace, schedStats bool, ocfg obsConfig) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	top, nodes, err := streamelastic.ParseTopology(f)
	if err != nil {
		return err
	}
	ecfg := streamelastic.DefaultElasticConfig()
	ecfg.MaxThreads = maxThreads
	rt, err := streamelastic.NewRuntime(top, streamelastic.RuntimeOptions{
		MaxThreads:  maxThreads,
		AdaptPeriod: period,
		Elastic:     ecfg,
		SampleEvery: ocfg.sample,
	})
	if err != nil {
		return err
	}
	stopObs, err := ocfg.serve(rt.MetricsHandler())
	if err != nil {
		return err
	}
	defer stopObs()
	if err := rt.Start(context.Background()); err != nil {
		return err
	}
	defer rt.Stop()
	fmt.Printf("running %s (%d operators) live for %s\n", path, len(nodes), duration)
	start := time.Now()
	var last uint64
	for time.Since(start) < duration {
		time.Sleep(time.Second)
		cur := rt.SinkCount()
		fmt.Printf("t=%4.0fs  sink=%8.0f tuples/s  threads=%2d  queues=%3d  settled=%v\n",
			time.Since(start).Seconds(), float64(cur-last), rt.Threads(), rt.Queues(), rt.Settled())
		last = cur
	}
	if dumpTrace {
		fmt.Println("\nadaptation trace:")
		for _, e := range rt.Trace() {
			fmt.Printf("  %6.1fs thr=%9.0f threads=%2d queues=%3d  [%s] %s\n",
				e.Time.Seconds(), e.Throughput, e.Threads, e.Queues, e.Phase, e.Note)
		}
	}
	if schedStats {
		printSched("runtime", rt.SchedStats())
	}
	return ocfg.writeArtifacts(rt.FlightRecorder(), rt.Trace())
}

// resilienceConfig bundles the self-healing flags.
type resilienceConfig struct {
	watchdog     bool
	panicBudget  int
	chaos        bool
	chaosSeed    int64
	checkpoint   bool
	ckptDir      string
	ckptInterval time.Duration
}

// newStore opens the checkpoint store for one engine: a durable file log
// under -ckptdir, or an in-memory store when the flag is empty.
func (c resilienceConfig) newStore(name string) (state.Store, error) {
	if c.ckptDir == "" {
		return state.NewMemStore(), nil
	}
	return state.OpenFileLog(filepath.Join(c.ckptDir, name+".ckpt"))
}

// obsConfig bundles the observability flags.
type obsConfig struct {
	metricsAddr string // address for the HTTP observability surface; "" = off
	flightPath  string // flight-recorder dump file at exit; "" = off
	tracePath   string // Chrome trace_event JSON file at exit; "" = off
	sample      int    // latency sampling gate (every Nth delivery; 0 = off)
}

// serve starts the observability HTTP server when -metrics is set,
// returning a stop function (a no-op when off).
func (c obsConfig) serve(h http.Handler) (func(), error) {
	if c.metricsAddr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", c.metricsAddr)
	if err != nil {
		return nil, fmt.Errorf("-metrics %s: %w", c.metricsAddr, err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("observability: http://%s (/metrics /statusz /flightz /tracez.json /debug/pprof)\n", ln.Addr())
	return func() { _ = srv.Close() }, nil
}

// writeArtifacts writes the exit artifacts: a flight-recorder dump and a
// Chrome trace_event JSON of the adaptation timeline.
func (c obsConfig) writeArtifacts(rec *obs.FlightRecorder, trace []core.TraceEvent) error {
	if c.flightPath != "" && rec != nil {
		f, err := os.Create(c.flightPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(f, "=== flight-recorder dump (exit) ===\n")
		err = rec.DumpTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if c.tracePath != "" {
		f, err := os.Create(c.tracePath)
		if err != nil {
			return err
		}
		err = core.WriteChromeTrace(f, trace)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// printSched renders one engine's scheduler counters.
func printSched(name string, s metrics.SchedSnapshot) {
	fmt.Printf("%s sched: local=%d pops=%d steals=%d stolen=%d overflow=%d injected=%d parks=%d wakes=%d fusedBatches=%d fusedTuples=%d\n",
		name, s.LocalPushes, s.LocalPops, s.Steals, s.StolenTuples,
		s.Overflows, s.Injected, s.Parks, s.Wakes, s.FusedBatches, s.FusedTuples)
}

func run(shape string, ops, width, depth, payload int, flops float64, skewed bool, srcBatch int,
	maxThreads int, duration, period time.Duration, dumpTrace bool, pes int, clusterSpec string, clusterCycle time.Duration,
	tcfg pe.TransportConfig, rcfg resilienceConfig, streamStats, schedStats bool, ocfg obsConfig) error {
	cfg := workload.DefaultConfig()
	cfg.PayloadBytes = payload
	cfg.BalancedFLOPs = flops
	cfg.Skewed = skewed
	cfg.SourceBatch = srcBatch

	var (
		b   *workload.Build
		err error
	)
	switch shape {
	case "pipeline":
		b, err = workload.Pipeline(ops, cfg)
	case "dataparallel":
		b, err = workload.DataParallel(width, cfg)
	case "mixed":
		b, err = workload.Mixed(width, depth, cfg)
	case "bushy":
		b, err = workload.Bushy(cfg)
	default:
		return fmt.Errorf("unknown shape %q", shape)
	}
	if err != nil {
		return err
	}

	if clusterSpec != "" {
		return runCluster(b, clusterSpec, clusterCycle, maxThreads, duration, period, tcfg, rcfg, ocfg)
	}
	if pes > 1 {
		return runJob(b, maxThreads, duration, period, pes, tcfg, rcfg, streamStats, schedStats, ocfg)
	}

	rec := obs.NewFlightRecorder(obs.DefaultFlightRecorderSize)
	eng, err := exec.New(b.Graph, exec.Options{
		MaxThreads:  maxThreads,
		AdaptPeriod: period,
		SampleEvery: ocfg.sample,
		Recorder:    rec,
		PanicBudget: rcfg.panicBudget,
	})
	if err != nil {
		return err
	}
	var ckpt *exec.Checkpointer
	if rcfg.checkpoint {
		store, err := rcfg.newStore("engine")
		if err != nil {
			return err
		}
		ckpt = exec.NewCheckpointer(eng, exec.CheckpointConfig{
			Store:    store,
			Interval: rcfg.ckptInterval,
		})
		if err := ckpt.Restore(); err != nil {
			return err
		}
	}
	ecfg := core.DefaultConfig()
	ecfg.MaxThreads = maxThreads
	coord, err := core.NewCoordinator(eng, ecfg)
	if err != nil {
		return err
	}
	coord.SetObserver(func(ev core.TraceEvent) {
		detail := string(ev.Phase)
		if ev.Note != "" {
			detail += ": " + ev.Note
		}
		rec.Record(obs.EvAdapt, 0, int64(ev.Threads), int64(ev.Queues), detail)
	})
	obs.RegisterSettled(eng.Registry(), coord.Settled)
	stopObs, err := ocfg.serve(monitor.ObservabilityHandler(
		engineProvider{reg: eng.Registry(), coord: coord},
		[]*obs.Registry{eng.Registry()}, rec))
	if err != nil {
		return err
	}
	defer stopObs()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := eng.Start(ctx); err != nil {
		return err
	}
	defer eng.Stop()
	if ckpt != nil {
		ckpt.Start()
		defer ckpt.Stop()
	}

	adaptDone := make(chan struct{})
	go func() {
		defer close(adaptDone)
		_ = coord.Run(ctx)
	}()

	fmt.Printf("running %s (%d operators, payload %dB) live for %s\n",
		b.Name, b.Graph.NumNodes(), payload, duration)
	start := time.Now()
	var last uint64
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	deadline := time.After(duration)
loop:
	for {
		select {
		case <-tick.C:
			cur := b.Sink.Count()
			fmt.Printf("t=%4.0fs  throughput=%8.0f tuples/s  threads=%2d  queues=%3d  settled=%v\n",
				time.Since(start).Seconds(), float64(cur-last), eng.ThreadCount(), eng.Queues(), coord.Settled())
			last = cur
		case <-deadline:
			break loop
		}
	}
	cancel()
	<-adaptDone

	fmt.Printf("\nfinal: %d tuples, %d threads, %d queues, settled=%v\n",
		b.Sink.Count(), eng.ThreadCount(), eng.Queues(), coord.Settled())
	if schedStats {
		printSched("engine", eng.SchedStats())
	}
	if dumpTrace {
		fmt.Println("\nadaptation trace:")
		for _, e := range coord.Trace() {
			fmt.Printf("  %6.1fs thr=%9.0f threads=%2d queues=%3d  [%s] %s\n",
				e.Time.Seconds(), e.Throughput, e.Threads, e.Queues, e.Phase, e.Note)
		}
	}
	return ocfg.writeArtifacts(rec, coord.Trace())
}

// engineProvider adapts the single-PE engine+coordinator pair to the
// monitoring API.
type engineProvider struct {
	reg   *obs.Registry
	coord *core.Coordinator
}

func (p engineProvider) Statuses() []monitor.Status {
	return []monitor.Status{monitor.BuildStatus("engine", p.reg, nil)}
}

func (p engineProvider) AdaptationTrace(i int) []core.TraceEvent {
	if i != 0 || p.coord == nil {
		return nil
	}
	return p.coord.Trace()
}

// runCluster executes the workload under the cluster job manager: the PE
// fleet starts at the spec's desired width and, when -clustercycle is set,
// is resized live between the spec's maximum and minimum by region
// migration while the job streams.
func runCluster(b *workload.Build, specStr string, cycle time.Duration, maxThreads int,
	duration, period time.Duration, tcfg pe.TransportConfig, rcfg resilienceConfig, ocfg obsConfig) error {
	spec, err := cluster.ParseWidthSpec(specStr)
	if err != nil {
		return fmt.Errorf("-cluster: %w", err)
	}
	ecfg := core.DefaultConfig()
	ecfg.MaxThreads = maxThreads
	var inj *fault.Injector
	if rcfg.chaos {
		// Kill stream connections periodically — including streams that only
		// come to exist through migrations (fresh stable ids). Kills are
		// output-transparent: the importer resumes at its delivered watermark
		// and the exporter replays from the block log.
		inj = fault.New(rcfg.chaosSeed)
		for sid := 0; sid < 16; sid++ {
			inj.Arm(fault.ConnKill, sid, fault.Plan{EveryN: 5000, MaxFires: 3})
		}
	}
	mgr, err := cluster.New(b.Graph, cluster.Options{
		Spec: spec,
		PE: pe.Options{
			Exec: exec.Options{
				MaxThreads:  maxThreads,
				AdaptPeriod: period,
				PanicBudget: rcfg.panicBudget,
			},
			Elastic:        ecfg,
			Transport:      tcfg,
			Fault:          inj,
			EnableWatchdog: rcfg.watchdog,
			SampleEvery:    ocfg.sample,
			Checkpoint: pe.CheckpointOptions{
				Enabled:  rcfg.checkpoint,
				Dir:      rcfg.ckptDir,
				Interval: rcfg.ckptInterval,
			},
		},
	})
	if err != nil {
		return err
	}
	stopObs, err := ocfg.serve(monitor.ObservabilityHandlerDynamic(mgr, mgr.Registries, mgr.FlightRecorder()))
	if err != nil {
		return err
	}
	defer stopObs()
	if err := mgr.Start(context.Background()); err != nil {
		mgr.Stop()
		return err
	}
	defer mgr.Stop()

	fmt.Printf("running %s under the cluster manager (width %d:%d:%d, desired %d) for %s\n",
		b.Name, spec.Min, spec.Max, spec.Step, spec.Desired, duration)
	start := time.Now()
	var last uint64
	atMax := false
	nextFlip := time.Now().Add(cycle)
	for time.Since(start) < duration {
		time.Sleep(time.Second)
		if cycle > 0 && time.Now().After(nextFlip) {
			atMax = !atMax
			want := spec.Min
			if atMax {
				want = spec.Max
			}
			mgr.SetDesired(want)
			nextFlip = time.Now().Add(cycle)
		}
		cur := b.Sink.Count()
		st := mgr.Status()
		fmt.Printf("t=%4.0fs  end-to-end=%8.0f tuples/s  pes=%d desired=%d migrations=%d",
			time.Since(start).Seconds(), float64(cur-last), st.Allocated, st.Desired, st.MigrationsCompleted)
		last = cur
		if st.Pending != "" {
			fmt.Printf("  [%s]", st.Pending)
		}
		fmt.Println()
	}
	st := mgr.Status()
	fmt.Printf("final: %d tuples end to end; width=%d migrations=%d aborted=%d replayed=%d\n",
		b.Sink.Count(), st.Allocated, st.MigrationsCompleted, st.MigrationsAborted, st.ReplayedTuples)
	if inj != nil {
		fmt.Printf("chaos: %d faults fired (seed %d)\n", len(inj.Events()), rcfg.chaosSeed)
		os.Stdout.Write(inj.LogBytes())
	}
	return ocfg.writeArtifacts(mgr.FlightRecorder(), nil)
}

// runJob executes the workload as a multi-PE job, every PE adapting
// independently.
func runJob(b *workload.Build, maxThreads int, duration, period time.Duration, pes int,
	tcfg pe.TransportConfig, rcfg resilienceConfig, streamStats, schedStats bool, ocfg obsConfig) error {
	assign, err := pe.AssignContiguous(b.Graph, pes)
	if err != nil {
		return err
	}
	ecfg := core.DefaultConfig()
	ecfg.MaxThreads = maxThreads
	var inj *fault.Injector
	if rcfg.chaos {
		inj = fault.New(rcfg.chaosSeed)
		// A canned chaos plan: kill the first stream's connection a few
		// times during the run and panic an operator on the last PE until
		// its budget trips. Everything downstream of the kill resumes from
		// the block log; the panics exercise quarantine.
		inj.Arm(fault.ConnKill, 0, fault.Plan{EveryN: 5000, MaxFires: 3})
		inj.Arm(fault.OpPanic, fault.OpSite(pes-1, 1), fault.Plan{EveryN: 500, MaxFires: 8})
	}
	jobOpts := pe.Options{
		Exec: exec.Options{
			MaxThreads:  maxThreads,
			AdaptPeriod: period,
			PanicBudget: rcfg.panicBudget,
		},
		Elastic:        ecfg,
		Transport:      tcfg,
		Fault:          inj,
		EnableWatchdog: rcfg.watchdog,
		SampleEvery:    ocfg.sample,
		Checkpoint: pe.CheckpointOptions{
			Enabled:  rcfg.checkpoint,
			Dir:      rcfg.ckptDir,
			Interval: rcfg.ckptInterval,
		},
	}
	if rcfg.watchdog {
		// A watchdog trip dumps the flight recorder to stderr as it happens.
		jobOpts.FlightDump = os.Stderr
	}
	job, err := pe.Launch(b.Graph, assign, jobOpts)
	if err != nil {
		return err
	}
	stopObs, err := ocfg.serve(monitor.ObservabilityHandler(job, job.Registries(), job.FlightRecorder()))
	if err != nil {
		return err
	}
	defer stopObs()
	if err := job.Start(context.Background()); err != nil {
		return err
	}
	defer job.Stop()
	fmt.Printf("running %s as %d PEs (%d TCP streams) for %s\n",
		b.Name, pes, len(job.Streams()), duration)
	start := time.Now()
	var last uint64
	for time.Since(start) < duration {
		time.Sleep(time.Second)
		cur := b.Sink.Count()
		fmt.Printf("t=%4.0fs  end-to-end=%8.0f tuples/s", time.Since(start).Seconds(), float64(cur-last))
		last = cur
		for _, rt := range job.PEs {
			fmt.Printf("  PE%d[T=%d Q=%d]", rt.Plan.PE, rt.Eng.ThreadCount(), rt.Eng.Queues())
		}
		fmt.Println()
	}
	fmt.Printf("final: %d tuples end to end\n", b.Sink.Count())
	if rcfg.checkpoint {
		for i, cs := range job.CheckpointStats() {
			fmt.Printf("PE%d checkpoints: committed=%d errors=%d skipped=%d restores=%d lastBytes=%d watermark=%d epoch=%d\n",
				i, cs.Checkpoints, cs.Errors, cs.Skipped, cs.Restores, cs.LastBytes, cs.Watermark, cs.Epoch)
		}
	}
	if schedStats {
		for i, s := range job.SchedStats() {
			printSched(fmt.Sprintf("PE%d", i), s)
		}
	}
	if streamStats {
		for _, st := range job.StreamStats() {
			framesPerFlush := 0.0
			if st.Flushes > 0 {
				framesPerFlush = float64(st.WireFrames) / float64(st.Flushes)
			}
			fmt.Printf("stream %d PE%d->PE%d: sent=%d recv=%d dropped=%d bytesSent=%d bytesRecv=%d frames=%d framesRecv=%d flushes=%d framesPerFlush=%.1f drains=%v retrans=%d reconnects=%d dups=%d resumes=%d\n",
				st.Stream, st.FromPE, st.ToPE, st.Sent, st.Received, st.Dropped,
				st.BytesSent, st.BytesReceived, st.WireFrames, st.FramesReceived,
				st.Flushes, framesPerFlush, st.DrainSizes,
				st.Retransmits, st.Reconnects, st.DupsDropped, st.Resumes)
		}
	}
	if rcfg.watchdog {
		for _, h := range job.Health() {
			fmt.Printf("watchdog %s: healthy=%v frozen=%v trips=%d recovers=%d lastCause=%q\n",
				h.Name, h.Healthy, h.Frozen, h.Trips, h.Recovers, h.LastCause)
		}
	}
	if rcfg.panicBudget > 0 {
		for _, rt := range job.PEs {
			sup := rt.Eng.Supervision()
			if sup.Quarantines > 0 || sup.Dropped > 0 {
				fmt.Printf("PE%d supervision: quarantines=%d releases=%d dropped=%d active=%d\n",
					rt.Plan.PE, sup.Quarantines, sup.Releases, sup.Dropped, sup.Active)
			}
		}
	}
	if inj != nil {
		fmt.Printf("chaos: %d faults fired (seed %d)\n", len(inj.Events()), rcfg.chaosSeed)
		os.Stdout.Write(inj.LogBytes())
	}
	var trace []core.TraceEvent
	if len(job.PEs) > 0 && job.PEs[0].Coord != nil {
		trace = job.PEs[0].Coord.Trace()
	}
	return ocfg.writeArtifacts(job.FlightRecorder(), trace)
}
