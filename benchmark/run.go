package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"streamelastic/internal/cluster"
	"streamelastic/internal/core"
	"streamelastic/internal/graph"
	"streamelastic/internal/obs"
)

const (
	satSlices    = 3
	drainTimeout = 10 * time.Second
	tick         = 10 * time.Millisecond
	dipTicks     = 5 // 50 ms windows for cluster.dip_ratio
	resizeCycle  = 4 * time.Second
)

// stallLimit is how long the sink may make no progress, outside a
// migration, while tuples are in flight. A variable so the watchdog test
// does not have to wait five seconds.
var stallLimit = 5 * time.Second

// counters is one reading of every public counter and gauge of the job,
// summed over its registries (all PEs, including retired cluster members),
// keyed by series name -- transport series by name and direction.
type counters struct {
	v      map[string]float64
	qwait  obs.HistSnapshot // op_queue_wait_seconds, merged
	opExec obs.HistSnapshot // op_exec_seconds, merged over operators
}

func mergeHist(dst *obs.HistSnapshot, src *obs.HistSnapshot) {
	if dst.Buckets == nil {
		dst.Buckets = make([]uint64, len(src.Buckets))
		dst.Scale = src.Scale
	}
	for i, b := range src.Buckets {
		if i < len(dst.Buckets) {
			dst.Buckets[i] += b
		}
	}
	dst.Count += src.Count
	dst.Sum += src.Sum
}

func gather(regs []*obs.Registry) counters {
	c := counters{v: make(map[string]float64)}
	for _, r := range regs {
		for _, s := range r.Gather() {
			if s.Hist != nil {
				switch s.Name {
				case obs.MetricOpQueueWait:
					mergeHist(&c.qwait, s.Hist)
				case obs.MetricOpExec:
					mergeHist(&c.opExec, s.Hist)
				}
				continue
			}
			key := s.Name
			for _, l := range s.Labels {
				if l.Key == "dir" {
					key += "|" + l.Value
				}
			}
			c.v[key] += s.Value
		}
	}
	return c
}

// delta returns after[key] - before[key].
func delta(before, after counters, key string) float64 { return after.v[key] - before.v[key] }

// window is everything read at the two ends of the saturation phase.
type window struct {
	seconds      float64
	delivered    uint64
	cpuNS        float64
	slices       []float64 // tuples/s per slice
	before       counters
	after        counters
	mallocs      uint64
	gcPauseNS    uint64
	depthMean    float64
	unackedMean  float64
	dipRatio     float64
	stageSelfNS  float64 // traced: self time of the operator stages
	genSelfNS    float64
	sinkSelfNS   float64
	engineUptime time.Duration // elastic_skew: engine clock at phase start
}

// result is one job run from set-up to verdict.
type result struct {
	w        *workload
	setups   []float64
	sat      window
	lat      []int64 // sorted source-due-time to sink-arrival samples, ns
	late     []int64 // sorted generator lateness samples, ns
	gapMS    float64
	scrapeMS float64
	final    counters

	attempted uint64
	failed    uint64
	problems  []string

	// elastic_skew
	settleS      float64
	steps        int
	tmRuns       int
	tmSkipped    int
	threadsFinal int
	queuesFinal  int
	placement    []bool

	// resize_bulk
	grow, shrink []float64 // ms per transition
	cluster      cluster.Status

	keysLive int64
	tr       *tracer
	g        *graph.Graph
}

func cpuNS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// monitor is the run's 10 ms heartbeat: it keeps the set of registries ever
// seen (cluster members come and go), samples queue depth and unacked
// tuples, tracks the deepest 50 ms delivery window, drives the resize
// schedule and times each transition, and is the watchdog.
type monitor struct {
	j        *job
	cleanup  func()
	deadline time.Time

	mu       sync.Mutex
	regs     []*obs.Registry
	seen     map[*obs.Registry]bool
	sampling bool
	samples  int
	depth    float64
	unacked  float64
	hist     [dipTicks + 1]struct {
		t int64
		n uint64
	}
	histN  int
	minWin float64

	plan    []resizeStep
	flight  *resizeStep
	width   int
	grow    []float64
	shrink  []float64
	stopCh  chan struct{}
	doneCh  chan struct{}
	lastCnt uint64
	lastMov time.Time
}

type resizeStep struct {
	at     int64
	target int
	start  int64
	quiet  bool // between phases, with the source idle: not a measurement
}

func startMonitor(j *job, deadline time.Time, cleanup func()) *monitor {
	m := &monitor{
		j: j, cleanup: cleanup, deadline: deadline, seen: make(map[*obs.Registry]bool),
		width: 2, stopCh: make(chan struct{}), doneCh: make(chan struct{}), lastMov: time.Now(),
	}
	m.tick()
	go func() {
		defer close(m.doneCh)
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-m.stopCh:
				return
			case <-t.C:
				m.tick()
			}
		}
	}()
	return m
}

func (m *monitor) stop() {
	close(m.stopCh)
	<-m.doneCh
}

func (m *monitor) tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.j.registries() {
		if !m.seen[r] {
			m.seen[r] = true
			m.regs = append(m.regs, r)
		}
	}
	now, cnt := nowNS(), m.j.snk.count()
	migrating := false
	if m.j.mgr != nil {
		st := m.j.mgr.Status()
		migrating = st.Pending != ""
		if st.MigrationsAborted > 0 {
			m.die(fmt.Sprintf("cluster: %d migrations aborted (%s)", st.MigrationsAborted, st.Pending))
		}
		m.resize(now, st)
	}
	if m.sampling {
		m.samples++
		if m.j.depth != nil {
			m.depth += float64(m.j.depth())
		}
		if m.j.unacked != nil {
			m.unacked += m.j.unacked()
		}
		h := &m.hist[m.histN%len(m.hist)]
		if m.histN >= len(m.hist) {
			if dt := float64(now-h.t) / 1e9; dt > 0 {
				if r := float64(cnt-h.n) / dt; r < m.minWin || m.minWin < 0 {
					m.minWin = r
				}
			}
		}
		h.t, h.n = now, cnt
		m.histN++
	}
	// Watchdog.
	if cnt != m.lastCnt {
		m.lastCnt, m.lastMov = cnt, time.Now()
	}
	mode := m.j.src.mode.Load()
	inFlight := cnt < m.j.src.emitted.Load() || mode == modeSat || mode == modePaced
	if inFlight && !migrating && time.Since(m.lastMov) > stallLimit {
		m.die(fmt.Sprintf("no tuple reached the sink for %v (delivered %d of %d emitted)", stallLimit, cnt, m.j.src.emitted.Load()))
	}
	if time.Now().After(m.deadline) {
		m.die("run exceeded three times its planned length")
	}
}

// die is the watchdog's exit: a wedged run must fail, never hang.
func (m *monitor) die(why string) {
	fmt.Fprintf(os.Stderr, "watchdog: %s\n\n", why)
	_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
	m.cleanup()
	os.Exit(2)
}

// resize issues the next due width change once the previous one has
// settled, and times each from SetDesired to allocated == target with
// nothing pending.
func (m *monitor) resize(now int64, st cluster.Status) {
	if f := m.flight; f != nil {
		if st.Allocated != f.target || st.Pending != "" {
			return
		}
		ms := float64(now-f.start) / 1e6
		switch {
		case f.quiet:
		case f.target > m.width:
			m.grow = append(m.grow, ms)
		default:
			m.shrink = append(m.shrink, ms)
		}
		m.width, m.flight = f.target, nil
	}
	if len(m.plan) > 0 && now >= m.plan[0].at {
		step := m.plan[0]
		m.plan = m.plan[1:]
		if step.target == m.width {
			return
		}
		step.start = now
		m.flight = &step
		m.j.mgr.SetDesired(step.target)
	}
}

// beginPhase starts sampling and, on the cluster workload, schedules the
// width changes of a phase of length d: up to the maximum, down to the
// minimum, alternating on a fixed cycle.
func (m *monitor) beginPhase(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sampling, m.samples, m.depth, m.unacked, m.histN, m.minWin = true, 0, 0, 0, 0, -1
	if m.j.mgr == nil {
		return
	}
	// One cycle spends 1.5 s growing to and running at the maximum width and
	// 2.5 s shrinking to and running at the minimum. Unequal on purpose: the
	// two widths have different latencies, and with equal shares the median
	// latency would sit on the boundary between the two modes.
	cycle := resizeCycle
	if d < 2*cycle {
		cycle = d / 3
	}
	now := nowNS()
	for at := time.Duration(0); at < d; at += cycle {
		m.plan = append(m.plan,
			resizeStep{at: now + int64(at+cycle/8), target: 4},
			resizeStep{at: now + int64(at+cycle/2), target: 2})
	}
}

// endPhase stops sampling, drops what is left of the schedule and returns
// the fleet to its minimum width.
func (m *monitor) endPhase() {
	m.mu.Lock()
	m.sampling = false
	m.plan = nil
	if m.j.mgr != nil {
		m.plan = []resizeStep{{at: nowNS(), target: 2, quiet: true}}
	}
	m.mu.Unlock()
	waitUntil(func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return len(m.plan) == 0 && m.flight == nil
	})
}

func (m *monitor) registries() []*obs.Registry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*obs.Registry(nil), m.regs...)
}

func waitUntil(cond func() bool) {
	for !cond() {
		time.Sleep(500 * time.Microsecond)
	}
}

// quiesce idles the source and waits until everything it emitted has
// reached the sink. The watchdog bounds the wait.
func quiesce(j *job) {
	j.src.setMode(modeIdle)
	waitUntil(func() bool { return j.src.idle.Load() && j.snk.count() == j.src.emitted.Load() })
}

type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	setups  int
	outDir  string
	wedge   bool
}

// runJob sets the workload up (opts.setups times, keeping the last), runs
// the saturation and the paced phase, drains, and checks the output.
func runJob(w *workload, o runOpts) (*result, error) {
	res := &result{w: w}
	phase := time.Duration(o.seconds / 2 * float64(time.Second))
	warmup := w.warmup
	if o.seconds < 8 {
		warmup = uint64(float64(warmup) * o.seconds / 8)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	planned := time.Duration(o.setups)*3*time.Second + 2*phase + 2*drainTimeout
	deadline := time.Now().Add(3 * planned)

	var (
		j   *job
		mon *monitor
		tmp string
	)
	cleanup := func() { _ = os.RemoveAll(tmp) }
	defer cleanup()
	for i := 0; i < o.setups; i++ {
		if i > 0 { // tear the previous set-up down; only the last one is measured on
			j.src.setMode(modeStop)
			mon.stop()
			j.abort()
			cleanup()
		}
		t0 := time.Now()
		var err error
		if tmp, err = os.MkdirTemp(o.outDir, "job-"); err != nil {
			return nil, err
		}
		b := &builder{
			in:     genInputs(o.seed, w),
			latCap: int(w.pacedRate*phase.Seconds()/latEvery*1.25) + 1024,
			tmpDir: tmp,
			wedge:  o.wedge,
		}
		if o.traced {
			b.tr = newTracer(w.nested)
		}
		if j, err = w.build(w, b); err != nil {
			return nil, err
		}
		res.tr, res.g = b.tr, j.g
		mon = startMonitor(j, deadline, cleanup)
		if err := j.start(); err != nil {
			mon.stop()
			j.abort()
			return nil, err
		}
		j.src.emitCount(warmup)
		waitUntil(func() bool { return j.snk.count() >= warmup })
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}

	saturate(j, mon, res, phase)
	if j.coord != nil {
		// The paced phase measures latency on the configuration the
		// controllers reached, so adaptation stops here.
		j.coord.SetFrozen(true)
		summarizeAdaptation(j, res, phase)
	}
	mon.endPhase()
	quiesce(j)

	pace(j, mon, res, phase)
	mon.endPhase()
	quiesce(j)
	res.lat = j.snk.latencies()
	res.late = append([]int64(nil), j.src.late...)
	sort.Slice(res.late, func(a, b int) bool { return res.late[a] < res.late[b] })
	res.gapMS = j.snk.medianGap(int(phase.Seconds())) / 1e6

	finish(j, mon, res)
	return res, nil
}

// saturate runs the closed loop: one unthrottled source against blocking
// backpressure, with the elastic controllers (if any) started from minimum
// parallelism as the phase starts.
func saturate(j *job, mon *monitor, res *result, phase time.Duration) {
	if j.control != nil {
		j.control()
	}
	sat := &res.sat
	if j.eng != nil {
		sat.engineUptime = j.eng.Now()
	}
	mon.beginPhase(phase)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	sat.before = gather(mon.registries())
	self0 := stageSelf(res.tr)
	mallocs0, pause0 := mem.Mallocs, mem.PauseTotalNs
	cpu0, n0, t0 := cpuNS(), j.snk.count(), time.Now()
	j.src.setMode(modeSat)
	prevT, prevN := t0, n0
	for k := 1; k <= satSlices; k++ {
		time.Sleep(time.Until(t0.Add(phase * time.Duration(k) / satSlices)))
		now, n := time.Now(), j.snk.count()
		sat.slices = append(sat.slices, float64(n-prevN)/now.Sub(prevT).Seconds())
		prevT, prevN = now, n
	}
	sat.cpuNS, sat.delivered, sat.seconds = cpuNS()-cpu0, prevN-n0, prevT.Sub(t0).Seconds()
	self1 := stageSelf(res.tr)
	j.src.setMode(modeIdle)
	runtime.ReadMemStats(&mem)
	sat.mallocs, sat.gcPauseNS = mem.Mallocs-mallocs0, mem.PauseTotalNs-pause0
	sat.genSelfNS, sat.stageSelfNS, sat.sinkSelfNS = self1[0]-self0[0], self1[1]-self0[1], self1[2]-self0[2]
	sat.after = gather(mon.registries())
	mon.mu.Lock()
	defer mon.mu.Unlock()
	if mon.samples > 0 {
		sat.depthMean, sat.unackedMean = mon.depth/float64(mon.samples), mon.unacked/float64(mon.samples)
	}
	sat.dipRatio = 1
	if rate := median(sat.slices); mon.minWin >= 0 && rate > 0 {
		sat.dipRatio = mon.minWin / rate
	}
}

// summarizeAdaptation records what the elastic controllers did during the
// saturation phase and where they ended up.
func summarizeAdaptation(j *job, res *result, phase time.Duration) {
	res.settleS = phase.Seconds() // never settled: the whole phase
	if j.coord.Settled() {
		res.settleS = (j.coord.SettleTime() - res.sat.engineUptime).Seconds()
	}
	trace := j.coord.Trace()
	res.steps = len(trace)
	for i, ev := range trace {
		if ev.Phase == core.PhaseSettled {
			res.steps = i + 1
			break
		}
	}
	st := j.coord.Stats()
	res.tmRuns, res.tmSkipped = st.TMRuns, st.TMRunsSkipped
	res.threadsFinal, res.queuesFinal, res.placement = j.eng.ThreadCount(), j.eng.Queues(), j.eng.Placement()
}

// pace runs the open loop at the workload's fixed rate, every tuple stamped
// with the instant it was due. A traced job also times one metrics scrape
// half-way through.
func pace(j *job, mon *monitor, res *result, phase time.Duration) {
	j.snk.latIdx.Store(0)
	j.snk.beginGaps()
	if res.tr != nil {
		res.tr.resetHops() // hops under saturation are ring-full queueing, not transit
	}
	mon.beginPhase(phase)
	p0 := time.Now()
	j.src.startPaced(res.w.pacedRate)
	if res.tr != nil {
		time.Sleep(phase / 2)
		s0 := time.Now()
		_ = obs.WritePrometheusAll(io.Discard, mon.registries()...) // io.Discard cannot fail
		res.scrapeMS = float64(time.Since(s0)) / 1e6
	}
	time.Sleep(time.Until(p0.Add(phase)))
}

// finish stops the source, drains the job and closes the output check.
func finish(j *job, mon *monitor, res *result) {
	j.src.setMode(modeStop)
	if j.mgr != nil {
		res.cluster = j.mgr.Status()
		mon.mu.Lock()
		res.grow, res.shrink = mon.grow, mon.shrink
		mon.mu.Unlock()
	}
	drained := j.drain(drainTimeout)
	mon.stop()
	res.final = gather(mon.registries())
	res.keysLive = j.snk.live.Load()
	res.attempted = j.src.emitted.Load()
	res.failed = j.snk.failures(res.attempted)
	if j.snk.firstBad != "" {
		res.problems = append(res.problems, "output check: "+j.snk.firstBad)
	}
	if !drained {
		res.problems = append(res.problems, fmt.Sprintf("job did not drain within %v", drainTimeout))
	}
	for _, c := range []struct{ key, what string }{
		{obs.MetricTransportDropped + "|export", "tuples dropped by the transport"},
		{obs.MetricPanics, "operator panics"},
		{obs.MetricCkptErrors, "checkpoint errors"},
		{obs.MetricClusterMigAborted, "migrations aborted"},
	} {
		if n := res.final.v[c.key]; n > 0 {
			res.failed += uint64(n)
			res.problems = append(res.problems, fmt.Sprintf("%v %s", n, c.what))
		}
	}
}

// stageSelf returns the traced self time so far of the generator, the
// operator stages and the sink; zeros in untraced runs.
func stageSelf(tr *tracer) [3]float64 {
	if tr == nil {
		return [3]float64{}
	}
	last := len(tr.stages) - 1
	return [3]float64{float64(tr.selfNS(0, 1)), float64(tr.selfNS(1, last)), float64(tr.selfNS(last, last+1))}
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quantileNS is quantile over sorted nanosecond samples.
func quantileNS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))])
}
