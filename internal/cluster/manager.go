package cluster

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamelastic/internal/core"
	"streamelastic/internal/graph"
	"streamelastic/internal/monitor"
	"streamelastic/internal/obs"
	"streamelastic/internal/pe"
)

// Options configure a cluster job manager.
type Options struct {
	// Spec is the malleable width declaration the reconciler enforces.
	Spec WidthSpec
	// PE configures every member PE (engine, elasticity, transport, fault
	// injection). Checkpointing is rejected: migration's seeded resume
	// handshake needs ungated acks. WarmStart is rejected: a snapshot names
	// one graph, and a member's graph changes with every migration. A
	// frozen edge parks its producers whatever Transport.BlockTimeout is,
	// so a short timeout drops only outside a migration's freeze.
	PE pe.Options
	// ReconcileInterval is the reconcile loop's cadence (default 100ms).
	ReconcileInterval time.Duration
	// DrainTimeout bounds the quiescence wait of one migration (default
	// 30s). A migration that cannot quiesce in time is aborted; because
	// draining a PE's real sources is terminal, an abort wedges the fleet,
	// so size this generously.
	DrainTimeout time.Duration
}

// member is one PE of the fleet. Its id is stable across the fleet's
// lifetime (never reused) and is the PE label on the member's registry, the
// peer label on stream metrics, the tag on its recorder events, and the name
// on /statusz; lo/hi is the member's half-open range of the job graph's
// topological order.
type member struct {
	pe.Peer
	lo, hi int
	plan   *pe.Plan
	rt     *pe.PERuntime
}

// newMember returns a member with a registry labelled pe="<id>".
func newMember(id, lo, hi int, plan *pe.Plan) *member {
	reg := obs.NewRegistry(obs.Label{Key: "pe", Value: strconv.Itoa(id)})
	return &member{Peer: pe.Peer{ID: id, Reg: reg}, lo: lo, hi: hi, plan: plan}
}

// edgeKey names a cross-PE stream by the job-graph edge it carries — the
// identity that survives repartitioning, unlike pe.Partition's stream
// numbering which depends on the assignment.
type edgeKey struct {
	from     graph.NodeID
	fromPort int
	to       graph.NodeID
	toPort   int
}

// edgeKeyOf names a cross edge of a partition by its job-graph edge.
func edgeKeyOf(ce pe.CrossEdge) edgeKey {
	return edgeKey{from: ce.From, fromPort: ce.FromPort, to: ce.To, toPort: ce.ToPort}
}

// streamRT is one live cross-PE stream. id is stable for the edge's
// lifetime (fault site, metrics stream label, recorder tag);
// fromMember/toMember are stable member ids.
type streamRT struct {
	id         int
	key        edgeKey
	exp        *pe.Export
	imp        *pe.Import
	fromMember int
	toMember   int
}

// Status is the cluster's externally visible state.
type Status struct {
	Spec                WidthSpec
	Desired             int
	Allocated           int
	Pending             string
	Generation          uint64
	MigrationsStarted   uint64
	MigrationsCompleted uint64
	MigrationsAborted   uint64
	// ReplayedTuples counts tuples rewritten by resume handshakes across
	// the fleet's lifetime — the replay traffic migrations (and ordinary
	// reconnects) caused.
	ReplayedTuples uint64
}

// Manager is the cluster-level job manager: it runs one dataflow graph
// across a fleet of PEs and grows or shrinks that fleet under its width
// spec, migrating regions between PEs without stopping the job.
type Manager struct {
	g     *graph.Graph
	topo  []graph.NodeID
	spec  WidthSpec
	fleet *pe.Fleet
	creg  *obs.Registry

	reconcileInterval time.Duration
	drainTimeout      time.Duration

	mu           sync.Mutex
	members      []*member
	streams      map[edgeKey]*streamRT
	nextMemberID int
	nextStreamID int
	pending      string
	started      bool
	stopped      bool
	loopRunning  bool

	desired   atomic.Int64
	allocated atomic.Int64
	gen       atomic.Uint64
	wedged    atomic.Bool

	migStarted   atomic.Uint64
	migCompleted atomic.Uint64
	migAborted   atomic.Uint64
	replayedBase atomic.Uint64

	ctx      context.Context
	kick     chan struct{}
	stopCh   chan struct{}
	stopOnce sync.Once
	doneCh   chan struct{}
}

// New plans the initial fleet at the spec's clamped desired width and wires
// it, ready for Start.
func New(g *graph.Graph, opts Options) (*Manager, error) {
	spec := opts.Spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !g.Finalized() {
		return nil, fmt.Errorf("cluster: job graph not finalized")
	}
	if spec.Max > g.NumNodes() {
		return nil, fmt.Errorf("cluster: width max %d exceeds %d graph nodes", spec.Max, g.NumNodes())
	}
	p := opts.PE
	if p.Checkpoint.Enabled {
		return nil, fmt.Errorf("cluster: checkpointing is incompatible with migration (ack gating at the checkpoint floor breaks the seeded resume handshake)")
	}
	if len(p.WarmStart) > 0 {
		return nil, fmt.Errorf("cluster: warm start is incompatible with migration (a member's graph changes with every split and merge)")
	}
	m := &Manager{
		g:                 g,
		topo:              g.Topo(),
		spec:              spec,
		fleet:             pe.NewFleet(p),
		reconcileInterval: opts.ReconcileInterval,
		drainTimeout:      opts.DrainTimeout,
		streams:           make(map[edgeKey]*streamRT),
		kick:              make(chan struct{}, 1),
		stopCh:            make(chan struct{}),
		doneCh:            make(chan struct{}),
	}
	if m.reconcileInterval <= 0 {
		m.reconcileInterval = 100 * time.Millisecond
	}
	if m.drainTimeout <= 0 {
		m.drainTimeout = 30 * time.Second
	}
	m.desired.Store(int64(spec.Desired))
	m.creg = obs.NewRegistry(obs.Label{Key: "pe", Value: "cluster"})
	m.registerClusterMetrics()
	if err := m.buildFleet(evenRanges(len(m.topo), spec.Clamp(spec.Desired))); err != nil {
		return nil, err
	}
	return m, nil
}

// evenRanges splits n topological slots into w contiguous, non-empty,
// near-equal half-open ranges.
func evenRanges(n, w int) [][2]int {
	out := make([][2]int, w)
	for k := 0; k < w; k++ {
		out[k] = [2]int{k * n / w, (k + 1) * n / w}
	}
	return out
}

// assignFor maps the job graph onto PE indices from an ordered range list:
// topological slot i in range k means assignment to PE k.
func (m *Manager) assignFor(ranges [][2]int) pe.Assignment {
	assign := make(pe.Assignment, len(m.topo))
	for k, r := range ranges {
		for i := r[0]; i < r[1]; i++ {
			assign[m.topo[i]] = k
		}
	}
	return assign
}

// buildFleet builds generation zero the way pe.Launch builds a job —
// partition, wire every stream fresh, one runtime per plan — except that
// every member's registry is labelled: member k has id k, and stream ids
// are the partition's.
func (m *Manager) buildFleet(ranges [][2]int) error {
	plans, crosses, err := pe.Partition(m.g, m.assignFor(ranges))
	if err != nil {
		return err
	}
	regs := make([]*obs.Registry, len(ranges))
	for k, r := range ranges {
		m.members = append(m.members, newMember(k, r[0], r[1], plans[k]))
		regs[k] = m.members[k].Reg
	}
	rts, err := m.fleet.Build(plans, crosses, regs)
	if err != nil {
		return err
	}
	for k, mem := range m.members {
		mem.rt = rts[k]
	}
	for _, ce := range crosses {
		key := edgeKeyOf(ce)
		m.streams[key] = &streamRT{
			id:         ce.Stream,
			key:        key,
			exp:        plans[ce.FromPE].ExportEndpoint(ce.Stream),
			imp:        plans[ce.ToPE].ImportEndpoint(ce.Stream),
			fromMember: ce.FromPE,
			toMember:   ce.ToPE,
		}
	}
	m.nextMemberID, m.nextStreamID = len(ranges), len(crosses)
	m.allocated.Store(int64(len(ranges)))
	return nil
}

// Start launches every member and the reconcile loop.
func (m *Manager) Start(ctx context.Context) error {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return fmt.Errorf("cluster: already started")
	}
	m.started = true
	m.loopRunning = true
	m.ctx = ctx
	mems := append([]*member(nil), m.members...)
	m.mu.Unlock()
	for _, mem := range mems {
		if err := mem.rt.Start(ctx); err != nil {
			return err
		}
	}
	go m.loop()
	return nil
}

// SetDesired moves the width target; the reconcile loop grows or shrinks
// the fleet toward the spec-clamped value. Lowering it below the current
// allocation is a voluntary shrink.
func (m *Manager) SetDesired(n int) {
	m.desired.Store(int64(n))
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// loop is the reconcile loop: observe, plan, migrate, repeat.
func (m *Manager) loop() {
	defer close(m.doneCh)
	t := time.NewTicker(m.reconcileInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-m.kick:
		case <-t.C:
		}
		m.reconcileOnce()
	}
}

// reconcileOnce steps the fleet toward the clamped desired width, one
// migration at a time, re-reading the target between steps.
func (m *Manager) reconcileOnce() {
	for !m.wedged.Load() {
		select {
		case <-m.stopCh:
			return
		default:
		}
		target := m.spec.Clamp(int(m.desired.Load()))
		cur := int(m.allocated.Load())
		if cur == target {
			m.setPending("")
			return
		}
		var err error
		if cur < target {
			m.setPending(fmt.Sprintf("growing %d -> %d", cur, target))
			err = m.growOne()
		} else {
			m.setPending(fmt.Sprintf("shrinking %d -> %d", cur, target))
			err = m.shrinkOne()
		}
		if err != nil {
			// Draining a region's real sources is terminal, so a failed
			// migration cannot be rolled back; stop reconciling and
			// surface the wedge on /statusz rather than thrash.
			m.wedged.Store(true)
			m.setPending("aborted: " + err.Error())
			return
		}
	}
}

func (m *Manager) setPending(s string) {
	m.mu.Lock()
	m.pending = s
	m.mu.Unlock()
}

// haltLoop stops the reconcile loop and waits for it to exit, so no
// migration races a drain or shutdown.
func (m *Manager) haltLoop() {
	m.stopOnce.Do(func() { close(m.stopCh) })
	m.mu.Lock()
	running := m.loopRunning
	m.mu.Unlock()
	if running {
		<-m.doneCh
	}
}

// runtimes snapshots the current members' runtimes in fleet order.
func (m *Manager) runtimes() []*pe.PERuntime {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*pe.PERuntime, len(m.members))
	for i, mem := range m.members {
		out[i] = mem.rt
	}
	return out
}

// Stop shuts the fleet down: the reconcile loop, then the members as
// pe.StopAll orders it. Safe to call more than once.
func (m *Manager) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()
	m.haltLoop()
	pe.StopAll(m.runtimes())
}

// DrainAndStop gracefully shuts the fleet down: the reconcile loop halts
// first (no migration races the drain), real sources stop emitting,
// in-flight tuples flow through every member and stream to completion
// (bounded by timeout), then everything stops. It reports whether the
// whole fleet drained.
func (m *Manager) DrainAndStop(timeout time.Duration) bool {
	m.haltLoop()
	drained := pe.DrainAll(m.runtimes(), timeout)
	m.Stop()
	return drained
}

// Status returns the cluster's width and migration state.
func (m *Manager) Status() Status {
	m.mu.Lock()
	pending := m.pending
	m.mu.Unlock()
	return Status{
		Spec:                m.spec,
		Desired:             int(m.desired.Load()),
		Allocated:           int(m.allocated.Load()),
		Pending:             pending,
		Generation:          m.gen.Load(),
		MigrationsStarted:   m.migStarted.Load(),
		MigrationsCompleted: m.migCompleted.Load(),
		MigrationsAborted:   m.migAborted.Load(),
		ReplayedTuples:      m.replayedTuples(),
	}
}

// replayedTuples is the fleet-lifetime replay ledger: retired exports'
// counts (folded into replayedBase at migration commit) plus the live
// exports' counters.
func (m *Manager) replayedTuples() uint64 {
	total := m.replayedBase.Load()
	m.mu.Lock()
	for _, st := range m.streams {
		if st.exp != nil {
			total += st.exp.RetransTuples()
		}
	}
	m.mu.Unlock()
	return total
}

// Members returns the current member ids in fleet order.
func (m *Manager) Members() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, len(m.members))
	for i, mem := range m.members {
		out[i] = mem.ID
	}
	return out
}

// registerClusterMetrics publishes the width spec, allocation, and
// migration ledger on the cluster registry (const label pe="cluster").
func (m *Manager) registerClusterMetrics() {
	r := m.creg
	r.GaugeFunc(obs.MetricClusterWidthMin, "Width spec minimum PEs.",
		func() float64 { return float64(m.spec.Min) })
	r.GaugeFunc(obs.MetricClusterWidthMax, "Width spec maximum PEs.",
		func() float64 { return float64(m.spec.Max) })
	r.GaugeFunc(obs.MetricClusterWidthStep, "Width spec step increment.",
		func() float64 { return float64(m.spec.Step) })
	r.GaugeFunc(obs.MetricClusterWidthDesired, "Desired fleet width.",
		func() float64 { return float64(m.desired.Load()) })
	r.GaugeFunc(obs.MetricClusterWidthAllocated, "Currently allocated PEs.",
		func() float64 { return float64(m.allocated.Load()) })
	r.GaugeFunc(obs.MetricClusterWidthPending, "1 while a width transition is in flight.",
		func() float64 {
			m.mu.Lock()
			p := m.pending
			m.mu.Unlock()
			if p != "" {
				return 1
			}
			return 0
		})
	r.GaugeFunc(obs.MetricClusterGeneration, "Fleet generation (bumped per committed migration).",
		func() float64 { return float64(m.gen.Load()) })
	r.CounterFunc(obs.MetricClusterMigStarted, "Region migrations started.", m.migStarted.Load)
	r.CounterFunc(obs.MetricClusterMigCompleted, "Region migrations committed.", m.migCompleted.Load)
	r.CounterFunc(obs.MetricClusterMigAborted, "Region migrations aborted.", m.migAborted.Load)
	r.CounterFunc(obs.MetricClusterReplayed, "Tuples rewritten by resume handshakes.", m.replayedTuples)
}

// Registries returns the cluster registry followed by every current
// member's registry — the dynamic set behind /metrics.
func (m *Manager) Registries() []*obs.Registry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*obs.Registry, 0, len(m.members)+1)
	out = append(out, m.creg)
	for _, mem := range m.members {
		out = append(out, mem.Reg)
	}
	return out
}

// FlightRecorder returns the fleet's shared flight recorder.
func (m *Manager) FlightRecorder() *obs.FlightRecorder { return m.fleet.FlightRecorder() }

var _ monitor.Provider = (*Manager)(nil)

// Statuses implements monitor.Provider: a synthetic cluster status (width
// spec, allocation, migration ledger) first, then one status per member,
// named by stable member id.
func (m *Manager) Statuses() []monitor.Status {
	cs := m.Status()
	out := []monitor.Status{{
		Name: "cluster",
		Width: &monitor.WidthStatus{
			Min:       cs.Spec.Min,
			Max:       cs.Spec.Max,
			Step:      cs.Spec.Step,
			Desired:   cs.Desired,
			Allocated: cs.Allocated,
			Pending:   cs.Pending,
		},
		Migrations: &monitor.MigrationStatus{
			Started:   cs.MigrationsStarted,
			Completed: cs.MigrationsCompleted,
			Aborted:   cs.MigrationsAborted,
			Replayed:  cs.ReplayedTuples,
		},
	}}
	for _, rt := range m.runtimes() {
		out = append(out, rt.Status())
	}
	return out
}

// AdaptationTrace implements monitor.Provider. Index 0 is the synthetic
// cluster status (no trace); member traces follow in Statuses order.
func (m *Manager) AdaptationTrace(index int) []core.TraceEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	if index < 1 || index > len(m.members) {
		return nil
	}
	return m.members[index-1].rt.Trace()
}
