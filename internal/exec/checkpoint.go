package exec

import (
	"time"

	"streamelastic/internal/fault"
	"streamelastic/internal/graph"
	"streamelastic/internal/obs"
	"streamelastic/internal/spl"
	"streamelastic/internal/state"
)

// CheckpointConfig wires a Checkpointer to its engine's surroundings: the
// durable store, the cadence, and the transport hooks that make a restored
// state cut exactly-once instead of merely crash-consistent.
type CheckpointConfig struct {
	// Store persists checkpoint records; required.
	Store state.Store
	// Interval between periodic checkpoints (default 1s).
	Interval time.Duration
	// FullEvery forces a full snapshot every n-th checkpoint, bounding the
	// incremental chain a recovery must replay (default 16).
	FullEvery int
	// Watermark returns the input transport's emit watermark — the wire
	// sequence of the last tuple handed to the engine. Read under the
	// pause barrier, it stamps the checkpoint with its exact input cut.
	// Nil means no transport (watermark 0).
	Watermark func() uint64
	// Rewind rolls the input transport back to a committed watermark so
	// the tuples after the cut are retransmitted. Called with the engine
	// paused. Nil means no transport replay (restore only).
	Rewind func(to uint64)
	// CommitFloor advances the transport's acknowledgement floor after an
	// epoch commits: everything at or below the watermark is durable and
	// may leave the sender's retransmit window. Nil when acks are ungated.
	CommitFloor func(wm uint64)
}

// Checkpointer takes periodic incremental snapshots of every
// state.Snapshotter operator in an engine and drives stateful recovery:
// when a quarantined recoverable operator's timeout expires, the
// supervisor parks it on the checkpointer, which restores the last
// committed cut and rewinds the transport so the gap is replayed.
//
// Consistency contract: snapshots are taken under the engine's pause
// barrier, so every operator's state and the input watermark belong to one
// point in the tuple stream. Epochs become recoverable only at Commit;
// a crash mid-epoch (CkptCrash) loses at most the uncommitted epoch.
type Checkpointer struct {
	e   *Engine
	cfg CheckpointConfig

	snaps  []state.Snapshotter // per node; nil = not a snapshotter
	filter []bool              // per node; replay-filter ops skip recovery restores

	recoverCh chan int
	cutCh     chan struct{} // one pending RequestCut
	stopCh    chan struct{}
	doneCh    chan struct{}
	started   bool

	// Epoch bookkeeping; touched only by the run goroutine (and by
	// NewCheckpointer/Restore before Start).
	epoch     uint64
	sinceFull int
	floor     uint64 // watermark last handed to CommitFloor
	enc       state.Encoder

	total     *obs.Counter
	errors    *obs.Counter
	skipped   *obs.Counter
	pressure  *obs.Counter
	restores  *obs.Counter
	lastBytes *obs.Gauge
	lastWM    *obs.Gauge
	lastEpoch *obs.Gauge
	durHist   *obs.Histogram
	bytesHist *obs.Histogram
	dirtyHist *obs.Histogram
}

// NewCheckpointer scans e's graph for state.Snapshotter operators, turns on
// their dirty-key tracking, arms the supervisor's drop-then-restore hook,
// and registers checkpoint metrics. Call before Engine.Start; call Restore
// to load a previous run's state, then Start to begin the periodic loop.
func NewCheckpointer(e *Engine, cfg CheckpointConfig) *Checkpointer {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.FullEvery <= 0 {
		cfg.FullEvery = 16
	}
	n := e.g.NumNodes()
	c := &Checkpointer{
		e:         e,
		cfg:       cfg,
		snaps:     make([]state.Snapshotter, n),
		filter:    make([]bool, n),
		recoverCh: make(chan int, n),
		cutCh:     make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
	}
	recoverable := make([]bool, n)
	for i := 0; i < n; i++ {
		op := e.g.Node(graph.NodeID(i)).Op
		snap, ok := op.(state.Snapshotter)
		if !ok {
			continue
		}
		snap.StateTrack(true)
		c.snaps[i] = snap
		recoverable[i] = true
		if _, ok := op.(state.ReplayFilter); ok {
			c.filter[i] = true
		}
	}
	if e.sup != nil {
		e.sup.armRecovery(recoverable, c.requestRecover)
	}
	r := e.reg
	c.total = r.Counter(obs.MetricCkptTotal, "Checkpoints committed.")
	c.errors = r.Counter(obs.MetricCkptErrors, "Checkpoint append/commit/restore failures.")
	c.skipped = r.Counter(obs.MetricCkptSkipped, "Checkpoints skipped while an operator was quarantined.")
	c.pressure = r.Counter(obs.MetricCkptPressure, "Checkpoints committed early because the input transport's replay window filled.")
	c.restores = r.Counter(obs.MetricCkptRestores, "State restores performed.")
	c.lastBytes = r.Gauge(obs.MetricCkptLastBytes, "Snapshot bytes of the last committed checkpoint.")
	c.lastWM = r.Gauge(obs.MetricCkptWatermark, "Input watermark of the last committed checkpoint.")
	c.lastEpoch = r.Gauge(obs.MetricCkptEpoch, "Epoch of the last committed checkpoint.")
	c.durHist = r.Histogram(obs.MetricCkptDuration, "Wall time per checkpoint (pause through commit).")
	c.bytesHist = r.Histogram(obs.MetricCkptBytes, "Snapshot bytes per checkpoint.")
	c.dirtyHist = r.Histogram(obs.MetricCkptDirtyKeys, "Dirty keys captured per checkpoint.")
	return c
}

// requestRecover is the supervisor's hook: park the node on the run loop.
// The channel holds one slot per node and the supervisor requests at most
// one recovery per engagement, so the send never blocks.
func (c *Checkpointer) requestRecover(node int) { c.recoverCh <- node }

// RequestCut asks the run loop for one early incremental checkpoint, ahead of
// the Interval tick — the input transport calls it when the bytes its sender
// retains for replay pass the high-water mark (commit-on-pressure). It never
// blocks and coalesces: requests arriving while one is pending or a cut is in
// progress amount to a single further cut. The run loop ignores the request
// while a stateful operator is quarantined (no cut can commit then).
func (c *Checkpointer) RequestCut() {
	select {
	case c.cutCh <- struct{}{}:
	default:
	}
}

// quarantined reports whether any checkpointed operator is quarantined. It
// reads the supervisor without the pause barrier, so it is only a cheap
// pre-check; CheckpointNow repeats it exactly under the pause.
func (c *Checkpointer) quarantined() bool {
	if c.e.sup == nil {
		return false
	}
	for i := range c.snaps {
		if c.snaps[i] != nil && c.e.sup.nodes[i].until.Load() != 0 {
			return true
		}
	}
	return false
}

// Start launches the periodic checkpoint loop.
func (c *Checkpointer) Start() {
	if c.started {
		return
	}
	c.started = true
	go c.run()
}

// Stop halts the loop and closes the store.
func (c *Checkpointer) Stop() {
	if !c.started {
		_ = c.cfg.Store.Close()
		return
	}
	c.started = false
	close(c.stopCh)
	<-c.doneCh
	_ = c.cfg.Store.Close()
}

func (c *Checkpointer) run() {
	defer close(c.doneCh)
	tick := time.NewTicker(c.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case node := <-c.recoverCh:
			nodes := []int{node}
			// Coalesce recoveries requested around the same expiry: one
			// restore serves them all (it is a whole-engine cut anyway).
			for {
				select {
				case more := <-c.recoverCh:
					nodes = append(nodes, more)
					continue
				default:
				}
				break
			}
			c.recover(nodes)
		case <-c.cutCh:
			if !c.quarantined() && c.CheckpointNow() {
				c.pressure.Add(1)
			}
		case <-tick.C:
			// Time-driven expiry: a quarantined stateful operator can have
			// stalled its own input (see supervision.pollExpired), so the
			// delivery-driven expiry check may never run again.
			if c.e.sup != nil {
				c.e.sup.pollExpired(time.Now().UnixNano())
			}
			c.CheckpointNow()
		}
	}
}

// pendingRec is one operator snapshot captured under the pause, written to
// the store after resume.
type pendingRec struct {
	op    int
	data  []byte
	dirty int
}

// CheckpointNow takes one checkpoint: pause, snapshot every tracked
// operator (full or incremental), stamp the transport watermark, resume,
// then append + commit outside the pause. Returns whether an epoch was
// committed.
func (c *Checkpointer) CheckpointNow() bool {
	if c.e.stop.Load() {
		return false
	}
	start := time.Now()
	full := c.sinceFull >= c.cfg.FullEvery || c.epoch == 0

	c.e.reconfigMu.Lock()
	c.e.pauseAll()
	// A quarantined operator has been dropping tuples: a cut taken now
	// would advance the watermark past input the operator never saw, and
	// recovery from it would lose those tuples. Skip until it recovers.
	// Exact under the pause: nothing quarantines or recovers mid-check.
	if c.quarantined() {
		c.e.resumeAll()
		c.e.reconfigMu.Unlock()
		c.skipped.Add(1)
		return false
	}
	var wm uint64
	if c.cfg.Watermark != nil {
		wm = c.cfg.Watermark()
	}
	var pend []pendingRec
	dirtyTotal := 0
	for i, snap := range c.snaps {
		if snap == nil {
			continue
		}
		c.enc.Reset()
		dirty := snap.StateSnapshot(&c.enc, full)
		if !full && dirty == 0 {
			continue // nothing changed since the last checkpoint
		}
		dirtyTotal += dirty
		pend = append(pend, pendingRec{op: i, data: append([]byte(nil), c.enc.Bytes()...), dirty: dirty})
	}
	c.e.resumeAll()
	c.e.reconfigMu.Unlock()

	// Persist outside the pause: the captured bytes are private copies, so
	// the engine runs while the store writes.
	epoch := c.epoch + 1
	inj := c.e.opts.Fault
	site := c.e.opts.ObsPE
	if inj != nil && inj.Fire(fault.CkptCrash, site) {
		// Simulate dying mid-append: a torn record, no commit. The dirty
		// sets were already drained into this failed epoch, so the next
		// snapshot must be full or those keys would never be recaptured.
		if ta, ok := c.cfg.Store.(state.TornAppender); ok && len(pend) > 0 {
			_ = ta.AppendTorn(state.Record{Epoch: epoch, Op: int32(pend[0].op), Full: full, Watermark: wm, Data: pend[0].data})
		}
		c.sinceFull = c.cfg.FullEvery
		c.errors.Add(1)
		return false
	}
	corrupt := inj != nil && inj.Fire(fault.CkptCorrupt, site)
	bytes := 0
	for i, p := range pend {
		rec := state.Record{Epoch: epoch, Op: int32(p.op), Full: full, Watermark: wm, Data: p.data}
		var err error
		if corrupt && i == 0 {
			// Storage-level bit flip inside a record that will be
			// committed: loads must detect it by CRC and skip it.
			if co, ok := c.cfg.Store.(state.Corrupter); ok {
				err = co.AppendCorrupt(rec)
			} else {
				err = c.cfg.Store.Append(rec)
			}
		} else {
			err = c.cfg.Store.Append(rec)
		}
		if err != nil {
			c.sinceFull = c.cfg.FullEvery
			c.errors.Add(1)
			return false
		}
		bytes += len(p.data)
	}
	if err := c.cfg.Store.Commit(epoch); err != nil {
		c.sinceFull = c.cfg.FullEvery
		c.errors.Add(1)
		return false
	}
	c.epoch = epoch
	if full {
		c.sinceFull = 0
		// Older epochs are redundant under a committed full snapshot.
		if err := c.cfg.Store.Compact(epoch); err != nil {
			c.errors.Add(1)
		}
	} else {
		c.sinceFull++
	}
	if c.cfg.CommitFloor != nil {
		c.floor = wm
		c.cfg.CommitFloor(wm)
	}
	c.total.Add(1)
	c.lastBytes.Set(float64(bytes))
	c.lastWM.Set(float64(wm))
	c.lastEpoch.Set(float64(epoch))
	c.durHist.Observe(time.Since(start))
	c.bytesHist.Observe(time.Duration(bytes))
	c.dirtyHist.Observe(time.Duration(dirtyTotal))
	kind := "incr"
	if full {
		kind = "full"
	}
	c.e.rec.Record(obs.EvCheckpoint, c.e.recPE, int64(epoch), int64(bytes), kind)
	return true
}

// Restore loads the last committed cut into the operators at launch. No
// rewind happens: a fresh process has a fresh wire-sequence domain, and
// replay across restarts is the sender's retransmit-on-reconnect. Call
// after NewCheckpointer, before Engine.Start.
func (c *Checkpointer) Restore() error {
	recs, err := c.cfg.Store.Load()
	if err != nil {
		c.errors.Add(1)
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	for _, r := range recs {
		op := int(r.Op)
		if op < 0 || op >= len(c.snaps) || c.snaps[op] == nil {
			continue
		}
		if err := c.snaps[op].StateRestore(state.NewDecoder(r.Data), r.Full); err != nil {
			c.errors.Add(1)
		}
	}
	// Resume the epoch sequence where the previous process left it, and
	// count the incremental chain since the last full so FullEvery keeps
	// its bound across restarts.
	lastFull := uint64(0)
	seen := map[uint64]bool{}
	for _, r := range recs {
		if r.Full && r.Epoch > lastFull {
			lastFull = r.Epoch
		}
		if r.Epoch > c.epoch {
			c.epoch = r.Epoch
		}
		seen[r.Epoch] = true
	}
	c.sinceFull = 0
	for e := range seen {
		if e > lastFull {
			c.sinceFull++
		}
	}
	c.restores.Add(1)
	c.lastEpoch.Set(float64(c.epoch))
	c.e.rec.Record(obs.EvRestore, c.e.recPE, -1, int64(c.epoch), "launch")
	return nil
}

// recover restores the last committed cut while the engine is paused and
// rewinds the transport to its watermark, then releases the quarantined
// nodes. Replay-filter operators (Reorder) keep their live state: their
// cursor is the exactly-once dedup for the replayed range.
func (c *Checkpointer) recover(nodes []int) {
	if c.e.stop.Load() {
		return
	}
	c.e.reconfigMu.Lock()
	c.e.pauseAll()
	recs, err := c.cfg.Store.Load()
	if err != nil {
		c.errors.Add(1)
		recs = nil
	}
	inj := c.e.opts.Fault
	site := c.e.opts.ObsPE
	var wm uint64
	if len(recs) == 0 {
		// Nothing committed yet: the cut is the stream's beginning. Acks
		// were gated at zero from the start, so the sender's ring still
		// holds everything; Reset + rewind(0) replays the whole input.
		for i, snap := range c.snaps {
			if snap == nil || c.filter[i] {
				continue
			}
			if rs, ok := snap.(spl.Resettable); ok {
				rs.Reset()
			}
		}
	} else {
		for _, r := range recs {
			op := int(r.Op)
			if op < 0 || op >= len(c.snaps) || c.snaps[op] == nil || c.filter[op] {
				continue
			}
			data := r.Data
			if inj != nil && inj.Fire(fault.RestoreTorn, site) && len(data) > 1 {
				// A record torn mid-read: the decoder must fail cleanly,
				// never panic or apply a half-read delta silently.
				data = data[:len(data)/2]
			}
			if err := c.snaps[op].StateRestore(state.NewDecoder(data), r.Full); err != nil {
				c.errors.Add(1)
			}
		}
		wm = recs[len(recs)-1].Watermark
	}
	// The sender frees its window up to the committed floor as soon as it is
	// acknowledged. The loaded records can trail the floor (the last epoch
	// committed empty, or its records failed their CRC): replay from the
	// floor then, the oldest point the sender still holds.
	if wm < c.floor {
		wm = c.floor
	}
	if c.cfg.Rewind != nil {
		c.cfg.Rewind(wm)
	}
	// Release the operators before the engine resumes: a replayed tuple that
	// met one still quarantined would be dropped for good.
	if c.e.sup != nil {
		for _, n := range nodes {
			c.e.sup.finishRecovery(n)
		}
	}
	c.e.resumeAll()
	c.e.reconfigMu.Unlock()
	c.restores.Add(1)
	for _, n := range nodes {
		c.e.rec.Record(obs.EvRestore, c.e.recPE, int64(n), int64(c.epoch), "quarantine")
	}
}

// CheckpointStats is the checkpointer's externally visible state.
type CheckpointStats struct {
	Checkpoints  uint64 // epochs committed
	Errors       uint64 // append/commit/restore failures
	Skipped      uint64 // cuts skipped while an operator was quarantined
	Pressure     uint64 // of Checkpoints, those taken early on transport pressure
	Restores     uint64 // state restores (launch + quarantine recovery)
	LastBytes    uint64 // snapshot bytes of the last committed epoch
	Watermark    uint64 // input watermark of the last committed epoch
	Epoch        uint64 // last committed epoch
	StatefulOps  int    // operators under checkpoint
	ReplayFilter int    // of those, replay-filter ops kept live on recovery
}

// Stats returns the checkpointer's counters.
func (c *Checkpointer) Stats() CheckpointStats {
	st := CheckpointStats{
		Checkpoints: c.total.Value(),
		Errors:      c.errors.Value(),
		Skipped:     c.skipped.Value(),
		Pressure:    c.pressure.Value(),
		Restores:    c.restores.Value(),
		LastBytes:   uint64(c.lastBytes.Value()),
		Watermark:   uint64(c.lastWM.Value()),
		Epoch:       uint64(c.lastEpoch.Value()),
	}
	for i := range c.snaps {
		if c.snaps[i] != nil {
			st.StatefulOps++
			if c.filter[i] {
				st.ReplayFilter++
			}
		}
	}
	return st
}
