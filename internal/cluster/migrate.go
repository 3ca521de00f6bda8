package cluster

import (
	"fmt"
	"net"
	"strconv"
	"time"

	"streamelastic/internal/exec"
	"streamelastic/internal/graph"
	"streamelastic/internal/obs"
	"streamelastic/internal/pe"
	"streamelastic/internal/spl"
)

// memberLoad is the planner's view of one member.
type memberLoad struct {
	idx   int // position in the fleet order
	id    int
	slots int
	load  int // instantaneous queue depth
}

// pickSplit chooses the member to split on grow: the most loaded member
// that has at least two topological slots (ties: more slots, then lower
// id, so repeated grows spread instead of re-splitting one PE). Returns -1
// when no member can split.
func pickSplit(loads []memberLoad) int {
	best := -1
	for i, l := range loads {
		if l.slots < 2 {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := loads[best]
		if l.load > b.load ||
			(l.load == b.load && l.slots > b.slots) ||
			(l.load == b.load && l.slots == b.slots && l.id < b.id) {
			best = i
		}
	}
	return best
}

// pickMerge chooses the adjacent pair to merge on shrink: the pair with
// the least combined load (ties: earlier pair). Contiguity of topological
// ranges means only adjacent members can merge. Returns -1 when the fleet
// has fewer than two members.
func pickMerge(loads []memberLoad) int {
	best := -1
	bestLoad := 0
	for i := 0; i+1 < len(loads); i++ {
		sum := loads[i].load + loads[i+1].load
		if best < 0 || sum < bestLoad {
			best, bestLoad = i, sum
		}
	}
	return best
}

// loads snapshots every member's instantaneous queue depth.
func (m *Manager) loads() []memberLoad {
	m.mu.Lock()
	mems := append([]*member(nil), m.members...)
	m.mu.Unlock()
	out := make([]memberLoad, len(mems))
	for i, mem := range mems {
		out[i] = memberLoad{
			idx:   i,
			id:    mem.id,
			slots: mem.hi - mem.lo,
			load:  mem.rt.Eng.QueueStats().TotalDepth,
		}
	}
	return out
}

// growOne adds one PE by splitting the most loaded member's range in two.
func (m *Manager) growOne() error {
	loads := m.loads()
	i := pickSplit(loads)
	if i < 0 {
		return fmt.Errorf("cluster: no member with enough slots to split")
	}
	m.mu.Lock()
	mem := m.members[i]
	m.mu.Unlock()
	mid := mem.lo + (mem.hi-mem.lo)/2
	return m.migrateGroup(i, 1, [][2]int{{mem.lo, mid}, {mid, mem.hi}})
}

// shrinkOne removes one PE by merging the least loaded adjacent pair.
func (m *Manager) shrinkOne() error {
	loads := m.loads()
	i := pickMerge(loads)
	if i < 0 {
		return fmt.Errorf("cluster: nothing to merge")
	}
	m.mu.Lock()
	a, b := m.members[i], m.members[i+1]
	m.mu.Unlock()
	return m.migrateGroup(i, 2, [][2]int{{a.lo, b.hi}})
}

// migrateGroup replaces the fleet positions [first, first+count) with new
// members covering newRanges, moving the running region between PEs with
// exactly-once semantics. The choreography:
//
//  1. Freeze the group's up-boundary exports (surviving senders park, no
//     drops) and stop the group's control loops.
//  2. Drain the group's engines (terminal for their real sources — the
//     shared operator instances resume emission in the replacements) and
//     wait for quiescence: engines idle, and per stream class the counters
//     prove nothing unaccounted is in flight.
//  3. Cut a state snapshot of the group's stateful operators under the
//     pause barrier, map node ids to the job graph, and Reset the shared
//     instances so the restore into the replacements is load-bearing.
//  4. Partition the job graph under the new shape; only the replaced
//     positions' plans are used (survivors keep their runtimes, plans,
//     and stream endpoints untouched).
//  5. Wire new internal edges fresh (sequence domain from zero). At the
//     up-boundary, seed the new import at the old import's delivered
//     watermark and Reroute the frozen export to it: anything appended but
//     undelivered replays from the export's block log on re-attach, so the
//     cut is exactly-once by construction.
//  6. Retire the old members: close their endpoints, stop their engines.
//     Then wire the down-boundary: a new export seeded at the retired
//     export's sequence high dials the surviving import's unchanged
//     address (retiring first frees the import to re-accept promptly).
//  7. Start the replacements, unfreeze the up-boundary, commit.
func (m *Manager) migrateGroup(first, count int, newRanges [][2]int) error {
	m.migStarted.Add(1)
	m.mu.Lock()
	group := append([]*member(nil), m.members[first:first+count]...)
	inGroup := make(map[int]bool, count)
	for _, mem := range group {
		inGroup[mem.id] = true
	}
	var up, internal, down []*streamRT
	for _, st := range m.streams {
		f, t := inGroup[st.fromMember], inGroup[st.toMember]
		switch {
		case f && t:
			internal = append(internal, st)
		case t:
			up = append(up, st)
		case f:
			down = append(down, st)
		}
	}
	streamByKey := make(map[edgeKey]*streamRT, len(m.streams))
	for k, st := range m.streams {
		streamByKey[k] = st
	}
	m.mu.Unlock()

	abort := func(err error) error {
		for _, st := range up {
			st.exp.Unfreeze()
		}
		m.migAborted.Add(1)
		return err
	}

	// 1. Freeze the up-boundary; stop the group's control loops so no
	// coordinator reconfigures an engine we are about to quiesce.
	for _, st := range up {
		st.exp.Freeze()
	}
	for _, mem := range group {
		mem.rt.StopControl()
	}

	// 2. Drain and quiesce.
	for _, mem := range group {
		mem.rt.Eng.Drain()
	}
	if !m.quiesce(group, up, internal, down) {
		return abort(fmt.Errorf("cluster: migration quiesce timed out after %v", m.drainTimeout))
	}

	// 3. Snapshot state, keyed by job-graph node id, then reset the shared
	// instances (Partition re-adds the same operator objects).
	stateOf := make(map[graph.NodeID][]byte)
	for _, mem := range group {
		globalOf := make(map[int]graph.NodeID)
		for gid, local := range mem.plan.LocalOf {
			if local >= 0 {
				globalOf[int(local)] = graph.NodeID(gid)
			}
		}
		for _, b := range mem.rt.Eng.ExportState() {
			gid, ok := globalOf[b.Node]
			if !ok {
				continue // transport stub, not a job-graph operator
			}
			stateOf[gid] = b.Data
		}
	}
	for gid := range stateOf {
		if rs, ok := m.g.Node(gid).Op.(spl.Resettable); ok {
			rs.Reset()
		}
	}

	// 4. Repartition under the new fleet shape.
	m.mu.Lock()
	ranges := make([][2]int, 0, len(m.members)-count+len(newRanges))
	for _, mem := range m.members[:first] {
		ranges = append(ranges, [2]int{mem.lo, mem.hi})
	}
	ranges = append(ranges, newRanges...)
	for _, mem := range m.members[first+count:] {
		ranges = append(ranges, [2]int{mem.lo, mem.hi})
	}
	memberAt := make(map[int]*member) // surviving fleet position -> member
	for i, mem := range m.members {
		if i < first {
			memberAt[i] = mem
		} else if i >= first+count {
			memberAt[i-count+len(newRanges)] = mem
		}
	}
	m.mu.Unlock()
	plans, crosses, err := pe.Partition(m.g, m.assignFor(ranges))
	if err != nil {
		return abort(fmt.Errorf("cluster: repartition: %w", err))
	}

	newMems := make([]*member, len(newRanges))
	newPos := func(p int) bool { return p >= first && p < first+len(newRanges) }
	for k, r := range newRanges {
		m.mu.Lock()
		id := m.nextMemberID
		m.nextMemberID++
		m.mu.Unlock()
		newMems[k] = &member{
			id:   id,
			lo:   r[0],
			hi:   r[1],
			plan: plans[first+k],
			reg:  obs.NewRegistry(obs.Label{Key: "pe", Value: strconv.Itoa(id)}),
		}
	}

	// 5. Wire the new members' streams. Old imports/exports to retire and
	// streamRT field updates are collected and applied at commit.
	type streamUpdate struct {
		st         *streamRT // live stream to mutate, or (replace) fresh one
		replace    bool      // wholesale replacement (rewired internal edge)
		exp        *pe.Export
		imp        *pe.Import
		addr       string
		fromMember int
		toMember   int
	}
	var updates []streamUpdate
	var added []*streamRT
	var oldImports []*pe.Import
	newInternal := make(map[edgeKey]bool)
	for _, ce := range crosses {
		key := edgeKey{from: ce.From, fromPort: ce.FromPort, to: ce.To, toPort: ce.ToPort}
		switch {
		case newPos(ce.FromPE) && newPos(ce.ToPE):
			// Internal to the replacements: a fresh edge, sequences from 0.
			newInternal[key] = true
			fromMem, toMem := newMems[ce.FromPE-first], newMems[ce.ToPE-first]
			if old, ok := streamByKey[key]; ok {
				// The edge existed between two retiring members; keep its
				// stable id, the endpoints are replaced wholesale.
				st := &streamRT{id: old.id, key: key, fromMember: fromMem.id, toMember: toMem.id}
				exp := plans[ce.FromPE].ExportEndpoint(ce.Stream)
				imp := plans[ce.ToPE].ImportEndpoint(ce.Stream)
				if err := m.wireFresh(st, exp, imp, fromMem, toMem); err != nil {
					return abort(fmt.Errorf("cluster: rewire internal stream %d: %w", old.id, err))
				}
				updates = append(updates, streamUpdate{st: st, replace: true})
			} else {
				m.mu.Lock()
				st := &streamRT{id: m.nextStreamID, key: key, fromMember: fromMem.id, toMember: toMem.id}
				m.nextStreamID++
				m.mu.Unlock()
				exp := plans[ce.FromPE].ExportEndpoint(ce.Stream)
				imp := plans[ce.ToPE].ImportEndpoint(ce.Stream)
				if err := m.wireFresh(st, exp, imp, fromMem, toMem); err != nil {
					return abort(fmt.Errorf("cluster: wire internal stream %d: %w", st.id, err))
				}
				added = append(added, st)
			}
		case newPos(ce.ToPE):
			// Up-boundary: the surviving (frozen) export reroutes to a new
			// import seeded at the old import's delivered watermark; frames
			// appended but undelivered replay from the export's block log.
			st, ok := streamByKey[key]
			if !ok {
				return abort(fmt.Errorf("cluster: up-boundary edge %v has no live stream", key))
			}
			toMem := newMems[ce.ToPE-first]
			imp := plans[ce.ToPE].ImportEndpoint(ce.Stream)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return abort(fmt.Errorf("cluster: listen for stream %d: %w", st.id, err))
			}
			imp.Configure(m.rec, toMem.id, st.id)
			imp.SeedWatermark(st.imp.Delivered())
			imp.Listen(ln)
			imp.RegisterMetrics(toMem.reg, st.id, st.fromMember)
			oldImports = append(oldImports, st.imp)
			st.exp.Reroute(ln.Addr().String())
			// The surviving export keeps its original metrics binding: the
			// endpoint object is unchanged, and rebinding under the new peer
			// label would leave a stale duplicate series.
			updates = append(updates, streamUpdate{
				st: st, imp: imp, addr: ln.Addr().String(),
				fromMember: st.fromMember, toMember: toMem.id,
			})
		case newPos(ce.FromPE):
			// Down-boundary: handled after the old members retire, so the
			// surviving import is already re-accepting when the replacement
			// export dials. Nothing to do yet.
		}
	}

	// 6. Build the replacement runtimes and restore the region's state.
	for _, nm := range newMems {
		rt, err := pe.NewPERuntime(nm.plan, nm.reg, m.rec, m.peOpts, nil)
		if err != nil {
			return abort(fmt.Errorf("cluster: build pe%d: %w", nm.id, err))
		}
		nm.rt = rt
		var blobs []exec.StateBlob
		for gid, data := range stateOf {
			if local := nm.plan.LocalOf[gid]; local >= 0 {
				blobs = append(blobs, exec.StateBlob{Node: int(local), Data: data})
			}
		}
		if err := rt.Eng.ImportState(blobs); err != nil {
			return abort(fmt.Errorf("cluster: restore pe%d: %w", nm.id, err))
		}
	}

	// 7. Retire the old members. Down exports' sequence highs are read
	// before Close; the replay ledger folds their retransmit counts in at
	// commit. Closing the down exports frees the surviving imports to
	// re-accept.
	var retiredReplay uint64
	downSeed := make(map[*streamRT]uint64, len(down))
	for _, st := range down {
		downSeed[st] = st.exp.SeqHigh()
		retiredReplay += st.exp.RetransTuples()
		st.exp.Close()
	}
	for _, st := range internal {
		retiredReplay += st.exp.RetransTuples()
		st.exp.Close()
		st.imp.Close()
	}
	for _, imp := range oldImports {
		imp.Close()
	}
	for _, mem := range group {
		mem.rt.StopEngine()
	}

	// 8. Down-boundary: the replacement export continues the retired
	// export's sequence domain and dials the surviving import's unchanged
	// address; resume == seed, so the attach is clean and the import's
	// dedup watermark carries over.
	for _, ce := range crosses {
		if !newPos(ce.FromPE) || newPos(ce.ToPE) {
			continue
		}
		key := edgeKey{from: ce.From, fromPort: ce.FromPort, to: ce.To, toPort: ce.ToPort}
		st, ok := streamByKey[key]
		if !ok {
			return abort(fmt.Errorf("cluster: down-boundary edge %v has no live stream", key))
		}
		fromMem := newMems[ce.FromPE-first]
		exp := plans[ce.FromPE].ExportEndpoint(ce.Stream)
		exp.Configure(m.peOpts.Transport, m.peOpts.Fault, st.id, m.rec, fromMem.id)
		exp.SeedSequence(downSeed[st])
		conn, err := net.DialTimeout("tcp", st.addr, m.peOpts.DialTimeout)
		if err != nil {
			return abort(fmt.Errorf("cluster: redial stream %d: %w", st.id, err))
		}
		exp.Connect(conn, st.addr)
		exp.RegisterMetrics(fromMem.reg, st.id, st.toMember)
		updates = append(updates, streamUpdate{
			st: st, exp: exp, addr: st.addr,
			fromMember: fromMem.id, toMember: st.toMember,
		})
	}

	// 9. Start the replacements and release the frozen boundary.
	for _, nm := range newMems {
		if err := nm.rt.Start(m.ctx); err != nil {
			return abort(fmt.Errorf("cluster: start pe%d: %w", nm.id, err))
		}
	}
	for _, st := range up {
		st.exp.Unfreeze()
	}

	// 10. Commit.
	m.mu.Lock()
	fleet := make([]*member, 0, len(ranges))
	for i := range ranges {
		if newPos(i) {
			fleet = append(fleet, newMems[i-first])
		} else {
			fleet = append(fleet, memberAt[i])
		}
	}
	m.members = fleet
	for _, st := range internal {
		if !newInternal[st.key] {
			delete(m.streams, st.key) // merged away: the edge is local now
		}
	}
	for _, u := range updates {
		if u.replace {
			m.streams[u.st.key] = u.st
			continue
		}
		if u.exp != nil {
			u.st.exp = u.exp
		}
		if u.imp != nil {
			u.st.imp = u.imp
		}
		u.st.addr = u.addr
		u.st.fromMember = u.fromMember
		u.st.toMember = u.toMember
	}
	for _, st := range added {
		m.streams[st.key] = st
	}
	m.allocated.Store(int64(len(fleet)))
	m.gen.Add(1)
	m.mu.Unlock()
	m.replayedBase.Add(retiredReplay)
	m.migCompleted.Add(1)
	return nil
}

// quiesce waits (bounded by DrainTimeout) until the group is provably
// quiet, requiring two consecutive passes with a settle gap.
func (m *Manager) quiesce(group []*member, up, internal, down []*streamRT) bool {
	deadline := time.Now().Add(m.drainTimeout)
	settled := 0
	for time.Now().Before(deadline) {
		if m.quiet(group, up, internal, down) {
			settled++
			if settled >= 2 {
				return true
			}
		} else {
			settled = 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// quiet checks the per-stream-class quiescence conditions:
//
//   - group engines idle (drained, queues empty, workers parked);
//   - up-boundary: the import has emitted everything it delivered — tuples
//     appended but undelivered sit unacked in the frozen export's block log
//     and replay to the replacement import after reroute, so they need not
//     drain;
//   - internal: nothing appended but unwritten (StagedDepth zero: open
//     frame sealed, log flushed) and the import has delivered and emitted
//     everything ever appended — the edge is replaced by a fresh sequence
//     domain, so an undrained tuple here would be lost;
//   - down-boundary: nothing appended but unwritten and the surviving
//     import's dedup watermark has caught the export's sequence high — the
//     replacement export seeds there with an empty log, so a gap would
//     never replay.
func (m *Manager) quiet(group []*member, up, internal, down []*streamRT) bool {
	for _, mem := range group {
		if !mem.rt.Eng.WaitIdle(5 * time.Millisecond) {
			return false
		}
	}
	for _, st := range up {
		if st.imp.Emitted() != st.imp.Delivered() {
			return false
		}
	}
	for _, st := range internal {
		if st.exp.StagedDepth() != 0 {
			return false
		}
		h := st.exp.SeqHigh()
		if st.imp.Delivered() != h || st.imp.Emitted() != h {
			return false
		}
	}
	for _, st := range down {
		if st.exp.StagedDepth() != 0 {
			return false
		}
		if st.imp.Delivered() != st.exp.SeqHigh() {
			return false
		}
	}
	return true
}
