package state

import "math/rand/v2"

// Snapshotter is implemented by operators that expose checkpointable keyed
// state. The checkpoint coordinator calls these under the engine's pause
// barrier, so implementations see no concurrent Process calls; they still
// take their own mutex so direct (non-engine) callers stay safe.
type Snapshotter interface {
	// StateTrack enables or disables dirty-key tracking. Tracking is off
	// by default so the non-checkpointing hot path pays nothing; the
	// coordinator switches it on when checkpointing is enabled.
	StateTrack(on bool)
	// StateSnapshot encodes the operator's state into enc. When full is
	// set it writes the complete state, otherwise only entries dirtied
	// since the previous snapshot. It returns the number of entries
	// written and clears the dirty set.
	StateSnapshot(enc *Encoder, full bool) int
	// StateRestore applies a snapshot produced by StateSnapshot with the
	// same full flag. A full restore replaces all state; an incremental
	// one merges (tombstones delete). Corrupt input returns an error and
	// never panics.
	StateRestore(dec *Decoder, full bool) error
}

// ReplayFilter marks a Snapshotter whose live state IS the exactly-once
// output filter (e.g. spl.Reorder's release cursor). During quarantine
// recovery such operators are deliberately NOT restored: keeping their
// live cursor is what deduplicates the replayed tuple range. They are
// still checkpointed and restored on a cold job restart.
type ReplayFilter interface {
	FiltersReplay()
}

// DefaultRanges is the number of power-of-two key ranges a Map partitions
// its keys into when the caller does not choose.
const DefaultRanges = 8

// mix is a 64-bit finalizer (splitmix64 style) spreading keys across
// ranges independently of their low bits.
func mix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Slot states. Key 0 lives outside the table, in mapRange.zero, where
// stEmpty means absent; a table slot whose key is 0 is empty.
const (
	stEmpty uint8 = iota
	stClean       // present, unchanged since the last cut
	stDirty       // present, written since the last cut
	stDead        // deleted since the last cut: a tombstone, absent to readers
)

// slot is one table entry: a key, its value and its dirty state.
type slot[V any] struct {
	key   uint64
	state uint8
	val   V
}

func (s *slot[V]) present() bool { return s.state == stClean || s.state == stDirty }

// mapRange is one key range: an open-addressed table with linear probing,
// load <= 3/4 and backward-shift deletion. The dirty state lives in the
// slot, so a tracked write costs no probe beyond the one that finds the
// key; marked lists each dirty or dead slot's key once, in the order the
// keys were first marked since the last cut.
type mapRange[V any] struct {
	slots  []slot[V] // power-of-two length once the first key arrives
	zero   slot[V]   // key 0
	used   int       // occupied table slots, dead ones included
	live   int       // keys present, key 0 included
	marked []uint64
	seed   uint64
}

// find returns k's slot, dead or alive, or nil. h is mix(k ^ seed).
func (r *mapRange[V]) find(k, h uint64) *slot[V] {
	if k == 0 {
		if r.zero.state == stEmpty {
			return nil
		}
		return &r.zero
	}
	if r.slots == nil {
		return nil
	}
	mask := uint64(len(r.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch r.slots[i].key {
		case k:
			return &r.slots[i]
		case 0:
			return nil
		}
	}
}

// claim returns k's slot, taking an empty one (state stEmpty) when k has
// none and growing the table to keep its load at or under 3/4.
func (r *mapRange[V]) claim(k, h uint64) *slot[V] {
	if k == 0 {
		return &r.zero
	}
	if r.slots != nil {
		mask := uint64(len(r.slots) - 1)
		for i := h & mask; ; i = (i + 1) & mask {
			s := &r.slots[i]
			if s.key == k {
				return s
			}
			if s.key == 0 {
				if 4*(r.used+1) <= 3*len(r.slots) {
					s.key = k
					r.used++
					return s
				}
				break
			}
		}
	}
	r.grow()
	r.used++
	return r.place(k, h)
}

// place stores k, known to be absent, in the first free slot of its probe
// run.
func (r *mapRange[V]) place(k, h uint64) *slot[V] {
	mask := uint64(len(r.slots) - 1)
	i := h & mask
	for r.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	r.slots[i].key = k
	return &r.slots[i]
}

func (r *mapRange[V]) grow() {
	old := r.slots
	r.slots = make([]slot[V], max(8, 2*len(old)))
	for i := range old {
		if k := old[i].key; k != 0 {
			*r.place(k, mix(k^r.seed)) = old[i]
		}
	}
}

// remove drops k's slot, if it has one, and closes the gap by shifting
// later entries of the probe run back, so the table needs no tombstones
// of its own.
func (r *mapRange[V]) remove(k, h uint64) {
	if k == 0 {
		if r.zero.present() {
			r.live--
		}
		r.zero = slot[V]{}
		return
	}
	if r.slots == nil {
		return
	}
	mask := uint64(len(r.slots) - 1)
	i := h & mask
	for r.slots[i].key != k {
		if r.slots[i].key == 0 {
			return
		}
		i = (i + 1) & mask
	}
	if r.slots[i].present() {
		r.live--
	}
	r.used--
	for j := (i + 1) & mask; r.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if i lies between its
		// home slot and j, or lookups from its home would stop at the hole.
		if home := mix(r.slots[j].key^r.seed) & mask; (j-home)&mask >= (j-i)&mask {
			r.slots[i] = r.slots[j]
			i = j
		}
	}
	r.slots[i] = slot[V]{}
}

// write readies s for a new value: present, and dirty when tracking.
func (r *mapRange[V]) write(s *slot[V], track bool) {
	if !s.present() {
		r.live++
	}
	if !track {
		if s.state == stEmpty {
			s.state = stClean
		}
		return
	}
	if s.state == stEmpty || s.state == stClean {
		r.marked = append(r.marked, s.key)
	}
	s.state = stDirty
}

// kill turns s into a tombstone recorded for the next cut.
func (r *mapRange[V]) kill(s *slot[V]) {
	if s.state == stDead {
		return
	}
	if s.present() {
		r.live--
	}
	if s.state != stDirty {
		r.marked = append(r.marked, s.key)
	}
	var zero V
	s.state, s.val = stDead, zero
}

// reset drops every key and mark without recording tombstones.
func (r *mapRange[V]) reset() {
	clear(r.slots)
	r.zero = slot[V]{}
	r.used, r.live = 0, 0
	r.marked = r.marked[:0]
}

// Map is a per-key state map partitioned into power-of-two key ranges.
// The partitioning gives checkpoints and key migration a stable
// range-addressable unit (Elasticutor's "move keys, not operators"), and
// the dirty state kept in each slot makes incremental snapshots cheap: a
// snapshot only walks keys written since the last one.
//
// Map is not internally synchronized; the owning operator's mutex (the
// Stateful contract) covers it.
type Map[V any] struct {
	ranges []mapRange[V]
	mask   uint64
	track  bool
	encV   func(*Encoder, V)
	decV   func(*Decoder) V
}

// NewMap returns a Map partitioned into `ranges` key ranges (rounded up to
// a power of two; <= 0 means DefaultRanges). encV/decV encode one value.
func NewMap[V any](ranges int, encV func(*Encoder, V), decV func(*Decoder) V) *Map[V] {
	if ranges <= 0 {
		ranges = DefaultRanges
	}
	n := 1
	for n < ranges {
		n <<= 1
	}
	m := &Map[V]{ranges: make([]mapRange[V], n), mask: uint64(n - 1), encV: encV, decV: decV}
	seed := rand.Uint64()
	for i := range m.ranges {
		m.ranges[i].seed = seed
	}
	return m
}

// locate returns k's range and slot hash. The range comes from the
// unseeded mix(k), so a key falls in the same range in every instance:
// ranges are what migration moves. The slot hash is seeded per Map, as Go
// maps are, so keys from outside the program cannot be crafted to collide.
func (m *Map[V]) locate(k uint64) (*mapRange[V], uint64) {
	r := &m.ranges[mix(k)&m.mask]
	return r, mix(k ^ r.seed)
}

// Get returns the value for k.
func (m *Map[V]) Get(k uint64) (V, bool) {
	r, h := m.locate(k)
	if s := r.find(k, h); s != nil && s.present() {
		return s.val, true
	}
	var zero V
	return zero, false
}

// Ref returns a pointer to k's value for an update in place, inserting the
// zero value when k is absent and marking k dirty when tracking is on. The
// pointer is valid until the next call that mutates the map.
func (m *Map[V]) Ref(k uint64) *V {
	r, h := m.locate(k)
	s := r.claim(k, h)
	r.write(s, m.track)
	return &s.val
}

// Put stores v under k, marking the key dirty when tracking is on.
func (m *Map[V]) Put(k uint64, v V) { *m.Ref(k) = v }

// Delete removes k. When tracking is on the key stays behind as a
// tombstone, so the next incremental snapshot carries the deletion.
func (m *Map[V]) Delete(k uint64) {
	r, h := m.locate(k)
	if m.track {
		r.kill(r.claim(k, h))
	} else {
		r.remove(k, h)
	}
}

// Len returns the total number of keys.
func (m *Map[V]) Len() int {
	n := 0
	for i := range m.ranges {
		n += m.ranges[i].live
	}
	return n
}

// DirtyLen returns the number of keys recorded as dirty.
func (m *Map[V]) DirtyLen() int {
	n := 0
	for i := range m.ranges {
		n += len(m.ranges[i].marked)
	}
	return n
}

// RangeCount returns the number of key ranges.
func (m *Map[V]) RangeCount() int { return len(m.ranges) }

// RangeLens returns the key count per range (migration planning input).
func (m *Map[V]) RangeLens() []int {
	out := make([]int, len(m.ranges))
	for i := range m.ranges {
		out[i] = m.ranges[i].live
	}
	return out
}

// Range calls fn for every key until fn returns false. Iteration order is
// unspecified; fn must not mutate the map.
func (m *Map[V]) Range(fn func(k uint64, v V) bool) {
	for i := range m.ranges {
		r := &m.ranges[i]
		if r.zero.present() && !fn(0, r.zero.val) {
			return
		}
		for j := range r.slots {
			if s := &r.slots[j]; s.present() && !fn(s.key, s.val) {
				return
			}
		}
	}
}

// Clear drops all keys. When tracking is on, every dropped key is
// remembered as a tombstone so the next incremental snapshot reflects the
// clearing (Reset-while-checkpointing stays correct).
func (m *Map[V]) Clear() {
	for i := range m.ranges {
		r := &m.ranges[i]
		if !m.track {
			r.reset()
			continue
		}
		if r.zero.present() {
			r.kill(&r.zero)
		}
		for j := range r.slots {
			if r.slots[j].present() {
				r.kill(&r.slots[j])
			}
		}
	}
}

// Track switches dirty-key tracking on or off. Turning it on starts with
// nothing dirty: the caller is expected to take a full snapshot first.
func (m *Map[V]) Track(on bool) {
	m.track = on
	if !on {
		for i := range m.ranges {
			m.settle(&m.ranges[i], nil)
		}
	}
}

// settle ends a cut of r: for each marked key it writes the value or a
// tombstone to enc when enc is non-nil, then removes dead slots, cleans
// dirty ones and empties the marked list.
func (m *Map[V]) settle(r *mapRange[V], enc *Encoder) {
	for _, k := range r.marked {
		h := mix(k ^ r.seed)
		s := r.find(k, h)
		live := s.state == stDirty
		if enc != nil {
			enc.Uvarint(k)
			enc.Bool(live) // the presence byte
			if live {
				m.encV(enc, s.val)
			}
		}
		if live {
			s.state = stClean
		} else {
			r.remove(k, h)
		}
	}
	r.marked = r.marked[:0]
}

// Snapshot encodes either the full map or only dirty keys into enc and
// clears the dirty marks. Each entry is key + presence byte + value;
// presence 0 is a tombstone (incremental only). Returns entries written.
func (m *Map[V]) Snapshot(enc *Encoder, full bool) int {
	if !full {
		n := m.DirtyLen()
		enc.Uvarint(uint64(n))
		for i := range m.ranges {
			m.settle(&m.ranges[i], enc)
		}
		return n
	}
	n := m.Len()
	enc.Uvarint(uint64(n))
	m.Range(func(k uint64, v V) bool {
		enc.Uvarint(k)
		enc.Byte(1)
		m.encV(enc, v)
		return true
	})
	for i := range m.ranges {
		m.settle(&m.ranges[i], nil)
	}
	return n
}

// Restore applies a snapshot. A full restore clears the map first; an
// incremental one merges entries and applies tombstones. Restored entries
// are not marked dirty (they match the durable state by construction),
// and keys already marked stay marked.
func (m *Map[V]) Restore(dec *Decoder, full bool) error {
	if full {
		for i := range m.ranges {
			m.ranges[i].reset()
		}
	}
	count := dec.Uvarint()
	for i := uint64(0); i < count && dec.Err() == nil; i++ {
		k := dec.Uvarint()
		present := dec.Byte()
		if dec.Err() != nil {
			break
		}
		if present == 0 {
			r, h := m.locate(k)
			switch s := r.find(k, h); {
			case s == nil:
			case s.state == stClean:
				r.remove(k, h)
			default:
				r.kill(s)
			}
			continue
		}
		v := m.decV(dec)
		if dec.Err() != nil {
			break
		}
		r, h := m.locate(k)
		s := r.claim(k, h)
		// Only a tombstone, already marked, comes back dirty.
		r.write(s, s.state == stDead)
		s.val = v
	}
	return dec.Err()
}

// Cell is a single non-keyed state value (a cursor, a watermark, a small
// ring) with the same track/snapshot/restore protocol as Map.
type Cell[V any] struct {
	v     V
	dirty bool
	track bool
	encV  func(*Encoder, V)
	decV  func(*Decoder) V
}

// NewCell returns a cell holding initial.
func NewCell[V any](initial V, encV func(*Encoder, V), decV func(*Decoder) V) *Cell[V] {
	return &Cell[V]{v: initial, encV: encV, decV: decV}
}

// Get returns the current value.
func (c *Cell[V]) Get() V { return c.v }

// Set stores v, marking the cell dirty when tracking is on.
func (c *Cell[V]) Set(v V) {
	c.v = v
	if c.track {
		c.dirty = true
	}
}

// Ref returns a pointer to the value for an update in place, marking the
// cell dirty when tracking is on.
func (c *Cell[V]) Ref() *V {
	c.dirty = c.dirty || c.track
	return &c.v
}

// Track switches dirty tracking on or off.
func (c *Cell[V]) Track(on bool) {
	c.track = on
	if !on {
		c.dirty = false
	}
}

// Snapshot writes the value (always on full, only when dirty otherwise)
// and clears the dirty mark. Returns entries written (0 or 1).
func (c *Cell[V]) Snapshot(enc *Encoder, full bool) int {
	if full || c.dirty {
		enc.Byte(1)
		c.encV(enc, c.v)
		c.dirty = false
		return 1
	}
	enc.Byte(0)
	return 0
}

// Restore reads a cell snapshot: flag 0 leaves the value unchanged.
func (c *Cell[V]) Restore(dec *Decoder, _ bool) error {
	if dec.Byte() != 0 {
		v := c.decV(dec)
		if dec.Err() == nil {
			c.v = v
			c.dirty = false
		}
	}
	return dec.Err()
}

// Common value codecs.

// Float64Codec encodes a float64 value.
func EncFloat64(e *Encoder, v float64) { e.Float64(v) }

// DecFloat64 decodes a float64 value.
func DecFloat64(d *Decoder) float64 { return d.Float64() }

// EncInt64 encodes an int64 value.
func EncInt64(e *Encoder, v int64) { e.Varint(v) }

// DecInt64 decodes an int64 value.
func DecInt64(d *Decoder) int64 { return d.Varint() }

// EncUint64 encodes a uint64 value.
func EncUint64(e *Encoder, v uint64) { e.Uvarint(v) }

// DecUint64 decodes a uint64 value.
func DecUint64(d *Decoder) uint64 { return d.Uvarint() }
