package state

import "sync"

// Record is one operator snapshot inside a checkpoint epoch. Op is the
// engine-local node id; Watermark is the input-transport emit watermark
// the epoch was stamped with (0 when unknown); Full distinguishes full
// snapshots from incremental deltas.
type Record struct {
	Epoch     uint64
	Op        int32
	Full      bool
	Watermark uint64
	Data      []byte
}

// Store persists checkpoint records. An epoch only becomes recoverable
// once Commit(epoch) succeeds: Load never returns records of uncommitted
// epochs, which is how a crash mid-checkpoint (CkptCrash) degrades to
// "recover from the previous epoch" instead of a torn restore.
type Store interface {
	// Append stages one record of the current epoch. It must not retain
	// rec.Data once it returns: callers reuse the buffer for the next cut.
	Append(rec Record) error
	// Commit marks epoch durable.
	Commit(epoch uint64) error
	// Load returns all records of committed epochs in append order.
	Load() ([]Record, error)
	// Compact drops records with Epoch < keepEpoch (called after a full
	// snapshot makes older deltas redundant).
	Compact(keepEpoch uint64) error
	Close() error
}

// TornAppender is optionally implemented by stores that can emulate a
// crash mid-append (a half-written record) for fault injection.
type TornAppender interface {
	AppendTorn(rec Record) error
}

// Corrupter is optionally implemented by stores that can emulate
// storage-level corruption (a bit flip inside a committed frame) for fault
// injection; loads must detect the damage via CRC and skip the record.
type Corrupter interface {
	AppendCorrupt(rec Record) error
}

// MemStore is the in-memory Store used by tests and the simulator.
type MemStore struct {
	mu        sync.Mutex
	recs      []Record
	committed map[uint64]bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{committed: make(map[uint64]bool)}
}

// Append stages a record; the data is copied so callers may reuse buffers.
func (s *MemStore) Append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.Data = append([]byte(nil), rec.Data...)
	s.recs = append(s.recs, rec)
	return nil
}

// Commit marks epoch recoverable.
func (s *MemStore) Commit(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.committed[epoch] = true
	return nil
}

// Load returns committed records in append order.
func (s *MemStore) Load() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.recs))
	for _, r := range s.recs {
		if s.committed[r.Epoch] {
			out = append(out, r)
		}
	}
	return out, nil
}

// Compact drops records (and commit marks) below keepEpoch.
func (s *MemStore) Compact(keepEpoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.recs[:0]
	for _, r := range s.recs {
		if r.Epoch >= keepEpoch {
			kept = append(kept, r)
		}
	}
	s.recs = kept
	for e := range s.committed {
		if e < keepEpoch {
			delete(s.committed, e)
		}
	}
	return nil
}

// Close releases nothing; it exists to satisfy Store.
func (s *MemStore) Close() error { return nil }
