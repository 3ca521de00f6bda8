package pe

import (
	"bytes"
	"testing"
	"time"

	"streamelastic/internal/spl"
)

// stagedExport wires an export as the sending half of an in-process edge:
// no writer goroutine touches the staging ring, so a test sees exactly what
// Process/ProcessBatch staged by popping it.
func stagedExport(t *testing.T, cfg TransportConfig) *exportOp {
	t.Helper()
	exp := newExportOp("x")
	exp.cfg = cfg.withDefaults()
	if err := exp.connectLocal(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exp.close)
	return exp
}

// popStaged drains the staging ring, returning the staged clones' (Seq,
// payload) and releasing them.
func popStaged(exp *exportOp) (seqs []uint64, payloads [][]byte) {
	batch := make([]*spl.Tuple, 32)
	for {
		n := exp.localPop(batch)
		if n == 0 {
			return seqs, payloads
		}
		for _, tp := range batch[:n] {
			seqs = append(seqs, tp.Seq)
			payloads = append(payloads, append([]byte(nil), tp.Payload...))
			tp.Release()
		}
	}
}

// TestExportBatchEquivalence pins the BatchProcessor contract on the export:
// ProcessBatch(ts) stages the same clones in the same order, and moves the
// same counters, as Process called on each tuple — with room in the ring,
// with the ring overflowing under DropOnFull, and on a stream that cannot
// stage at all.
func TestExportBatchEquivalence(t *testing.T) {
	const n = 3*exportStageChunk + 7 // several chunks and a ragged tail
	in := logTuples(1, n, 24)
	cases := []struct {
		name string
		cfg  TransportConfig
		prep func(*exportOp)
	}{
		{"ring has room", TransportConfig{RingCapacity: 1024}, nil},
		{"ring overflows, DropOnFull", TransportConfig{RingCapacity: 64, DropOnFull: true}, nil},
		{"ring already full, DropOnFull", TransportConfig{RingCapacity: 16, DropOnFull: true}, func(x *exportOp) {
			for _, tp := range logTuples(900, 16, 1) {
				x.Process(0, tp, nil)
			}
		}},
		{"closed stream", TransportConfig{}, func(x *exportOp) { x.close() }},
	}
	for _, tc := range cases {
		type outcome struct {
			seqs     []uint64
			payloads [][]byte
			dropped  uint64
		}
		run := func(batch bool) outcome {
			exp := stagedExport(t, tc.cfg)
			if tc.prep != nil {
				tc.prep(exp)
			}
			if batch {
				exp.ProcessBatch(0, in, nil)
			} else {
				for _, tp := range in {
					exp.Process(0, tp, nil)
				}
			}
			var o outcome
			o.seqs, o.payloads = popStaged(exp)
			o.dropped = exp.Dropped()
			return o
		}
		one, all := run(false), run(true)
		if one.dropped != all.dropped {
			t.Errorf("%s: Process dropped %d, ProcessBatch %d", tc.name, one.dropped, all.dropped)
		}
		if len(one.seqs) != len(all.seqs) {
			t.Errorf("%s: Process staged %d tuples, ProcessBatch %d", tc.name, len(one.seqs), len(all.seqs))
			continue
		}
		if uint64(len(all.seqs))+all.dropped < n {
			t.Errorf("%s: %d staged + %d dropped does not cover the %d tuples offered", tc.name, len(all.seqs), all.dropped, n)
		}
		for i := range one.seqs {
			if one.seqs[i] != all.seqs[i] || !bytes.Equal(one.payloads[i], all.payloads[i]) {
				t.Errorf("%s: staged tuple %d differs: Process Seq %d, ProcessBatch Seq %d", tc.name, i, one.seqs[i], all.seqs[i])
				break
			}
		}
	}
	for _, tp := range in {
		if len(tp.Payload) != 24 {
			t.Fatal("staging touched the caller's tuple")
		}
	}
}

// TestExportBatchBlocksThenCompletes: with bounded blocking (the default) a
// batch larger than the ring is staged completely and in order once a
// consumer frees space — the refused remainder waits, it is not dropped.
func TestExportBatchBlocksThenCompletes(t *testing.T) {
	const n = 500
	exp := stagedExport(t, TransportConfig{RingCapacity: 32, BlockTimeout: 30 * time.Second})
	in := logTuples(1, n, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		exp.ProcessBatch(0, in, nil)
	}()
	var got []uint64
	deadline := time.Now().Add(20 * time.Second)
	for len(got) < n && time.Now().Before(deadline) {
		seqs, _ := popStaged(exp)
		if len(seqs) == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		got = append(got, seqs...)
	}
	<-done
	if len(got) != n || exp.Dropped() != 0 {
		t.Fatalf("staged %d of %d, dropped %d", len(got), n, exp.Dropped())
	}
	for i, s := range got {
		if s != uint64(i+1) {
			t.Fatalf("staged tuple %d has Seq %d: order not preserved", i, s)
		}
	}
}
