package pe

import (
	"testing"
)

// TestJobFusedRegionsAcrossPEs verifies region compilation stays active when
// a chain is split across processing elements: PE0 runs src -> w0 -> w1 ->
// export and PE1 runs import -> w2 -> w3 -> sink, both all-manual, so each
// side compiles a source-headed program (the export and the local sink are
// the terminal sink steps). Delivery must stay exact across the wire and
// both engines must actually take the compiled batch path.
func TestJobFusedRegionsAcrossPEs(t *testing.T) {
	const n = 3000
	g, sink := jobChain(t, 4, n)
	assign := Assignment{0, 0, 0, 1, 1, 1}
	job := launchAndWait(t, g, assign, Options{DisableElasticity: true}, sink, n)

	exp := job.PEs[0].Plan.exports[0]
	imp := job.PEs[1].Plan.imports[0]
	if exp.Sent() != n || exp.Dropped() != 0 {
		t.Fatalf("export sent %d dropped %d, want %d sent 0 dropped", exp.Sent(), exp.Dropped(), n)
	}
	if imp.Received() != n {
		t.Fatalf("import received %d, want %d", imp.Received(), n)
	}
	for i, s := range job.SchedStats() {
		if s.FusedTuples == 0 {
			t.Fatalf("PE %d never took the compiled region path (fused_tuples=0)", i)
		}
		if s.FusedTuples < s.FusedBatches {
			t.Fatalf("PE %d fused_tuples=%d < fused_batches=%d", i, s.FusedTuples, s.FusedBatches)
		}
	}
}
