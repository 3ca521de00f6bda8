package exec

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"streamelastic/internal/fault"
	"streamelastic/internal/graph"
	"streamelastic/internal/spl"
)

// captureSink records every tuple it receives as a formatted row — values,
// not pointers, since the two paths under comparison pool tuples
// differently. It is deliberately not Recyclable so the harness never
// depends on release timing.
type captureSink struct {
	rows []string
}

func (c *captureSink) Name() string { return "capture" }

func (c *captureSink) Process(port int, t *spl.Tuple, _ spl.Emitter) {
	c.rows = append(c.rows,
		fmt.Sprintf("p%d|%d|%d|%d|%s|%g|%g", port, t.Seq, t.Key, t.Time, t.Text, t.Num1, t.Num2))
}

// chainFromSpec builds src -> (ops from spec) -> captureSink. Each spec
// byte picks one operator; state-bearing operators are freshly constructed
// per call so repeated builds are independent. Chains are capped at six
// operators.
func chainFromSpec(tb testing.TB, spec []byte, tuples uint64, srcBatch int) (*graph.Graph, *captureSink) {
	tb.Helper()
	g := graph.New()
	gen := spl.NewGenerator("src", 0)
	gen.MaxTuples = tuples
	gen.Batch = srcBatch
	gen.Keys = 4
	gen.Texts = []string{"alpha beta", "gamma", "", "delta epsilon zeta"}
	prev := g.AddSource(gen, nil)
	n := len(spec)
	if n > 6 {
		n = 6
	}
	for i := 0; i < n; i++ {
		var op spl.Operator
		switch spec[i] % 6 {
		case 0:
			op = spl.NewWork(fmt.Sprintf("w%d", i), spl.NewCostVar(float64(spec[i]%16)))
		case 1:
			k := uint64(spec[i]%3 + 2)
			op = spl.NewFilter(fmt.Sprintf("f%d", i), func(t *spl.Tuple) bool { return t.Seq%k != 0 })
		case 2:
			d := float64(spec[i])
			op = spl.NewMap(fmt.Sprintf("m%d", i), func(t *spl.Tuple) *spl.Tuple {
				t.Num1 += d
				t.Num2 = t.Num1 * 0.5
				return t
			})
		case 3:
			op = spl.NewTokenize(fmt.Sprintf("tk%d", i))
		case 4:
			op = spl.NewExpand(fmt.Sprintf("x%d", i), int(spec[i]%3)+1)
		case 5:
			op = spl.NewSample(fmt.Sprintf("s%d", i), int(spec[i]%4)+1)
		}
		id := g.AddOperator(op, nil)
		if err := g.Connect(prev, 0, id, 0, 1); err != nil {
			tb.Fatal(err)
		}
		prev = id
	}
	sink := &captureSink{}
	sid := g.AddOperator(sink, nil)
	if err := g.Connect(prev, 0, sid, 0, 1); err != nil {
		tb.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		tb.Fatal(err)
	}
	return g, sink
}

// equivRun is what one synchronous harness run leaves behind; the compiled
// path and the interpreted oracle must agree on every field but fused.
type equivRun struct {
	rows   []string
	panics uint64
	sinks  uint64
	sup    SupervisionStats
	log    []byte
	fused  uint64
}

// armFaults returns a fresh injector armed from the fuzz byte fb for a chain
// of n operators plus the sink (nodes 1..n+1), or nil when fb is 0: OpPanic
// at one fb-chosen step — every k-th tuple, or only the k-th when fb's high
// bit is set — and a zero-delay OpSlow every third tuple at every step, so
// the fire log pins which tuple reached which step in what order.
func armFaults(fb byte, n int) *fault.Injector {
	if fb == 0 {
		return nil
	}
	inj := fault.New(int64(fb))
	k := uint64(fb>>3&15) + 2
	plan := fault.Plan{EveryN: k}
	if fb&0x80 != 0 {
		plan = fault.Plan{Nth: k}
	}
	inj.Arm(fault.OpPanic, 1+int(fb)%(n+1), plan)
	for node := 1; node <= n+1; node++ {
		inj.Arm(fault.OpSlow, node, fault.Plan{EveryN: 3})
	}
	return inj
}

// newEquivEngine builds the harness engine for a chain: faults armed from
// fb, and supervision with an hour-long quarantine so an engaged quarantine
// never expires mid-run and drops are a function of the input alone.
func newEquivEngine(tb testing.TB, spec []byte, tuples uint64, srcBatch int, fb byte) (*Engine, *captureSink, *fault.Injector) {
	tb.Helper()
	g, sink := chainFromSpec(tb, spec, tuples, srcBatch)
	inj := armFaults(fb, g.NumNodes()-2)
	e, err := New(g, Options{Fault: inj, PanicBudget: 3, QuarantineBase: time.Hour, PanicDecay: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	return e, sink, inj
}

// equivResult collects an equivRun after the harness drove the stream
// through.
func (e *Engine) equivResult(sink *captureSink, inj *fault.Injector) equivRun {
	return equivRun{
		rows:   sink.rows,
		panics: e.OperatorPanics(),
		sinks:  e.SinkCount(),
		sup:    e.Supervision(),
		log:    inj.LogBytes(),
		fused:  e.SchedStats().FusedTuples,
	}
}

// runSourceHead drives the chain synchronously as a source-headed region:
// all-manual placement, the generator's batches captured and flushed
// through the compiled program (or delivered inline on the interpreted
// path), exactly mirroring sourceLoop.
func runSourceHead(tb testing.TB, spec []byte, tuples uint64, srcBatch int, fb byte, scalar bool) equivRun {
	tb.Helper()
	e, sink, inj := newEquivEngine(tb, spec, tuples, srcBatch, fb)
	if scalar {
		interpret(e)
	}
	cfg := e.cfg.Load()
	em := e.newEmitter(e.reconfigTS)
	em.cfg = cfg
	if cfg.progs != nil {
		em.srcProg = cfg.progs[0]
	}
	gen := e.g.Node(0).Op.(spl.Source)
	for {
		em.node = 0
		more := gen.Next(em)
		if len(em.srcBuf) > 0 {
			e.flushSource(em)
		}
		if !more {
			break
		}
	}
	return e.equivResult(sink, inj)
}

// runQueueHead drives the chain synchronously as a queue-headed region: a
// scheduler queue in front of the first operator, drained with batch pops
// through executeBatch — the worker-loop shape.
func runQueueHead(tb testing.TB, spec []byte, tuples uint64, srcBatch int, fb byte, scalar bool) equivRun {
	tb.Helper()
	e, sink, inj := newEquivEngine(tb, spec, tuples, srcBatch, fb)
	place := make([]bool, e.g.NumNodes())
	place[1] = true
	if err := e.ApplyPlacement(place); err != nil {
		tb.Fatal(err)
	}
	if scalar {
		interpret(e)
	}
	cfg := e.cfg.Load()
	em := e.newEmitter(e.reconfigTS)
	em.cfg = cfg
	gen := e.g.Node(0).Op.(spl.Source)
	q := cfg.queues[1]
	batch := make([]item, workerBatch)
	for {
		em.node = 0
		more := gen.Next(em)
		for {
			k := q.TryPopN(batch)
			if k == 0 {
				break
			}
			e.executeBatch(em, 1, batch[:k])
		}
		if !more {
			break
		}
	}
	return e.equivResult(sink, inj)
}

// checkEquivalence runs one input through both region shapes, compiled and
// interpreted, and requires byte-identical sink rows and fault logs and equal
// panic, sink and supervision counts.
func checkEquivalence(t *testing.T, spec []byte, n, batch, fb byte) {
	t.Helper()
	tuples := uint64(n%64) + 1
	srcBatch := int(batch%16) + 1
	for _, shape := range []struct {
		name string
		run  func(testing.TB, []byte, uint64, int, byte, bool) equivRun
	}{
		{"source-head", runSourceHead},
		{"queue-head", runQueueHead},
	} {
		fused := shape.run(t, spec, tuples, srcBatch, fb, false)
		scalar := shape.run(t, spec, tuples, srcBatch, fb, true)
		where := fmt.Sprintf("%s (spec=%v tuples=%d batch=%d faults=%#x)", shape.name, spec, tuples, srcBatch, fb)
		if fused.fused == 0 || scalar.fused != 0 {
			t.Fatalf("%s: compiled run moved %d tuples through programs, interpreted run %d", where, fused.fused, scalar.fused)
		}
		if len(fused.rows) != len(scalar.rows) {
			t.Fatalf("%s: fused emitted %d rows, scalar %d", where, len(fused.rows), len(scalar.rows))
		}
		for i := range fused.rows {
			if fused.rows[i] != scalar.rows[i] {
				t.Fatalf("%s: row %d differs:\nfused:  %s\nscalar: %s", where, i, fused.rows[i], scalar.rows[i])
			}
		}
		if fused.panics != scalar.panics || fused.sinks != scalar.sinks || fused.sup != scalar.sup {
			t.Fatalf("%s: fused panics=%d sinks=%d %+v, scalar panics=%d sinks=%d %+v", where,
				fused.panics, fused.sinks, fused.sup, scalar.panics, scalar.sinks, scalar.sup)
		}
		if !bytes.Equal(fused.log, scalar.log) {
			t.Fatalf("%s: fault logs differ:\nfused:\n%sscalar:\n%s", where, fused.log, scalar.log)
		}
	}
}

// FuzzBatchEquivalence is the compiled path's correctness oracle: for a
// random operator chain, input stream and fault plan (see armFaults), the
// batch-compiled execution must produce byte-identical output — same tuple
// values, same count, same order at the sink — as the interpreted
// tuple-at-a-time path, fire the same fault events, and lose the same
// tuples, in both region shapes (source-headed and queue-headed).
func FuzzBatchEquivalence(f *testing.F) {
	for _, s := range equivSeeds {
		f.Add(s.spec, s.n, s.batch, s.faults)
	}
	f.Fuzz(func(t *testing.T, spec []byte, n, batch, faults uint8) {
		checkEquivalence(t, spec, n, batch, faults)
	})
}

// equivSeeds is FuzzBatchEquivalence's seed corpus.
var equivSeeds = []struct {
	spec             []byte
	n, batch, faults uint8
}{
	{[]byte{0}, 10, 1, 0},
	{[]byte{0, 2, 1}, 40, 8, 0x11},
	{[]byte{3, 4, 5}, 25, 4, 0x2a},
	{[]byte{1, 1, 1, 1, 1, 1}, 64, 16, 0x93},
	{[]byte{4, 4, 2}, 12, 3, 0x07},
	{[]byte{5, 3, 0, 2}, 50, 7, 0xc4},
	{[]byte{}, 5, 2, 0x09},
	{[]byte{4, 0, 3, 1}, 63, 5, 0x02},
}

// TestBatchEquivalenceSeeds runs the fuzz seed corpus as a plain test so
// `go test` covers the equivalence oracle without -fuzz.
func TestBatchEquivalenceSeeds(t *testing.T) {
	for _, s := range equivSeeds {
		checkEquivalence(t, s.spec, s.n, s.batch, s.faults)
	}
}
