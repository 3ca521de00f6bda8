// Package streamelastic is a stream-processing runtime with multi-level
// performance elasticity, reproducing "Automating Multi-level Performance
// Elastic Components for IBM Streams" (Ni, Schneider, Pavuluri, Kaus, Wu —
// Middleware '19).
//
// Applications are operator graphs: sources emit tuples, operators process
// and forward them, streams connect ports. The runtime executes a graph
// under two threading models — manual (downstream operators run inline on
// the emitting thread) and dynamic (a scheduler queue is placed in front of
// an operator and a pool of scheduler threads executes it) — and adapts two
// dimensions online without user input:
//
//   - threading-model elasticity chooses, per operator, whether a scheduler
//     queue is worth its copy and synchronization overhead, using a sampled
//     cost profile, logarithmic cost groups, and a trend-guided search;
//   - thread-count elasticity sizes the scheduler pool.
//
// A coordinator runs the two interfering components as primary (thread
// count) and secondary (threading model) adjustments, with
// learning-from-history and satisfaction-factor optimizations that shorten
// the adaptation period, and with SASO guarantees: stability, accuracy,
// short settling time, no overshoot.
//
// Build a Topology, then either run it live on goroutines:
//
//	top := streamelastic.NewTopology()
//	src := top.AddSource(streamelastic.NewGenerator("src", 1024), 0)
//	work := top.AddOperator(streamelastic.NewWorkOp("work", 5000), 5000)
//	sink := top.AddOperator(streamelastic.NewCountingSink("sink"), 0)
//	_ = top.Connect(src, 0, work, 0)
//	_ = top.Connect(work, 0, sink, 0)
//	rt, _ := streamelastic.NewRuntime(top, streamelastic.RuntimeOptions{})
//	_ = rt.Start(ctx)
//	defer rt.Stop()
//
// or adapt it on a simulated machine, which replays hours of adaptation on
// hundreds of virtual cores in milliseconds:
//
//	s, _ := streamelastic.NewSimulation(top, streamelastic.Xeon176(),
//		streamelastic.SimOptions{PayloadBytes: 1024})
//	_, _ = s.RunUntilSettled(2000)
//
// A Runtime is a Job with one processing element: NewJob splits the same
// graph across several TCP-connected PEs, each running the same engine and
// elastic coordinator independently.
package streamelastic
