package pe

import (
	"fmt"

	"streamelastic/internal/graph"
	"streamelastic/internal/spl"
)

// Assignment maps every node of a job graph to a PE index. PE indices must
// be dense, starting at 0.
type Assignment []int

// StreamEnd references one endpoint of a cross-PE stream inside a PE plan.
type StreamEnd struct {
	// Stream is the cross-edge stream id, shared by the matching export
	// and import ends.
	Stream int
	// Local is the node id of the export operator or import source inside
	// the PE's graph.
	Local graph.NodeID
}

// CrossEdge is an edge of the job graph whose endpoints live in different
// PEs; it becomes a TCP stream at launch.
type CrossEdge struct {
	Stream   int
	FromPE   int
	ToPE     int
	From     graph.NodeID // global ids in the job graph
	FromPort int
	To       graph.NodeID
	ToPort   int
}

// Plan is one PE's slice of the job graph: the local subgraph plus the
// import/export stubs standing in for cross-PE streams.
type Plan struct {
	// PE is this plan's index.
	PE int
	// Graph is the local operator graph, finalized.
	Graph *graph.Graph
	// LocalOf maps global node ids to local ids (-1 when the node lives in
	// another PE).
	LocalOf []graph.NodeID
	// Imports and Exports list this PE's stream endpoints.
	Imports []StreamEnd
	Exports []StreamEnd

	imports []*importSource
	exports []*exportOp
}

// Partition splits a finalized job graph across PEs according to assign.
// Every cross-PE edge gets an export operator in the sender PE and an
// import source in the receiver PE; at launch each pair is connected by a
// TCP stream.
func Partition(g *graph.Graph, assign Assignment) ([]*Plan, []CrossEdge, error) {
	if !g.Finalized() {
		return nil, nil, fmt.Errorf("pe: job graph not finalized")
	}
	n := g.NumNodes()
	if len(assign) != n {
		return nil, nil, fmt.Errorf("pe: assignment covers %d nodes, graph has %d", len(assign), n)
	}
	numPE := 0
	for i, p := range assign {
		if p < 0 {
			return nil, nil, fmt.Errorf("pe: node %d assigned to negative PE %d", i, p)
		}
		if p+1 > numPE {
			numPE = p + 1
		}
	}
	seen := make([]bool, numPE)
	for _, p := range assign {
		seen[p] = true
	}
	for p, ok := range seen {
		if !ok {
			return nil, nil, fmt.Errorf("pe: PE %d has no operators (indices must be dense)", p)
		}
	}

	plans := make([]*Plan, numPE)
	for p := range plans {
		plans[p] = &Plan{
			PE:      p,
			Graph:   graph.New(),
			LocalOf: make([]graph.NodeID, n),
		}
		for i := range plans[p].LocalOf {
			plans[p].LocalOf[i] = -1
		}
	}

	// Nodes, in global id order so local ids are deterministic.
	for i := 0; i < n; i++ {
		nd := g.Node(graph.NodeID(i))
		plan := plans[assign[i]]
		var local graph.NodeID
		if nd.Source {
			local = plan.Graph.AddSource(nd.Op, nd.Cost)
		} else {
			local = plan.Graph.AddOperator(nd.Op, nd.Cost)
		}
		if nd.Contended {
			plan.Graph.SetContended(local)
		}
		plan.LocalOf[i] = local
	}

	// Edges: intra-PE edges copy through; cross edges become export/import
	// stubs.
	var crosses []CrossEdge
	for i := 0; i < n; i++ {
		for _, e := range g.Node(graph.NodeID(i)).Out {
			fromPE, toPE := assign[e.From], assign[e.To]
			if fromPE == toPE {
				plan := plans[fromPE]
				err := plan.Graph.Connect(plan.LocalOf[e.From], e.FromPort, plan.LocalOf[e.To], e.ToPort, e.RateFactor)
				if err != nil {
					return nil, nil, fmt.Errorf("pe %d: %w", fromPE, err)
				}
				continue
			}
			stream := len(crosses)
			crosses = append(crosses, CrossEdge{
				Stream: stream, FromPE: fromPE, ToPE: toPE,
				From: e.From, FromPort: e.FromPort, To: e.To, ToPort: e.ToPort,
			})

			sender := plans[fromPE]
			exp := newExportOp(fmt.Sprintf("export-s%d", stream))
			expID := sender.Graph.AddOperator(exp, spl.NewCostVar(exportFLOPs))
			if err := sender.Graph.Connect(sender.LocalOf[e.From], e.FromPort, expID, 0, e.RateFactor); err != nil {
				return nil, nil, fmt.Errorf("pe %d export: %w", fromPE, err)
			}
			sender.Exports = append(sender.Exports, StreamEnd{Stream: stream, Local: expID})
			sender.exports = append(sender.exports, exp)

			receiver := plans[toPE]
			imp := newImportSource(fmt.Sprintf("import-s%d", stream))
			impID := receiver.Graph.AddSource(imp, spl.NewCostVar(importFLOPs))
			if err := receiver.Graph.Connect(impID, 0, receiver.LocalOf[e.To], e.ToPort, 1); err != nil {
				return nil, nil, fmt.Errorf("pe %d import: %w", toPE, err)
			}
			receiver.Imports = append(receiver.Imports, StreamEnd{Stream: stream, Local: impID})
			receiver.imports = append(receiver.imports, imp)
		}
	}

	for p, plan := range plans {
		if err := plan.Graph.Finalize(); err != nil {
			return nil, nil, fmt.Errorf("pe %d graph: %w", p, err)
		}
	}
	return plans, crosses, nil
}

// Cost hints for the transport stubs: serialization work per tuple.
const (
	exportFLOPs = 300
	importFLOPs = 300
)

// AssignContiguous splits the graph's topological order into numPE
// contiguous slices of roughly equal size — a simple placement that keeps
// pipeline neighbours together and cross-PE streams few.
func AssignContiguous(g *graph.Graph, numPE int) (Assignment, error) {
	if !g.Finalized() {
		return nil, fmt.Errorf("pe: graph not finalized")
	}
	n := g.NumNodes()
	if numPE < 1 || numPE > n {
		return nil, fmt.Errorf("pe: cannot split %d nodes across %d PEs", n, numPE)
	}
	assign := make(Assignment, n)
	topo := g.Topo()
	for i, id := range topo {
		p := i * numPE / n
		assign[id] = p
	}
	return assign, nil
}
