package core

import (
	"parmp/internal/cspace"
	"parmp/internal/prm"
)

// PRMResult is the outcome of a parallel PRM run: the shared run-stats
// header plus the roadmap.
type PRMResult struct {
	RunStats
	Roadmap *prm.Roadmap
	// RoadmapRemote counts the region-connection phase's cross-processor
	// roadmap accesses (Fig. 7(b)).
	RoadmapRemote int
}

// prmRegionData is one region's committed nodes and local edges.
type prmRegionData struct {
	nodes []prm.Node
	edges [][2]int
}

// ParallelPRM runs the uniform-subdivision parallel PRM (Algorithm 1)
// with the configured load-balancing strategy on space s. Every phase —
// sample, weight, repartition, construct (node connection), region
// connection, merge — executes through the scheduler runtime pipeline,
// so heavy phases parallelize on the host (Options.HostWorkers) while
// the virtual-time accounting stays deterministic.
//
// ParallelPRM is exactly one growth round of a PRMEngine; long-lived
// callers that want to keep growing the same roadmap (or cancel
// mid-build) should construct the engine directly.
func ParallelPRM(s *cspace.Space, opts Options) (*PRMResult, error) {
	eng, err := NewPRMEngine(s, opts)
	if err != nil {
		return nil, err
	}
	if err := eng.GrowRound(nil); err != nil {
		return nil, err
	}
	return eng.Result(), nil
}

// boundaryEdge records cross-region connections for the merge step.
type boundaryEdge struct {
	a, b  int
	pairs [][2]int
}
