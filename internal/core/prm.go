package core

import (
	"parmp/internal/cspace"
	"parmp/internal/prm"
	"parmp/internal/region"
	"parmp/internal/sched"
)

// PRMResult is the outcome of a parallel PRM run.
type PRMResult struct {
	Roadmap     *prm.Roadmap
	RegionGraph *region.Graph
	Phases      PhaseBreakdown
	// TotalTime is the virtual makespan of the whole pipeline.
	TotalTime float64
	// ProcStats is the construction-phase execution profile.
	ProcStats []sched.WorkerStats
	// PhaseReports holds every phase's virtual-time runtime report, in
	// replay order, so per-phase load-balance metrics (internal/obsv)
	// derive from a finished run without re-executing it.
	PhaseReports []PhaseReport
	// NodeLoads[p] counts roadmap nodes on processor p after the run —
	// the paper's load-profile quantity (Fig. 5(c)).
	NodeLoads []float64
	// CVBefore/CVAfter are the node-count coefficients of variation under
	// the naive partition and the final ownership (Fig. 5(b)).
	CVBefore, CVAfter float64
	// Remote-access accounting for the region-connection phase
	// (Fig. 7(b)): RegionRemote counts region-graph edges crossing
	// processors; RoadmapRemote counts cross-processor roadmap accesses.
	RegionRemote, RoadmapRemote int
	EdgeCut                     int
	// MigratedRegions counts ownership transfers due to repartitioning;
	// DiffusedRegions those due to the between-rounds diffusive rebalance
	// (Options.Rebalance).
	MigratedRegions int
	DiffusedRegions int
	// RegionCosts[i] summarizes region i's observed construct-phase task
	// costs over all committed rounds (count/sum/max; see RegionCost).
	// The bounded replacement for the per-task records the retained
	// PhaseReports drop.
	RegionCosts []RegionCost
	// Repairs summarizes the incremental-repair work committed by
	// ApplyDelta calls (zero while the world never mutates).
	Repairs RepairStats
}

// prmRegionData memoizes per-region planning output.
type prmRegionData struct {
	nodes       []prm.Node
	sampleWork  cspace.Counters
	edges       [][2]int
	connectWork cspace.Counters
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
