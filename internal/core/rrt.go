package core

import (
	"parmp/internal/cspace"
	"parmp/internal/region"
	"parmp/internal/rrt"
)

// RRTResult is the outcome of a parallel radial RRT run: the shared
// run-stats header plus the branches and their connections.
type RRTResult struct {
	RunStats
	// Branches holds each region's grown subtree, indexed by region ID.
	Branches []*rrt.Tree
	// Bridges are successful cross-region connections (regionA, nodeA,
	// regionB, nodeB). Bridges that would close a cycle in the
	// region-level tree are pruned (Algorithm 2, lines 15-17).
	Bridges [][4]int
	// PrunedCycles counts bridge candidates discarded to keep the
	// region-level structure a tree.
	PrunedCycles int
	// Rewires counts RRT* parent improvements (0 for plain RRT).
	Rewires int
	// TreesMet counts regions whose RRT-Connect tree pairs have bridged
	// (0 for single-tree RRT).
	TreesMet int
	// GoalConnected reports that the region containing the goal rooted
	// its goal-side tree at the goal configuration and that pair met —
	// i.e. the merged forest contains a path from the root to the exact
	// goal (RRT-Connect only).
	GoalConnected bool
	// WeightActualCorr is the Pearson correlation between the k-ray
	// weight estimate and the measured branch cost — the paper's evidence
	// that the estimator is poor (only populated when Strategy is
	// Repartition).
	WeightActualCorr float64
}

// TotalNodes sums the nodes of all branches.
func (r *RRTResult) TotalNodes() int {
	total := 0
	for _, t := range r.Branches {
		if t != nil {
			total += t.Len()
		}
	}
	return total
}

// ParallelRRT runs the uniform radial subdivision parallel RRT
// (Algorithm 2) rooted at root with the configured load balancing. Like
// ParallelPRM it is a phase pipeline over the scheduler runtime: weight,
// repartition, branch growth (stealable) and branch connection all
// execute through the runtime, sharing the PRM pipeline's skeleton.
//
// ParallelRRT is exactly one growth round of NewRRTEngine's engine;
// long-lived callers that want to keep extending the same branches (or
// cancel mid-build) should construct the engine directly.
func ParallelRRT(s *cspace.Space, root cspace.Config, opts Options) (*RRTResult, error) {
	eng, err := NewRRTEngine(s, root, opts)
	if err != nil {
		return nil, err
	}
	if err := eng.GrowRound(nil); err != nil {
		return nil, err
	}
	return eng.Result(), nil
}

// assignContiguous partitions regions into equal-count contiguous chunks
// of a BFS sweep over the region graph.
func assignContiguous(rg *region.Graph, procs int) {
	n := rg.NumRegions()
	order := make([]int, 0, n)
	seen := make([]bool, n)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		queue := []int{start}
		seen[start] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			order = append(order, cur)
			for _, nb := range rg.Adjacent(cur) {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	for rank, ri := range order {
		owner := rank * procs / n
		if owner >= procs {
			owner = procs - 1
		}
		rg.Owner[ri] = owner
	}
}
