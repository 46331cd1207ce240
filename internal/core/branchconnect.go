package core

import (
	"parmp/internal/cspace"
	"parmp/internal/graph"
	"parmp/internal/region"
	"parmp/internal/rrt"
)

// branchConnectOutcome is the branch-connection phase's product: the
// round's new cycle-free bridges, how many candidates were pruned, how
// many attempts crossed processors, and the phase's virtual makespan.
type branchConnectOutcome struct {
	newBridges   [][4]int
	newPruned    int
	regionRemote int
	makespan     float64
	stopped      bool
}

// runBranchConnect executes the tree planners' shared branch-connection
// phase: for every adjacent region pair, attempt a bridge between the
// two branches (host-concurrent, then replayed in virtual time on the
// pair's owner), and keep only bridges that merge distinct components
// of the committed region-level tree ("if any edge connection creates a
// cycle, the tree is pruned so as to remove the cycle"). The union-find
// is rebuilt from committedBridges each round, so an aborted round
// costs nothing to undo.
func runBranchConnect(pl *pipeline, rg *region.Graph, s *cspace.Space, opts Options,
	branches []*rrt.Tree, committedBridges [][4]int) branchConnectOutcome {

	var pairs [][2]int
	rg.ForEachAdjacentPair(func(a, b int) { pairs = append(pairs, [2]int{a, b}) })
	type connResult struct {
		ia, ib int
		ok     bool
	}
	conns := make([]connResult, len(pairs))
	var out branchConnectOutcome
	makespan, stopped := pl.runPriced("region-connect", len(pairs), func(idx int) float64 {
		a, b := pairs[idx][0], pairs[idx][1]
		var c cspace.Counters
		ia, ib, ok := rrt.Connect(s, branches[a], branches[b], region.ConeTarget(rg.Region(b)), 3, &c)
		conns[idx] = connResult{ia: ia, ib: ib, ok: ok}
		return opts.Cost.Time(c)
	}, func(idx int, cost float64) (int, float64) {
		ownerA, ownerB := rg.Owner[pairs[idx][0]], rg.Owner[pairs[idx][1]]
		if ownerA != ownerB {
			out.regionRemote++
			return ownerA, cost + opts.Profile.RemoteAccess
		}
		return ownerA, cost + opts.Profile.LocalAccess
	})
	if stopped {
		return branchConnectOutcome{stopped: true}
	}
	out.makespan = makespan
	uf := graph.NewUnionFind(rg.NumRegions())
	for _, br := range committedBridges {
		uf.Union(br[0], br[2])
	}
	for idx, c := range conns {
		if !c.ok {
			continue
		}
		a, b := pairs[idx][0], pairs[idx][1]
		if uf.Union(a, b) {
			out.newBridges = append(out.newBridges, [4]int{a, c.ia, b, c.ib})
		} else {
			out.newPruned++
		}
	}
	return out
}
