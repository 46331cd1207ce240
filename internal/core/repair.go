package core

import (
	"sort"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/prm"
	"parmp/internal/work"
)

// saltRepair keeps the repair phase's victim randomization independent
// of the construct phases'.
const saltRepair = 0x6b1d

// repairGraftK is how many surviving neighbours a severed RRT subtree
// frontier tries to regraft to.
const repairGraftK = 4

// RepairStats summarizes the incremental-repair work an engine has
// committed across ApplyDelta calls.
type RepairStats struct {
	// Deltas counts committed ApplyDelta calls.
	Deltas int
	// CheckedNodes / CheckedEdges count the collision re-checks actually
	// paid (conservative culling makes everything else free).
	CheckedNodes, CheckedEdges int
	// RemovedNodes / RemovedEdges count roadmap vertices / edges (or
	// tree nodes / bridges) invalidated by the deltas.
	RemovedNodes, RemovedEdges int
	// Grafted counts severed RRT subtrees saved by regrafting.
	Grafted int
	// Makespan is the cumulative virtual time of the repair phases.
	Makespan float64
	Work     cspace.Counters
}

// Add folds b into a.
func (a *RepairStats) Add(b RepairStats) {
	a.Deltas += b.Deltas
	a.CheckedNodes += b.CheckedNodes
	a.CheckedEdges += b.CheckedEdges
	a.RemovedNodes += b.RemovedNodes
	a.RemovedEdges += b.RemovedEdges
	a.Grafted += b.Grafted
	a.Makespan += b.Makespan
	a.Work.Add(b.Work)
}

// PRMRepair is the outcome of one PRMEngine.ApplyDelta.
type PRMRepair struct {
	Stats RepairStats
	// VertexRemap maps pre-repair merged-roadmap vertex ids to their
	// post-repair ids (-1 = removed). Nil means identity (nothing could
	// have been invalidated).
	VertexRemap []int
	// TouchedVertices lists pre-repair vertex ids belonging to connected
	// components that lost a vertex or an edge — the components whose
	// labels a scoped relabel must recompute (prm.RepairIndex).
	TouchedVertices []int
}

// RRTRepair is the outcome of one ApplyDelta on a tree engine.
type RRTRepair struct {
	Stats RepairStats
	// BranchRemaps[i] maps region i's pre-repair branch node ids to
	// post-repair ids (-1 = pruned). Under RRT-Connect the ids are into
	// the merged, root-anchored branch (what snapshots index). A nil
	// entry is the identity.
	BranchRemaps [][]int
	// RemovedBridges counts cross-region bridges dropped because an
	// endpoint died or the bridging edge is now blocked.
	RemovedBridges int
}

// ApplyDelta incrementally repairs the engine's committed roadmap
// against an environment mutation, between growth rounds: every
// region's nodes and local edges re-validate against only the delta
// (conservatively culled), then boundary edges, and the survivors are
// compacted in place. s is the engine's space re-bound to the mutated
// environment (cspace.Space.WithEnv on a mutated clone — the old space,
// and any snapshot holding it, must stay unchanged); future GrowRound
// calls sample the new world.
//
// candidates, when non-nil, lists the only merged-roadmap vertex ids
// whose validity the delta can have changed, sorted ascending — the
// product of a kd radius query over a committed snapshot's index
// (prm.Index.AffectedVertices). Nil falls back to screening every node
// through the checker's geometric cull.
//
// Repair tasks run through the same phase pipeline as construction —
// region-tagged, stealable, virtually timed — so the repair load
// (concentrated around the mutated obstacle, the paper's skewed-
// workload shape) is balanced like any other phase. Cancellation
// matches GrowRound: on a fired stop channel ApplyDelta returns
// ErrStopped and the committed state, the cost model and the published
// result are untouched.
func (e *PRMEngine) ApplyDelta(s *cspace.Space, d env.Delta, candidates []int, stop <-chan struct{}) (*PRMRepair, error) {
	opts := e.opts
	pl := e.pl
	rg := e.rg
	n := rg.NumRegions()

	rp := e.beginRepair(stop, d)
	defer rp.end()
	if rp.dc == nil {
		// Removal-only (or empty) delta: nothing to re-check. The world
		// still changes — future sampling sees the freed space.
		e.publishRepair(s, rp.stats)
		return &PRMRepair{Stats: rp.stats}, nil
	}

	// Split the global candidate list into per-region local indices
	// using the merged-roadmap base offsets (mergeRoadmap order).
	base := make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		base[i] = total
		total += len(e.data[i].nodes)
	}
	var localCand [][]int
	if candidates != nil {
		localCand = make([][]int, n)
		ri := 0
		for _, c := range candidates {
			for ri < n-1 && c >= base[ri]+len(e.data[ri].nodes) {
				ri++
			}
			localCand[ri] = append(localCand[ri], c-base[ri])
		}
	}

	// --- Repair phase.
	rrs := make([]prm.RegionRepair, n)
	if _, ok := e.runRepair(rp, func(i int) work.Task {
		return work.Task{
			ID:      i,
			Payload: len(e.data[i].nodes),
			Run: func() (float64, int) {
				var cand []int
				if localCand != nil {
					cand = localCand[i]
					if cand == nil {
						cand = []int{} // non-nil empty: nothing to re-check here
					}
				}
				rrs[i] = prm.RevalidateRegion(rp.dc, e.data[i].nodes, e.data[i].edges, cand)
				return opts.Cost.Time(rrs[i].Work), len(e.data[i].nodes)
			},
		}
	}); !ok {
		return nil, rp.abort()
	}

	// --- Boundary-edge revalidation: an edge between two regions can
	// cross the delta even when both regions' own repair was empty.
	type boundaryRepair struct {
		keep             []bool
		checked, removed int
		work             cspace.Counters
	}
	brs := make([]boundaryRepair, len(e.boundary))
	bmakespan, stopped := pl.runPriced("repair-boundary", len(e.boundary), func(idx int) float64 {
		be := e.boundary[idx]
		br := boundaryRepair{keep: make([]bool, len(be.pairs))}
		for k, pr := range be.pairs {
			if !rrs[be.a].Alive[pr[0]] || !rrs[be.b].Alive[pr[1]] {
				br.removed++
				continue
			}
			qa := e.data[be.a].nodes[pr[0]].Q
			qb := e.data[be.b].nodes[pr[1]].Q
			if !rp.dc.EdgeAffected(qa, qb) {
				br.keep[k] = true
				continue
			}
			br.checked++
			if rp.dc.EdgeStillFree(qa, qb, &br.work) {
				br.keep[k] = true
			} else {
				br.removed++
			}
		}
		brs[idx] = br
		return opts.Cost.Time(br.work)
	}, func(idx int, cost float64) (int, float64) { return rg.Owner[e.boundary[idx].a], cost })
	if stopped {
		return nil, rp.abort()
	}
	st := &rp.stats
	st.Makespan += bmakespan + pl.barrier()

	// --- Commit: compact every region's data, remap boundary pairs,
	// rebuild the merged roadmap. Nothing above mutated committed state.
	touched := map[int]bool{}
	remaps := make([][]int, n)
	for i := 0; i < n; i++ {
		rr := rrs[i]
		st.CheckedNodes += rr.CheckedNodes
		st.CheckedEdges += rr.CheckedEdges
		st.RemovedNodes += rr.DeadNodes
		st.RemovedEdges += rr.DeadEdges
		st.Work.Add(rr.Work)

		remap := make([]int, len(e.data[i].nodes))
		w := 0
		for l := range e.data[i].nodes {
			if rr.Alive[l] {
				remap[l] = w
				e.data[i].nodes[w] = e.data[i].nodes[l]
				w++
			} else {
				remap[l] = -1
				touched[base[i]+l] = true
			}
		}
		e.data[i].nodes = e.data[i].nodes[:w]
		remaps[i] = remap

		we := 0
		for j, ed := range e.data[i].edges {
			if !rr.KeepEdge[j] {
				// A blocked edge with both endpoints alive splits work
				// onto its component; dead endpoints are touched already.
				if rr.Alive[ed[0]] && rr.Alive[ed[1]] {
					touched[base[i]+ed[0]] = true
				}
				continue
			}
			e.data[i].edges[we] = [2]int{remap[ed[0]], remap[ed[1]]}
			we++
		}
		e.data[i].edges = e.data[i].edges[:we]
	}
	newBoundary := e.boundary[:0]
	for idx, be := range e.boundary {
		br := brs[idx]
		st.CheckedEdges += br.checked
		st.RemovedEdges += br.removed
		st.Work.Add(br.work)
		pairs := be.pairs[:0]
		for k, pr := range be.pairs {
			if br.keep[k] {
				pairs = append(pairs, [2]int{remaps[be.a][pr[0]], remaps[be.b][pr[1]]})
			} else if rrs[be.a].Alive[pr[0]] && rrs[be.b].Alive[pr[1]] {
				touched[base[be.a]+pr[0]] = true
			}
		}
		if len(pairs) > 0 {
			newBoundary = append(newBoundary, boundaryEdge{a: be.a, b: be.b, pairs: pairs})
		}
	}
	e.boundary = newBoundary

	out := &PRMRepair{VertexRemap: make([]int, total)}
	newBase := 0
	for i := 0; i < n; i++ {
		for l, nw := range remaps[i] {
			if nw >= 0 {
				out.VertexRemap[base[i]+l] = newBase + nw
			} else {
				out.VertexRemap[base[i]+l] = -1
			}
		}
		newBase += len(e.data[i].nodes)
	}
	for v := range touched {
		out.TouchedVertices = append(out.TouchedVertices, v)
	}
	sort.Ints(out.TouchedVertices)

	out.Stats = *st
	e.publishRepair(s, out.Stats)
	return out, nil
}

// publishRepair commits one repair pass and publishes a fresh result
// over the repaired data (same immutability contract as GrowRound's
// commit).
func (e *PRMEngine) publishRepair(s *cspace.Space, st RepairStats) {
	res := *e.res
	e.commitRepair(s, &res.RunStats, st, e.regionNodes)
	res.Roadmap = e.mergeRoadmap()
	e.res = &res
}
