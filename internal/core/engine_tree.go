package core

import (
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/metrics"
	"parmp/internal/region"
	"parmp/internal/repart"
	"parmp/internal/rng"
	"parmp/internal/rrt"
	"parmp/internal/work"
)

// TreeEngine grows the radial-subdivision parallel tree planners
// incrementally. Every GrowRound runs the paper's Algorithm 2 pipeline —
// k-ray weight, repartition, stealable region growth, then branch
// connection with cycle pruning — over the same region graph, cone
// geometry and ownership state. Only the region growth task depends on
// the growth variant:
//
//   - plain RRT extends one branch per cone (NewRRTEngine);
//   - RRT* extends it with choose-parent and rewiring (Options.Star);
//   - RRT-Connect grows a root-side and a goal-side tree per cone that
//     greedily connect; a met pair's merged, root-anchored branch joins
//     the branch connection like any other (NewRRTConnectEngine).
//
// The one-shot ParallelRRT and ParallelRRTConnect are exactly one round.
//
// A TreeEngine is not safe for concurrent use; the serving layer
// (package parmp) serializes growth and publishes immutable snapshots.
type TreeEngine struct {
	engineBase
	root   cspace.Config
	goal   cspace.Config // RRT-Connect's goal; nil selects a single-tree variant
	params rrt.Params
	// salt seeds the construct phase's victim randomization; each variant
	// keeps its own so the virtual times match the one-shot planners.
	salt uint64

	// Committed growth state, one slot per region (nil until the
	// region's first committed round). Only the variant's slice is used.
	trees     []*rrt.Tree     // plain RRT
	starTrees []*rrt.StarTree // RRT*
	bis       []*rrt.BiTree   // RRT-Connect tree pairs
	// nodes[i] is region i's committed node count (both trees of an
	// RRT-Connect pair) — the per-vertex migration payload.
	nodes []int
	// bridges and prunedCycles accumulate the committed branch
	// connections; the per-round union-find is rebuilt from bridges.
	bridges      [][4]int
	prunedCycles int

	res *RRTResult // last committed cumulative result
}

// NewRRTEngine validates opts and builds the radial subdivision about
// root for plain RRT, or RRT* when opts.Star is set. No planning work
// happens until GrowRound.
func NewRRTEngine(s *cspace.Space, root cspace.Config, opts Options) (*TreeEngine, error) {
	e, err := newTreeEngine(s, root, opts, saltRRTConstruct)
	if err != nil {
		return nil, err
	}
	if e.opts.Star {
		e.starTrees = make([]*rrt.StarTree, e.rg.NumRegions())
	} else {
		e.trees = make([]*rrt.Tree, e.rg.NumRegions())
	}
	return e, nil
}

// newTreeEngine is the variant-independent part of the constructors.
func newTreeEngine(s *cspace.Space, root cspace.Config, opts Options, salt uint64) (*TreeEngine, error) {
	opts = opts.Defaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	apex := root.Clone()
	setupRNG := rng.Derive(opts.Seed, 0xabcdef)
	rg := region.RadialSubdivision(apex, region.RadialSpec{
		Regions:      opts.Regions,
		K:            opts.RegionK,
		Radius:       opts.Radius,
		OverlapAngle: opts.Overlap,
	}, setupRNG)
	// The naive mapping groups spatially adjacent cones on the same
	// processor (contiguous blocks of a BFS sweep over the region graph),
	// mirroring the paper's mesh-aligned distribution.
	assignContiguous(rg, opts.Procs)
	return &TreeEngine{
		engineBase: newEngineBase(s, opts, rg),
		root:       apex,
		params:     rrt.Params{Nodes: opts.NodesPerRegion, Step: opts.Step, GoalBias: opts.GoalBias},
		salt:       salt,
		nodes:      make([]int, rg.NumRegions()),
		res:        &RRTResult{RunStats: RunStats{RegionGraph: rg}},
	}, nil
}

// Result returns the cumulative result of all committed rounds. The
// returned value is immutable — Branches are per-round copies, so
// holding a result (or a snapshot built from it) is safe while the
// engine keeps growing and RRT* rewiring keeps mutating parents.
func (e *TreeEngine) Result() *RRTResult { return e.res }

// treeStep is one region's round-local product of growth or repair,
// produced by the variant's task and committed only when the whole pass
// completes.
type treeStep struct {
	branch  *rrt.Tree // root-anchored view: what bridges join and snapshots index
	nodes   int       // the variant's node count
	work    cspace.Counters
	rewires int            // RRT* parent improvements
	remap   []int          // repair: old → new branch ids (-1 = pruned)
	prune   rrt.PruneStats // repair only
	commit  func()         // installs the round-local state as committed
}

// growRegion grows a round-local copy of region i's committed state
// toward params.Nodes with the round's stream r.
func (e *TreeEngine) growRegion(i int, params rrt.Params, r *rng.Stream) treeStep {
	reg := e.rg.Region(i)
	switch {
	case e.goal != nil:
		return e.growPair(i, params, r)
	case e.opts.Star:
		tree := &rrt.StarTree{Nodes: []rrt.Node{{Q: reg.Apex.Clone(), Parent: -1, Region: reg.ID}}, Cost: []float64{0}}
		if old := e.starTrees[i]; old != nil {
			tree = copyStarTree(old)
		}
		res := rrt.GrowStarTree(e.s, reg, tree, params, r)
		return treeStep{
			branch:  &rrt.Tree{Nodes: res.Tree.Nodes},
			nodes:   res.Tree.Len(),
			work:    res.Work,
			rewires: res.Rewires,
			commit:  func() { e.starTrees[i] = res.Tree },
		}
	default:
		tree := rrt.NewTree(reg.Apex, reg.ID)
		if old := e.trees[i]; old != nil {
			tree = &rrt.Tree{Nodes: append([]rrt.Node(nil), old.Nodes...)}
		}
		res := rrt.GrowTree(e.s, reg, tree, params, r)
		return treeStep{
			branch: res.Tree,
			nodes:  res.Tree.Len(),
			work:   res.Work,
			commit: func() { e.trees[i] = res.Tree },
		}
	}
}

// pruneRegion repairs a round-local copy of region i's committed state
// against dc in the mutated space s. A region with no committed state
// yet yields the zero step: no work, nothing to commit.
func (e *TreeEngine) pruneRegion(i int, s *cspace.Space, dc *cspace.DeltaChecker) (step treeStep) {
	switch {
	case e.goal != nil:
		return e.prunePair(i, s, dc)
	case e.opts.Star:
		if e.starTrees[i] == nil {
			return step
		}
		star := copyStarTree(e.starTrees[i])
		view := &rrt.Tree{Nodes: star.Nodes}
		step.remap, step.prune = rrt.PruneTree(s, dc, view, repairGraftK)
		star.Nodes = view.Nodes
		star.Cost = recomputeStarCosts(s, star, star.Cost[:0])
		step.branch = &rrt.Tree{Nodes: star.Nodes}
		step.commit = func() { e.starTrees[i] = star }
	default:
		if e.trees[i] == nil {
			return step
		}
		t := &rrt.Tree{Nodes: append([]rrt.Node(nil), e.trees[i].Nodes...)}
		step.remap, step.prune = rrt.PruneTree(s, dc, t, repairGraftK)
		step.branch = t
		step.commit = func() { e.trees[i] = t }
	}
	step.nodes = step.branch.Len()
	return step
}

// copyStarTree returns a round-local deep copy of an RRT* branch, so an
// aborted pass never mutates committed state shared with published
// results.
func copyStarTree(t *rrt.StarTree) *rrt.StarTree {
	return &rrt.StarTree{
		Nodes: append([]rrt.Node(nil), t.Nodes...),
		Cost:  append([]float64(nil), t.Cost...),
	}
}

// recomputeStarCosts rebuilds an RRT* branch's cost-to-root vector by a
// forward pass (parents precede children), which also prices any
// regrafted edges.
func recomputeStarCosts(s *cspace.Space, t *rrt.StarTree, costs []float64) []float64 {
	for _, nd := range t.Nodes {
		if nd.Parent < 0 {
			costs = append(costs, 0)
			continue
		}
		costs = append(costs, costs[nd.Parent]+s.Distance(t.Nodes[nd.Parent].Q, nd.Q))
	}
	return costs
}

// kRays is how many random rays per region the round-0 k-ray weight
// probe casts (the paper's RRT work estimate).
const kRays = 8

// GrowRound runs one pipeline pass, growing every region toward a
// cumulative target of (round+1)·NodesPerRegion nodes and attempting
// cross-region connections for still-disconnected adjacent pairs.
// Cancellation semantics match PRMEngine.GrowRound: on a fired stop
// channel the round's partial buffers are discarded and ErrStopped
// returned.
func (e *TreeEngine) GrowRound(stop <-chan struct{}) error {
	opts := e.opts
	pl := e.pl
	rg := e.rg
	n := rg.NumRegions()
	round := e.round
	prev := e.res

	rb := pl.begin(stop, rg.Owner)
	defer rb.end()
	var acct roundAccount

	// --- Weight phase with the k-ray estimate (round 0 only: the probe
	// is a static workspace property, so later rounds reuse the
	// partition it produced).
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1
	}
	if round == 0 {
		if e.s.Dim() == e.s.Env.Dim() {
			weights = repart.KRayWeights(e.s.Env, rg, kRays, opts.Seed)
		}
		if err := e.setWeights(weights, &acct); err != nil {
			return err
		}
		if opts.Strategy == Repartition {
			// The weight pass itself costs k rays per region on the owner.
			rayCost := float64(kRays) * opts.Cost.CDObstacle * float64(len(e.s.Env.Obstacles)+1)
			rayMakespan, stopped := pl.runPriced("weight", n, func(int) float64 { return rayCost },
				func(i int, cost float64) (int, float64) { return rg.Owner[i], cost })
			if stopped {
				return rb.abort()
			}
			acct.phases.Redistribution = rayMakespan + pl.barrier()
			// Note: unlike PRM there is no balanced-already escape hatch
			// here — the k-ray estimate CLAIMS imbalance whether or not it
			// is real, which is the paper's point. Migration proceeds
			// whenever the estimated loads look improvable.
			var cost float64
			acct.migrated, cost = pl.rebalance(rg, weights, nil)
			acct.phases.Redistribution += cost
		}
	}
	// Under the observed cost model, later rounds re-weigh on the EWMA of
	// measured growth costs and — unlike the static k-ray setup, which
	// repartitions only once — re-repartition every round: region costs
	// are temporally autocorrelated, so last rounds' measurements are the
	// good estimator the k-ray probe is not.
	if round > 0 && opts.CostModel == CostObserved {
		weights = pl.roundWeights(weights, nil)
		if err := e.setWeights(weights, &acct); err != nil {
			return err
		}
		if opts.Strategy == Repartition {
			var cost float64
			acct.migrated, cost = pl.rebalance(rg, weights, e.nodes)
			if acct.migrated > 0 {
				acct.phases.Redistribution = cost + pl.barrier()
			}
		}
	}

	// --- Region growth phase (expensive; stealable). Each region grows
	// a round-local copy of its committed state, so an aborted round
	// leaves it untouched.
	params := e.params
	params.Nodes = (round + 1) * opts.NodesPerRegion
	steps := make([]treeStep, n)
	if !e.construct(&acct, weights, e.nodes, e.salt, func(i int) work.Task {
		return work.Task{
			ID: i,
			Run: func() (float64, int) {
				steps[i] = e.growRegion(i, params, rng.Derive(opts.Seed, roundSalt(round, i)))
				return opts.Cost.Time(steps[i].work), steps[i].nodes
			},
		}
	}) {
		return rb.abort()
	}

	// Correlation between weight estimate and measured cost: round 0
	// (where the static estimate was computed), and every warm round
	// under the observed model (whose whole point is that this
	// correlation is high where the k-ray probe's is not).
	weightCorr := prev.WeightActualCorr
	if opts.Strategy == Repartition && (round == 0 || opts.CostModel == CostObserved) {
		costs := make([]float64, n)
		for _, tr := range acct.construct.Tasks {
			costs[tr.ID] = tr.Cost
		}
		weightCorr = metrics.Pearson(weights, costs)
	}

	// --- Branch connection phase with cycle pruning.
	branches := make([]*rrt.Tree, n)
	for i := 0; i < n; i++ {
		branches[i] = steps[i].branch
	}
	conn := runBranchConnect(pl, rg, e.s, opts, branches, e.bridges)
	if conn.stopped {
		return rb.abort()
	}
	acct.remote = conn.regionRemote
	acct.phases.RegionConnection = conn.makespan + pl.barrier()

	// --- Commit.
	rewires := 0
	for i := 0; i < n; i++ {
		steps[i].commit()
		e.nodes[i] = steps[i].nodes
		rewires += steps[i].rewires
	}
	e.bridges = append(e.bridges, conn.newBridges...)
	e.prunedCycles += conn.newPruned
	e.publish(&RRTResult{
		RunStats:         e.commitRound(&prev.RunStats, &acct, nil, branchNodes(branches)),
		Rewires:          prev.Rewires + rewires,
		WeightActualCorr: weightCorr,
	}, branches)
	return nil
}

// branchNodes returns the published node count of region i: the length
// of its root-anchored branch (0 before the region's first commit, when
// the branch, or the whole slice, is nil). Under RRT-Connect that leaves
// out an unmet goal-side tree, which e.nodes counts.
func branchNodes(branches []*rrt.Tree) func(i int) int {
	return func(i int) int {
		if i >= len(branches) || branches[i] == nil {
			return 0
		}
		return branches[i].Len()
	}
}

// publish completes res from the engine's committed branch state —
// branches, bridges and the RRT-Connect met summary — and installs it as
// the engine's result.
func (e *TreeEngine) publish(res *RRTResult, branches []*rrt.Tree) {
	res.Branches = branches
	res.Bridges = e.bridges
	res.PrunedCycles = e.prunedCycles
	res.TreesMet, res.GoalConnected = e.metSummary()
	e.res = res
}

// ApplyDelta incrementally repairs the engine's committed state against
// an environment mutation, between growth rounds: every region prunes
// the nodes and edges the delta blocked (severed subtrees regraft to
// surviving neighbours where a fresh local plan allows; an RRT-Connect
// pair whose meeting node died un-meets and resumes growing next round),
// and cross-region bridges whose endpoint died or whose edge is now
// blocked are dropped. Contracts (s, conservative culling, pipeline
// accounting, cancellation) match PRMEngine.ApplyDelta. The returned
// BranchRemaps are in root-anchored branch ids — what snapshot tree
// indexes reference.
//
// Under the observed cost model the repair phase's measured costs feed
// the same per-region EWMA as construction, so the next round's
// repartition sees the mutation's load concentration.
func (e *TreeEngine) ApplyDelta(s *cspace.Space, d env.Delta, stop <-chan struct{}) (*RRTRepair, error) {
	n := e.rg.NumRegions()
	rp := e.beginRepair(stop, d)
	defer rp.end()
	if rp.dc == nil {
		e.publishRepair(s, rp.stats, e.res.Branches)
		return &RRTRepair{Stats: rp.stats}, nil
	}

	// --- Prune phase over round-local copies.
	steps := make([]treeStep, n)
	report, ok := e.runRepair(rp, func(i int) work.Task {
		return work.Task{
			ID:      i,
			Payload: e.nodes[i],
			Run: func() (float64, int) {
				steps[i] = e.pruneRegion(i, s, rp.dc)
				return e.opts.Cost.Time(steps[i].prune.Work), steps[i].nodes
			},
		}
	})
	if !ok {
		return nil, rp.abort()
	}

	branches := make([]*rrt.Tree, n)
	remaps := make([][]int, n)
	for i := 0; i < n; i++ {
		branches[i], remaps[i] = steps[i].branch, steps[i].remap
	}
	st := &rp.stats
	newBridges, removed, bridgeMakespan, stopped := repairBridgeSet(e.pl, e.rg.Owner, e.opts, rp.dc, e.bridges, branches, remaps, st)
	if stopped {
		return nil, rp.abort()
	}
	st.Makespan += bridgeMakespan

	// --- Commit.
	for i := 0; i < n; i++ {
		ps := steps[i].prune
		st.CheckedNodes += ps.CheckedNodes
		st.CheckedEdges += ps.CheckedEdges
		st.RemovedNodes += ps.Removed
		st.Grafted += ps.Grafted
		st.Work.Add(ps.Work)
		if steps[i].commit != nil {
			steps[i].commit()
			e.nodes[i] = steps[i].nodes
		}
	}
	st.RemovedEdges += removed
	e.bridges = newBridges
	e.pl.observeConstruct(n, report, nil)
	e.publishRepair(s, *st, branches)
	return &RRTRepair{Stats: *st, BranchRemaps: remaps, RemovedBridges: removed}, nil
}

// publishRepair commits one repair pass over the repaired branches and
// publishes a fresh result.
func (e *TreeEngine) publishRepair(s *cspace.Space, st RepairStats, branches []*rrt.Tree) {
	res := *e.res
	e.commitRepair(s, &res.RunStats, st, branchNodes(branches))
	e.publish(&res, branches)
}

// repairBridgeSet re-validates the committed cross-region bridges
// against the delta using the repaired branches: a bridge survives when
// both endpoints survived and its edge is still free. The per-bridge
// checks run as a priced accounting phase on each bridge's owning
// processor and are folded in bridge order afterwards. remaps[i] == nil
// means region i's branch is unchanged.
func repairBridgeSet(pl *pipeline, owner []int, opts Options, dc *cspace.DeltaChecker,
	bridges [][4]int, branches []*rrt.Tree, remaps [][]int, st *RepairStats) (kept [][4]int, removed int, makespan float64, stopped bool) {

	mapIdx := func(remap []int, idx int) int {
		if remap == nil {
			return idx
		}
		if idx >= len(remap) {
			return -1
		}
		return remap[idx]
	}
	type bridgeCheck struct {
		na, nb  int
		alive   bool // both endpoints survived their region's repair
		checked bool // the delta can block the edge, so it was re-planned
		free    bool
		work    cspace.Counters
	}
	checks := make([]bridgeCheck, len(bridges))
	makespan, stopped = pl.runPriced("repair-bridges", len(bridges), func(bi int) float64 {
		br, c := bridges[bi], &checks[bi]
		a, b := br[0], br[2]
		c.na, c.nb = mapIdx(remaps[a], br[1]), mapIdx(remaps[b], br[3])
		if c.na < 0 || c.nb < 0 || branches[a] == nil || branches[b] == nil {
			return 0
		}
		c.alive = true
		qa, qb := branches[a].Nodes[c.na].Q, branches[b].Nodes[c.nb].Q
		if !dc.EdgeAffected(qa, qb) {
			c.free = true
			return 0
		}
		c.checked = true
		c.free = dc.EdgeStillFree(qa, qb, &c.work)
		return opts.Cost.Time(c.work)
	}, func(bi int, cost float64) (int, float64) { return owner[bridges[bi][0]], cost })
	if stopped {
		return nil, 0, 0, true
	}
	for bi, c := range checks {
		if c.checked {
			st.CheckedEdges++
			st.Work.Add(c.work)
		}
		if !c.alive || !c.free {
			removed++
			continue
		}
		kept = append(kept, [4]int{bridges[bi][0], c.na, bridges[bi][2], c.nb})
	}
	return kept, removed, makespan + pl.barrier(), false
}
