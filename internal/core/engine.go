package core

import (
	"errors"

	"parmp/internal/cspace"
	"parmp/internal/graph"
	"parmp/internal/prm"
	"parmp/internal/region"
	"parmp/internal/repart"
	"parmp/internal/rng"
	"parmp/internal/sched"
	"parmp/internal/work"
)

// ErrStopped reports that a growth round was canceled at a cooperative
// checkpoint. The engine discards the aborted round's partial buffers,
// so the last committed result (and any snapshot built from it) stays
// valid — cancellation never tears state.
var ErrStopped = errors.New("core: growth round canceled")

// roundSalt derives the per-region RNG stream id for a growth round.
// Round 0 uses the bare region index, which makes an engine's first
// round bit-identical to the one-shot planners; later rounds fold the
// round number into the high bits so every round samples an
// independent, deterministic stream.
func roundSalt(round, i int) uint64 {
	if round == 0 {
		return uint64(i)
	}
	return uint64(round)<<32 | uint64(i)
}

// PRMEngine grows a roadmap incrementally: each GrowRound runs one full
// pass of the paper's phase pipeline (sample → weight → [repartition] →
// node connection → region connection → merge) over the SAME region
// graph, kd indexes and ownership state, appending new samples to the
// per-region roadmaps instead of starting over. The one-shot
// ParallelPRM is exactly one round of this engine.
//
// A PRMEngine is not safe for concurrent use; the serving layer
// (package parmp) serializes growth and publishes immutable snapshots
// for concurrent queries.
type PRMEngine struct {
	engineBase
	params prm.Params

	// data accumulates each region's committed nodes and local edges
	// across rounds. Edge indices are local to the region's node slice.
	data []prmRegionData
	// boundary accumulates committed cross-region edges across rounds.
	boundary []boundaryEdge

	res *PRMResult // last committed cumulative result
}

// NewPRMEngine validates opts, subdivides the C-space and builds the
// naive initial partition. No planning work happens until GrowRound.
func NewPRMEngine(s *cspace.Space, opts Options) (*PRMEngine, error) {
	opts = opts.Defaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	dims := s.Env.Dim()
	spec := region.SplitEvenly(dims, opts.Regions, opts.Overlap)
	var rg *region.Graph
	var err error
	if opts.Adaptive {
		rg, err = region.AdaptiveGrid(s.Env, region.AdaptiveSpec{
			Base:     spec,
			MaxDepth: opts.AdaptiveDepth,
		})
	} else {
		rg, err = region.UniformGrid(s.Bounds, spec)
	}
	if err != nil {
		return nil, err
	}
	region.NaiveColumnPartition(rg, opts.Procs)
	e := &PRMEngine{
		engineBase: newEngineBase(s, opts, rg),
		params:     prm.Params{SamplesPerRegion: opts.SamplesPerRegion, K: opts.ConnectK, Sampler: opts.Sampler},
		data:       make([]prmRegionData, rg.NumRegions()),
	}
	e.res = &PRMResult{RunStats: RunStats{RegionGraph: rg}, Roadmap: prm.NewRoadmap()}
	return e, nil
}

// Result returns the cumulative result of all committed rounds. The
// returned value is immutable: later rounds build a fresh result rather
// than mutating this one, so callers may hold it (and index its
// roadmap) while the engine keeps growing.
func (e *PRMEngine) Result() *PRMResult { return e.res }

// GrowRound runs one pipeline pass, appending SamplesPerRegion new
// sampling attempts per region and connecting the accepted samples into
// the roadmap. stop, when non-nil, cancels cooperatively: the runtime
// backends observe it between tasks/events and the engine checks it at
// every phase barrier. On cancellation GrowRound returns ErrStopped and
// discards the round's partial buffers — the previously committed
// result is untouched.
func (e *PRMEngine) GrowRound(stop <-chan struct{}) error {
	opts := e.opts
	pl := e.pl
	rg := e.rg
	n := rg.NumRegions()
	round := e.round

	rb := pl.begin(stop, rg.Owner)
	defer rb.end()
	var acct roundAccount

	// --- Sampling phase: fresh per-round streams keep determinism.
	fresh := make([]prmRegionData, n)
	sampleRep := pl.run(phaseSpec{
		name: "sample",
		queues: queuesByOwner(opts.Procs, rg.Owner, n, func(i int) work.Task {
			return work.Task{
				ID: i,
				Run: func() (float64, int) {
					var w cspace.Counters
					fresh[i].nodes, w = prm.SampleRegion(e.s, rg.Region(i).Box, i, e.params, rng.Derive(opts.Seed, roundSalt(round, i)))
					return opts.Cost.Time(w), len(fresh[i].nodes)
				},
			}
		}),
	})
	if sampleRep.Stopped || sched.Canceled(stop) {
		return rb.abort()
	}
	acct.phases.Sampling = sampleRep.Makespan + pl.barrier()
	sampleCounts := make([]int, n)
	for i := 0; i < n; i++ {
		sampleCounts[i] = len(fresh[i].nodes)
	}

	// --- Weight phase: this round's sample counts estimate this round's
	// connection work (the construct phase only processes new samples).
	// Under CostObserved, warm rounds replace the sample-count estimate
	// with the EWMA of the construct costs actually observed in prior
	// rounds (round 0 passes through unchanged — the cold start).
	weights := pl.roundWeights(repart.SampleCountWeights(sampleCounts), sampleCounts)
	if err := e.setWeights(weights, &acct); err != nil {
		return err
	}

	// --- Optional repartitioning before the expensive phase.
	if opts.Strategy == Repartition {
		var cost float64
		acct.migrated, cost = pl.rebalance(rg, weights, sampleCounts)
		acct.phases.Redistribution = cost + pl.barrier()
	}

	// --- Node-connection phase (expensive; stealable). Each region
	// connects only its new samples, querying against old + new nodes.
	combined := make([][]prm.Node, n)
	firstNew := make([]int, n)
	for i := 0; i < n; i++ {
		firstNew[i] = len(e.data[i].nodes)
		combined[i] = make([]prm.Node, 0, firstNew[i]+len(fresh[i].nodes))
		combined[i] = append(combined[i], e.data[i].nodes...)
		combined[i] = append(combined[i], fresh[i].nodes...)
	}
	if !e.construct(&acct, weights, sampleCounts, saltPRMConstruct, func(i int) work.Task {
		return work.Task{
			ID:      i,
			Payload: len(combined[i]), // stealing this region moves its samples
			Run: func() (float64, int) {
				var w cspace.Counters
				fresh[i].edges, w = prm.ConnectRegionIncremental(e.s, combined[i], firstNew[i], e.params)
				return opts.Cost.Time(w), len(combined[i])
			},
		}
	}) {
		return rb.abort()
	}

	// --- Region-connection phase. Each adjacent pair connects its new
	// nodes against the other side's full node set (new×all plus
	// old×new), so pairs whose regions gained nothing cost nothing.
	var pairs [][2]int
	rg.ForEachAdjacentPair(func(a, b int) { pairs = append(pairs, [2]int{a, b}) })
	// Each pair runs on the less-loaded of its two owners and pays the
	// local or remote access price per connection attempt.
	brs := make([]prm.BoundaryResult, len(pairs))
	connLoad := make([]float64, opts.Procs)
	roadmapRemote := 0
	connMakespan, stopped := pl.runPriced("region-connect", len(pairs), func(idx int) float64 {
		brs[idx] = e.connectPairIncremental(pairs[idx][0], pairs[idx][1], combined, firstNew)
		return opts.Cost.Time(brs[idx].Work)
	}, func(idx int, cost float64) (int, float64) {
		attempts := brs[idx].Attempts
		ownerA, ownerB := rg.Owner[pairs[idx][0]], rg.Owner[pairs[idx][1]]
		if ownerA != ownerB {
			acct.remote++
			roadmapRemote += attempts
			cost += opts.Profile.RemoteAccess * float64(1+attempts)
		} else {
			cost += opts.Profile.LocalAccess * float64(1+attempts)
		}
		runner := ownerA
		if connLoad[ownerB] < connLoad[ownerA] {
			runner = ownerB
		}
		connLoad[runner] += cost
		return runner, cost
	})
	if stopped {
		return rb.abort()
	}
	acct.phases.RegionConnection = connMakespan + pl.barrier()

	// --- Commit: append the round's output, rebuild the roadmap, and
	// publish a fresh cumulative result. Nothing before this point
	// mutated e.data/e.boundary/e.res, so an abort above left the engine
	// on its previous committed state.
	for i := 0; i < n; i++ {
		e.data[i].nodes = combined[i]
		e.data[i].edges = append(e.data[i].edges, fresh[i].edges...)
	}
	for idx, pr := range pairs {
		e.boundary = append(e.boundary, boundaryEdge{a: pr[0], b: pr[1], pairs: brs[idx].Edges})
	}
	// The cost model tracks construct cost per fresh sample.
	e.res = &PRMResult{
		RunStats:      e.commitRound(&e.res.RunStats, &acct, sampleCounts, e.regionNodes),
		Roadmap:       e.mergeRoadmap(),
		RoadmapRemote: e.res.RoadmapRemote + roadmapRemote,
	}
	return nil
}

// regionNodes is region i's committed node count.
func (e *PRMEngine) regionNodes(i int) int { return len(e.data[i].nodes) }

// boundaryFrontier caps how many of a region's nodes participate in each
// cross-region connection attempt (the boundary frontier).
const boundaryFrontier = 1

// connectPairIncremental connects regions a and b after a round: a's new
// nodes against all of b, then a's old nodes against b's new nodes.
// Edge indices are mapped into the regions' final (committed) node
// order. In round 0 "old" is empty, so the single new×all call is
// exactly the one-shot ConnectBoundary.
func (e *PRMEngine) connectPairIncremental(a, b int, combined [][]prm.Node, firstNew []int) prm.BoundaryResult {
	var out prm.BoundaryResult
	newA := combined[a][firstNew[a]:]
	oldA := combined[a][:firstNew[a]]
	newB := combined[b][firstNew[b]:]
	if len(newA) > 0 {
		br := prm.ConnectBoundary(e.s, newA, combined[b], e.opts.BoundaryK, boundaryFrontier)
		out.Work.Add(br.Work)
		out.Attempts += br.Attempts
		for _, pr := range br.Edges {
			out.Edges = append(out.Edges, [2]int{firstNew[a] + pr[0], pr[1]})
		}
	}
	if len(oldA) > 0 && len(newB) > 0 {
		br := prm.ConnectBoundary(e.s, oldA, newB, e.opts.BoundaryK, boundaryFrontier)
		out.Work.Add(br.Work)
		out.Attempts += br.Attempts
		for _, pr := range br.Edges {
			out.Edges = append(out.Edges, [2]int{pr[0], firstNew[b] + pr[1]})
		}
	}
	return out
}

// mergeRoadmap rebuilds the cumulative roadmap from the committed
// per-region data. Building fresh every round (rather than mutating the
// previous roadmap) is what lets published results stay immutable for
// concurrent readers.
func (e *PRMEngine) mergeRoadmap() *prm.Roadmap {
	n := e.rg.NumRegions()
	m := prm.NewRoadmap()
	base := make([]int, n)
	for i := 0; i < n; i++ {
		base[i] = m.NumNodes()
		for _, nd := range e.data[i].nodes {
			m.AddNode(nd)
		}
	}
	for i := 0; i < n; i++ {
		for _, ed := range e.data[i].edges {
			a, b := graph.ID(base[i]+ed[0]), graph.ID(base[i]+ed[1])
			m.G.AddEdge(a, b, e.s.Distance(e.data[i].nodes[ed[0]].Q, e.data[i].nodes[ed[1]].Q))
		}
	}
	for _, be := range e.boundary {
		for _, pr := range be.pairs {
			a := graph.ID(base[be.a] + pr[0])
			b := graph.ID(base[be.b] + pr[1])
			m.G.AddEdge(a, b, e.s.Distance(e.data[be.a].nodes[pr[0]].Q, e.data[be.b].nodes[pr[1]].Q))
		}
	}
	return m
}
