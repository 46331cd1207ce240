// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV). Each Fig* function runs the corresponding
// workload sweep and returns a metrics.Table whose rows/series mirror the
// paper's plot. EXPERIMENTS.md records paper-vs-measured shapes.
//
// Two scales are provided: Quick (seconds; used by `go test -bench` and
// CI) and Full (minutes; used by cmd/mpbench for paper-scale processor
// counts up to 3072).
package experiments

import (
	"fmt"

	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/metrics"
	"parmp/internal/model"
	"parmp/internal/prm"
	"parmp/internal/region"
	"parmp/internal/repart"
	"parmp/internal/rng"
	"parmp/internal/steal"
	"parmp/internal/work"
)

// Scale sizes an experiment sweep.
type Scale struct {
	Name string
	// ModelProcs sweeps Fig 4(a); ModelImpProcs Fig 4(b).
	ModelProcs    []int
	ModelImpProcs []int
	ModelGrid     int
	// PRMProcs sweeps Figs 5(a,b); PRMHighProcs Fig 6.
	PRMProcs     []int
	PRMHighProcs []int
	// ProfileProcs fixes the processor count for Fig 5(c) and 7(a);
	// RemoteProcs for Fig 7(b); Fig9Procs the two Fig 9 panels.
	ProfileProcs int
	RemoteProcs  int
	Fig9Procs    [2]int
	// OpteronProcs sweeps Fig 8; RRTProcs Fig 10.
	OpteronProcs []int
	RRTProcs     []int
	// Workload knobs.
	PRMRegions       int
	PRMHighRegions   int
	SamplesPerRegion int
	RRTRegions       int
	NodesPerRegion   int
	Seed             uint64
	// RaceSeeds/RaceRounds size the RRT vs RRT-Connect planner race
	// (seeds per planner, growth-round budget per seed). Zero values
	// fall back to the quick defaults.
	RaceSeeds  int
	RaceRounds int
	// PortfolioTrials sizes the portfolio tail-latency experiment (base
	// seeds per configuration). Zero falls back to the quick default.
	PortfolioTrials int
	// RepartRounds is the growth-round budget of the closed-loop
	// repartitioning experiment. Zero falls back to 4.
	RepartRounds int
}

// Quick returns the fast scale used in tests and benchmarks.
func Quick() Scale {
	return Scale{
		Name:             "quick",
		ModelProcs:       []int{2, 4, 8, 16, 32, 64},
		ModelImpProcs:    []int{4, 8, 16, 32},
		ModelGrid:        16,
		PRMProcs:         []int{8, 16, 32, 64},
		PRMHighProcs:     []int{32, 64, 128, 256},
		ProfileProcs:     16,
		RemoteProcs:      32,
		Fig9Procs:        [2]int{8, 64},
		OpteronProcs:     []int{8, 16, 32, 64},
		RRTProcs:         []int{4, 8, 16, 32},
		PRMRegions:       512,
		PRMHighRegions:   2048,
		SamplesPerRegion: 16,
		RRTRegions:       256,
		NodesPerRegion:   10,
		Seed:             42,
		RaceSeeds:        5,
		RaceRounds:       64,
		PortfolioTrials:  12,
		RepartRounds:     4,
	}
}

// Full returns the paper-scale sweep (Hopper processor counts up to
// 3072). It takes minutes rather than seconds.
func Full() Scale {
	return Scale{
		Name:             "full",
		ModelProcs:       []int{2, 4, 8, 16, 32, 64, 128, 256},
		ModelImpProcs:    []int{16, 32, 64, 128},
		ModelGrid:        32,
		PRMProcs:         []int{96, 192, 384, 768},
		PRMHighProcs:     []int{384, 768, 1536, 3072},
		ProfileProcs:     192,
		RemoteProcs:      768,
		Fig9Procs:        [2]int{96, 768},
		OpteronProcs:     []int{32, 64, 128, 256},
		RRTProcs:         []int{8, 32, 64, 128, 256},
		PRMRegions:       24576,
		PRMHighRegions:   98304,
		SamplesPerRegion: 32,
		RRTRegions:       2048,
		NodesPerRegion:   16,
		Seed:             42,
		RaceSeeds:        5,
		RaceRounds:       128,
		PortfolioTrials:  40,
		RepartRounds:     6,
	}
}

// ScaleByName returns Quick or Full. ok is false for unknown names.
func ScaleByName(name string) (Scale, bool) {
	switch name {
	case "quick":
		return Quick(), true
	case "full":
		return Full(), true
	}
	return Scale{}, false
}

// prmStrategies is the standard four-way comparison of the PRM figures.
func prmStrategies() []struct {
	label    string
	strategy core.Strategy
	policy   steal.Policy
} {
	return []struct {
		label    string
		strategy core.Strategy
		policy   steal.Policy
	}{
		{"without-lb", core.NoLB, nil},
		{"repartitioning", core.Repartition, nil},
		{"hybrid-ws", core.WorkStealing, steal.Hybrid{K: 8}},
		{"rand-8-ws", core.WorkStealing, steal.RandK{K: 8}},
	}
}

func prmOpts(sc Scale, procs int, profile work.MachineProfile) core.Options {
	return core.Options{
		Procs:            procs,
		Regions:          sc.PRMRegions,
		SamplesPerRegion: sc.SamplesPerRegion,
		ConnectK:         6,
		BoundaryK:        1,
		Profile:          profile,
		Seed:             sc.Seed,
		// Half uniform, half obstacle-based (Gaussian) sampling — the
		// Parasol planners the paper builds on are obstacle-based
		// (OBPRM), which concentrates roadmap nodes near obstacle
		// surfaces. That concentration is what makes the paper's naive
		// mapping so imbalanced (Fig 3(b): most nodes on two
		// processors).
		Sampler: cspace.MixedSampler{
			Primary:   cspace.UniformSampler{},
			Secondary: cspace.GaussianSampler{},
			Fraction:  0.5,
		},
	}
}

func rrtOpts(sc Scale, procs int, profile work.MachineProfile) core.Options {
	return core.Options{
		Procs:          procs,
		Regions:        sc.RRTRegions,
		NodesPerRegion: sc.NodesPerRegion,
		Step:           0.05,
		GoalBias:       0.1,
		Radius:         0.6,
		RegionK:        4,
		Profile:        profile,
		Seed:           sc.Seed,
	}
}

// Fig4a reproduces Figure 4(a): coefficient of variation of the model
// environment — model-predicted imbalance (V_free, naive partition),
// model-predicted best balance, experimentally measured imbalance
// (sample counts, naive) and after repartitioning.
func Fig4a(sc Scale) *metrics.Table {
	m := model.Model{Blocked: 0.24, Grid: sc.ModelGrid}
	t := &metrics.Table{
		Title:  "Fig 4(a): Coefficient of Variation of Model Environment",
		XLabel: "procs",
		Columns: []string{
			"model-imbalance", "model-improvement",
			"experimental-imbalance", "repartitioning-improvement",
		},
	}
	e := m.Env()
	s := cspace.NewPointSpace(e)
	rg := m.Regions()
	n := rg.NumRegions()
	// Experimental sample counts per region (independent of P).
	counts := make([]int, n)
	params := prm.Params{SamplesPerRegion: sc.SamplesPerRegion, K: 4}
	for i := 0; i < n; i++ {
		nodes, _ := prm.SampleRegion(s, rg.Region(i).Box, i, params, rng.Derive(sc.Seed, uint64(i)))
		counts[i] = len(nodes)
	}
	weights := repart.SampleCountWeights(counts)
	for _, p := range sc.ModelProcs {
		region.NaiveColumnPartition(rg, p)
		expNaive := repart.CoefficientOfVariation(weights, rg.Owner, p)
		expBest := repart.CoefficientOfVariation(weights, repart.GreedyLPT(weights, p), p)
		t.AddRow(float64(p), m.NaiveCV(p), m.BestCV(p), expNaive, expBest)
	}
	return t
}

// Fig4b reproduces Figure 4(b): percentage improvement on the model
// environment — theoretical (unit free area), experimental (number of
// samples on the most-loaded processor) and runtime (load-balanced phase
// execution time).
func Fig4b(sc Scale) *metrics.Table {
	m := model.Model{Blocked: 0.24, Grid: sc.ModelGrid}
	t := &metrics.Table{
		Title:   "Fig 4(b): Theoretical Improvement and Experimental Speedup (Model Env)",
		XLabel:  "procs",
		Columns: []string{"theoretical-pct", "experimental-pct", "runtime-pct"},
	}
	e := m.Env()
	s := cspace.NewPointSpace(e)
	for _, p := range sc.ModelImpProcs {
		theo := m.TheoreticalImprovement(p)

		// Experimental: reduction in max per-proc sample count.
		rg := m.Regions()
		n := rg.NumRegions()
		counts := make([]int, n)
		params := prm.Params{SamplesPerRegion: sc.SamplesPerRegion, K: 4}
		for i := 0; i < n; i++ {
			nodes, _ := prm.SampleRegion(s, rg.Region(i).Box, i, params, rng.Derive(sc.Seed, uint64(i)))
			counts[i] = len(nodes)
		}
		weights := repart.SampleCountWeights(counts)
		region.NaiveColumnPartition(rg, p)
		maxNaive := maxLoad(weights, rg.Owner, p)
		maxBest := maxLoad(weights, repart.GreedyLPT(weights, p), p)
		expPct := 0.0
		if maxNaive > 0 && maxBest < maxNaive {
			expPct = 100 * (maxNaive - maxBest) / maxNaive
		}

		// Runtime: improvement of the node-connection phase.
		opts := core.Options{
			Procs: p, Regions: sc.ModelGrid * sc.ModelGrid,
			SamplesPerRegion: sc.SamplesPerRegion, ConnectK: 4, BoundaryK: 1,
			Profile: work.OpteronCluster(), Seed: sc.Seed,
		}
		noLB, err := core.ParallelPRM(s, opts)
		if err != nil {
			panic(err)
		}
		opts.Strategy = core.Repartition
		opts.Partitioner = core.PartitionLPT
		rp, err := core.ParallelPRM(s, opts)
		if err != nil {
			panic(err)
		}
		runPct := 0.0
		if noLB.Phases.NodeConnection > 0 && rp.Phases.NodeConnection < noLB.Phases.NodeConnection {
			runPct = 100 * (noLB.Phases.NodeConnection - rp.Phases.NodeConnection) / noLB.Phases.NodeConnection
		}
		t.AddRow(float64(p), theo, expPct, runPct)
	}
	return t
}

func maxLoad(weights []float64, assign []int, p int) float64 {
	load := make([]float64, p)
	for i, w := range weights {
		load[assign[i]] += w
	}
	return metrics.Max(load)
}

// Fig5a reproduces Figure 5(a): PRM execution time with all load
// balancing techniques in the med-cube environment on Hopper (strong
// scaling).
func Fig5a(sc Scale) *metrics.Table {
	return prmTimeSweep(sc, "Fig 5(a): PRM Execution Time, med-cube, Hopper",
		env.MedCube(), sc.PRMProcs, work.Hopper())
}

// prmTimeSweep runs the standard 4-strategy execution-time sweep.
func prmTimeSweep(sc Scale, title string, e *env.Environment, procs []int, profile work.MachineProfile) *metrics.Table {
	strategies := prmStrategies()
	cols := make([]string, len(strategies))
	for i, s := range strategies {
		cols[i] = s.label
	}
	t := &metrics.Table{Title: title, XLabel: "procs", Columns: cols}
	s := cspace.NewPointSpace(e)
	for _, p := range procs {
		row := make([]float64, len(strategies))
		for i, st := range strategies {
			opts := prmOpts(sc, p, profile)
			opts.Strategy = st.strategy
			opts.Policy = st.policy
			res, err := core.ParallelPRM(s, opts)
			if err != nil {
				panic(err)
			}
			row[i] = res.TotalTime
		}
		t.AddRow(float64(p), row...)
	}
	return t
}

// Fig5b reproduces Figure 5(b): coefficient of variation of PRM roadmap
// node loads before and after repartitioning, med-cube on Hopper.
func Fig5b(sc Scale) *metrics.Table {
	t := &metrics.Table{
		Title:   "Fig 5(b): CV of PRM Load Before/After Repartitioning, med-cube, Hopper",
		XLabel:  "procs",
		Columns: []string{"before-repartitioning", "after-repartitioning"},
	}
	s := cspace.NewPointSpace(env.MedCube())
	for _, p := range sc.PRMProcs {
		opts := prmOpts(sc, p, work.Hopper())
		opts.Strategy = core.Repartition
		res, err := core.ParallelPRM(s, opts)
		if err != nil {
			panic(err)
		}
		t.AddRow(float64(p), res.CVBefore, res.CVAfter)
	}
	return t
}

// Fig5c reproduces Figure 5(c): the per-processor roadmap-node load
// profile at a fixed processor count, med-cube on Hopper: without load
// balancing, with repartitioning, and the ideal (uniform) distribution.
func Fig5c(sc Scale) *metrics.Table {
	p := sc.ProfileProcs
	t := &metrics.Table{
		Title:   fmt.Sprintf("Fig 5(c): PRM Load Profile at %d procs, med-cube, Hopper", p),
		XLabel:  "proc",
		Columns: []string{"without-lb", "repartitioning", "ideal"},
	}
	s := cspace.NewPointSpace(env.MedCube())
	opts := prmOpts(sc, p, work.Hopper())
	noLB, err := core.ParallelPRM(s, opts)
	if err != nil {
		panic(err)
	}
	opts.Strategy = core.Repartition
	rp, err := core.ParallelPRM(s, opts)
	if err != nil {
		panic(err)
	}
	ideal := metrics.Sum(noLB.NodeLoads) / float64(p)
	// Sort descending so the profile shape (spread vs flat) is evident,
	// as in the paper's plot.
	noLBLoads := sortedDesc(noLB.NodeLoads)
	rpLoads := sortedDesc(rp.NodeLoads)
	for i := 0; i < p; i++ {
		t.AddRow(float64(i), noLBLoads[i], rpLoads[i], ideal)
	}
	return t
}

func sortedDesc(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] > out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Fig6 reproduces Figure 6: PRM execution time at high processor counts
// (up to 3072 in the full scale), med-cube on Hopper, NoLB vs
// repartitioning.
func Fig6(sc Scale) *metrics.Table {
	t := &metrics.Table{
		Title:   "Fig 6: PRM Execution Time at High Scale, med-cube, Hopper",
		XLabel:  "procs",
		Columns: []string{"without-lb", "repartitioning"},
	}
	s := cspace.NewPointSpace(env.MedCube())
	for _, p := range sc.PRMHighProcs {
		opts := prmOpts(sc, p, work.Hopper())
		opts.Regions = sc.PRMHighRegions
		noLB, err := core.ParallelPRM(s, opts)
		if err != nil {
			panic(err)
		}
		opts.Strategy = core.Repartition
		rp, err := core.ParallelPRM(s, opts)
		if err != nil {
			panic(err)
		}
		t.AddRow(float64(p), noLB.TotalTime, rp.TotalTime)
	}
	return t
}

// Fig7a reproduces Figure 7(a): the phase breakdown (region connection,
// node connection, other) for each load balancing policy at a fixed
// processor count, med-cube on Hopper. Rows are strategies in
// prmStrategies() order.
func Fig7a(sc Scale) *metrics.Table {
	p := sc.ProfileProcs
	t := &metrics.Table{
		Title:   fmt.Sprintf("Fig 7(a): PRM Phase Breakdown at %d procs, med-cube, Hopper", p),
		XLabel:  "strategy#",
		Columns: []string{"region-connection", "node-connection", "other"},
	}
	s := cspace.NewPointSpace(env.MedCube())
	for i, st := range prmStrategies() {
		opts := prmOpts(sc, p, work.Hopper())
		opts.Strategy = st.strategy
		opts.Policy = st.policy
		res, err := core.ParallelPRM(s, opts)
		if err != nil {
			panic(err)
		}
		other := res.Phases.Setup + res.Phases.Sampling + res.Phases.Redistribution + res.Phases.Other
		t.AddRow(float64(i), res.Phases.RegionConnection, res.Phases.NodeConnection, other)
		t.Notes = append(t.Notes, fmt.Sprintf("strategy %d = %s", i, st.label))
	}
	return t
}

// Fig7b reproduces Figure 7(b): remote accesses during the region
// connection phase at a fixed processor count — region-graph and
// roadmap-graph accesses, NoLB vs repartitioning.
func Fig7b(sc Scale) *metrics.Table {
	p := sc.RemoteProcs
	t := &metrics.Table{
		Title:   fmt.Sprintf("Fig 7(b): Remote Accesses in Region Connection at %d procs, med-cube, Hopper", p),
		XLabel:  "strategy#",
		Columns: []string{"region-graph", "roadmap-graph"},
	}
	s := cspace.NewPointSpace(env.MedCube())
	for i, st := range []struct {
		label    string
		strategy core.Strategy
	}{
		{"no-lb", core.NoLB},
		{"repartitioning", core.Repartition},
	} {
		opts := prmOpts(sc, p, work.Hopper())
		opts.Strategy = st.strategy
		res, err := core.ParallelPRM(s, opts)
		if err != nil {
			panic(err)
		}
		t.AddRow(float64(i), float64(res.RegionRemote), float64(res.RoadmapRemote))
		t.Notes = append(t.Notes, fmt.Sprintf("strategy %d = %s", i, st.label))
	}
	return t
}

// Fig8 reproduces Figure 8: PRM execution time with all load balancing
// strategies on the Opteron cluster in (a) med-cube, (b) small-cube and
// (c) free environments.
func Fig8(sc Scale) []*metrics.Table {
	return []*metrics.Table{
		prmTimeSweep(sc, "Fig 8(a): PRM Execution Time, med-cube, Opteron",
			env.MedCube(), sc.OpteronProcs, work.OpteronCluster()),
		prmTimeSweep(sc, "Fig 8(b): PRM Execution Time, small-cube, Opteron",
			env.SmallCube(), sc.OpteronProcs, work.OpteronCluster()),
		prmTimeSweep(sc, "Fig 8(c): PRM Execution Time, free, Opteron",
			env.Free(), sc.OpteronProcs, work.OpteronCluster()),
	}
}

// Fig9 reproduces Figure 9: per-processor counts of stolen vs locally
// executed tasks under HYBRID work stealing at two processor counts,
// med-cube on Hopper.
func Fig9(sc Scale) []*metrics.Table {
	out := make([]*metrics.Table, 0, 2)
	s := cspace.NewPointSpace(env.MedCube())
	for _, p := range sc.Fig9Procs {
		opts := prmOpts(sc, p, work.Hopper())
		opts.Strategy = core.WorkStealing
		opts.Policy = steal.Hybrid{K: 8}
		res, err := core.ParallelPRM(s, opts)
		if err != nil {
			panic(err)
		}
		t := &metrics.Table{
			Title:   fmt.Sprintf("Fig 9: Stolen vs Non-Stolen Tasks on %d procs, med-cube, Hopper", p),
			XLabel:  "proc",
			Columns: []string{"stolen", "non-stolen"},
		}
		for i, ps := range res.ProcStats {
			t.AddRow(float64(i), float64(ps.TasksStolen), float64(ps.TasksLocal))
		}
		out = append(out, t)
	}
	return out
}

// Fig10 reproduces Figure 10: radial RRT execution time with work
// stealing strategies on the Opteron cluster in (a) mixed (60 % blocked),
// (b) mixed-30 (with repartitioning, showing its failure mode) and
// (c) free environments.
func Fig10(sc Scale) []*metrics.Table {
	type strat struct {
		label    string
		strategy core.Strategy
		policy   steal.Policy
	}
	base := []strat{
		{"without-lb", core.NoLB, nil},
		{"hybrid-ws", core.WorkStealing, steal.Hybrid{K: 8}},
		{"rand-8-ws", core.WorkStealing, steal.RandK{K: 8}},
		{"diffusive-ws", core.WorkStealing, steal.Diffusive{}},
	}
	withRepart := append(append([]strat{}, base...), strat{"repartitioning", core.Repartition, nil})

	sweep := func(title string, e *env.Environment, strategies []strat) *metrics.Table {
		cols := make([]string, len(strategies))
		for i, s := range strategies {
			cols[i] = s.label
		}
		t := &metrics.Table{Title: title, XLabel: "procs", Columns: cols}
		s := cspace.NewPointSpace(e)
		root := geom.V(0.5, 0.5, 0.5)
		if !s.Valid(root, nil) {
			root = findFreeRoot(s)
		}
		for _, p := range sc.RRTProcs {
			row := make([]float64, len(strategies))
			for i, st := range strategies {
				opts := rrtOpts(sc, p, work.OpteronCluster())
				opts.Strategy = st.strategy
				opts.Policy = st.policy
				res, err := core.ParallelRRT(s, root, opts)
				if err != nil {
					panic(err)
				}
				row[i] = res.TotalTime
			}
			t.AddRow(float64(p), row...)
		}
		return t
	}
	return []*metrics.Table{
		sweep("Fig 10(a): Radial RRT Execution Time, mixed, Opteron", env.Mixed(), base),
		sweep("Fig 10(b): Radial RRT Execution Time, mixed-30, Opteron", env.Mixed30(), withRepart),
		sweep("Fig 10(c): Radial RRT Execution Time, free, Opteron", env.Free(), base),
	}
}

// findFreeRoot scans for a valid root configuration on a coarse lattice.
func findFreeRoot(s *cspace.Space) cspace.Config {
	for _, x := range []float64{0.5, 0.3, 0.7, 0.1, 0.9} {
		for _, y := range []float64{0.5, 0.3, 0.7, 0.1, 0.9} {
			for _, z := range []float64{0.5, 0.3, 0.7, 0.1, 0.9} {
				q := geom.V(x, y, z)
				if s.Valid(q, nil) {
					return q
				}
			}
		}
	}
	panic("experiments: no free root found")
}

// All runs every experiment at the given scale and returns the tables in
// figure order.
func All(sc Scale) []*metrics.Table {
	var out []*metrics.Table
	out = append(out, Fig4a(sc), Fig4b(sc), Fig5a(sc), Fig5b(sc), Fig5c(sc), Fig6(sc), Fig7a(sc), Fig7b(sc))
	out = append(out, Fig8(sc)...)
	out = append(out, Fig9(sc)...)
	out = append(out, Fig10(sc)...)
	out = append(out, Repartition(sc)...)
	return out
}

// ByName runs one experiment by id ("fig4a" ... "fig10"); some ids return
// multiple tables. ok is false for unknown ids.
func ByName(id string, sc Scale) ([]*metrics.Table, bool) {
	switch id {
	case "fig4a":
		return []*metrics.Table{Fig4a(sc)}, true
	case "fig4b":
		return []*metrics.Table{Fig4b(sc)}, true
	case "fig5a":
		return []*metrics.Table{Fig5a(sc)}, true
	case "fig5b":
		return []*metrics.Table{Fig5b(sc)}, true
	case "fig5c":
		return []*metrics.Table{Fig5c(sc)}, true
	case "fig6":
		return []*metrics.Table{Fig6(sc)}, true
	case "fig7a":
		return []*metrics.Table{Fig7a(sc)}, true
	case "fig7b":
		return []*metrics.Table{Fig7b(sc)}, true
	case "fig8":
		return Fig8(sc), true
	case "fig9":
		return Fig9(sc), true
	case "fig10":
		return Fig10(sc), true
	case "ablation-decomposition":
		return []*metrics.Table{AblationDecomposition(sc)}, true
	case "ablation-stealchunk":
		return []*metrics.Table{AblationStealChunk(sc)}, true
	case "ablation-weights":
		return []*metrics.Table{AblationWeights(sc)}, true
	case "ablation-partitioner":
		return []*metrics.Table{AblationPartitioner(sc)}, true
	case "ablation-victims":
		return []*metrics.Table{AblationVictimPolicy(sc)}, true
	case "ablation-rrtstar":
		return []*metrics.Table{AblationRRTStar(sc)}, true
	case "planners":
		return Planners(sc, nil), true
	case "portfolio":
		return []*metrics.Table{PortfolioTail(sc)}, true
	case "repartition":
		return Repartition(sc), true
	case "ablations":
		return []*metrics.Table{
			AblationDecomposition(sc), AblationStealChunk(sc),
			AblationWeights(sc), AblationPartitioner(sc), AblationVictimPolicy(sc),
			AblationRRTStar(sc),
		}, true
	case "all":
		return All(sc), true
	}
	return nil, false
}

// Names lists the experiment ids understood by ByName.
func Names() []string {
	return []string{"fig4a", "fig4b", "fig5a", "fig5b", "fig5c", "fig6",
		"fig7a", "fig7b", "fig8", "fig9", "fig10",
		"ablation-decomposition", "ablation-stealchunk", "ablation-weights",
		"ablation-partitioner", "ablation-victims", "ablation-rrtstar",
		"ablations", "planners", "portfolio", "repartition", "all"}
}
