package core

import (
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/metrics"
	"parmp/internal/region"
	"parmp/internal/sched"
	"parmp/internal/work"
)

// RunStats is the load-balance accounting PRMResult and RRTResult both
// embed, the quantities the paper reports for PRM and RRT alike. Fields
// are cumulative over the engine's committed rounds and repairs.
type RunStats struct {
	RegionGraph *region.Graph
	Phases      PhaseBreakdown
	// TotalTime is the virtual makespan of the whole pipeline.
	TotalTime float64
	// ProcStats is the last construct phase's execution profile.
	ProcStats []sched.WorkerStats
	// PhaseReports holds every phase's virtual-time runtime report, in
	// replay order, so per-phase load-balance metrics (internal/obsv)
	// derive from a finished run without re-executing it.
	PhaseReports []PhaseReport
	// NodeLoads[p] counts the published nodes (roadmap nodes, or
	// root-anchored branch nodes) on processor p — the paper's
	// load-profile quantity (Fig. 5(c)).
	NodeLoads []float64
	// CVBefore/CVAfter are the coefficients of variation of the round-0
	// weighted load under the naive partition and of NodeLoads under the
	// final ownership (Fig. 5(b)).
	CVBefore, CVAfter float64
	// RegionRemote counts region-connection attempts between regions on
	// different processors (Fig. 7(b)); EdgeCut is the region graph's
	// current cross-processor edge count.
	RegionRemote int
	EdgeCut      int
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

// engineBase is the state and the phase steps PRMEngine and TreeEngine
// share. Each engine keeps its own GrowRound and ApplyDelta sequence and
// calls these steps.
type engineBase struct {
	s    *cspace.Space
	opts Options
	pl   *pipeline
	rg   *region.Graph
	// costAcc accumulates the bounded per-region construct-cost summary
	// across committed rounds (published as RunStats.RegionCosts).
	costAcc []RegionCost
	// repairAcc accumulates committed ApplyDelta repair stats.
	repairAcc RepairStats
	round     int // rounds committed so far
}

func newEngineBase(s *cspace.Space, opts Options, rg *region.Graph) engineBase {
	return engineBase{
		s:       s,
		opts:    opts,
		pl:      newPipeline(opts),
		rg:      rg,
		costAcc: make([]RegionCost, rg.NumRegions()),
	}
}

// Rounds returns the number of committed growth rounds.
func (b *engineBase) Rounds() int { return b.round }

// roundAccount is one growth round's contribution to the cumulative
// RunStats, filled in as the round's phases run.
type roundAccount struct {
	phases    PhaseBreakdown
	cvBefore  float64      // round 0 only
	construct sched.Report // the construct phase's full report
	remote    int          // cross-processor region-connection attempts
	migrated  int
	diffused  int
}

// setWeights installs the round's region weights; on the first round it
// also records the naive partition's weighted-load CV (CVBefore).
func (b *engineBase) setWeights(weights []float64, acct *roundAccount) error {
	if err := b.rg.SetWeights(weights); err != nil {
		return err
	}
	if b.round == 0 {
		acct.cvBefore = metrics.CV(b.rg.LoadPerProcessor(b.opts.Procs))
	}
	return nil
}

// construct runs the round's expensive, stealable construct phase, one
// task per region: the optional between-rounds diffusive rebalance
// first polishes the owners' queues toward the weight equilibrium
// (vertexCounts prices the moves), and afterwards work stealing's final
// placement is written back as region ownership so the
// region-connection phase sees it. It reports false when the round's
// stop channel fired, before or during the phase.
func (b *engineBase) construct(acct *roundAccount, weights []float64, vertexCounts []int, salt uint64, task func(i int) work.Task) bool {
	pl := b.pl
	if sched.Canceled(pl.stop) {
		return false
	}
	queues := queuesByOwner(b.opts.Procs, b.rg.Owner, b.rg.NumRegions(), task)
	diffused, cost := pl.diffuse(b.rg, queues, weights, vertexCounts)
	acct.diffused = diffused
	acct.phases.Redistribution += cost
	rep := pl.run(phaseSpec{name: "construct", queues: queues, policy: pl.stealPolicy(), salt: salt})
	if rep.Stopped || sched.Canceled(pl.stop) {
		return false
	}
	acct.construct = rep
	acct.phases.NodeConnection = rep.Makespan + pl.barrier()
	pl.applyOwnership(b.rg, rep)
	return true
}

// commitRound counts a completed round as committed: its construct
// costs feed the observed cost model (per unit when units is non-nil;
// see pipeline.observeConstruct) and the per-region cost summary, and
// the round, with its merge barrier (and the setup barrier on the first
// round), folds into the cumulative header after prev. regionNodes(i)
// is region i's published node count after the round's commit.
func (b *engineBase) commitRound(prev *RunStats, acct *roundAccount, units []int, regionNodes func(i int) int) RunStats {
	b.pl.observeConstruct(b.rg.NumRegions(), acct.construct, units)
	accumulateRegionCosts(b.costAcc, acct.construct)
	h := RunStats{
		RegionGraph:     b.rg,
		Phases:          prev.Phases,
		ProcStats:       acct.construct.Workers,
		CVBefore:        prev.CVBefore,
		RegionRemote:    prev.RegionRemote + acct.remote,
		EdgeCut:         b.rg.EdgeCut(),
		MigratedRegions: prev.MigratedRegions + acct.migrated,
		DiffusedRegions: prev.DiffusedRegions + acct.diffused,
		RegionCosts:     append([]RegionCost(nil), b.costAcc...),
	}
	if b.round == 0 {
		acct.phases.Setup = b.pl.barrier()
		h.CVBefore = acct.cvBefore
	}
	acct.phases.Other = b.pl.barrier()
	b.round++
	h.Phases.add(acct.phases)
	b.finish(&h, regionNodes)
	return h
}

// repairPass is one ApplyDelta pass in flight: the pipeline's undo point,
// the delta checker and the pass's repair stats.
type repairPass struct {
	rollback
	// dc is nil when the delta cannot invalidate committed state
	// (removal-only or empty): nothing needs re-checking, though the
	// world still changes, so the engine commits stats as they are.
	dc    *cspace.DeltaChecker
	stats RepairStats
}

// beginRepair arms the pipeline for one cancellable ApplyDelta pass
// against d (repairs move no regions) and counts the delta. Callers
// defer end.
func (b *engineBase) beginRepair(stop <-chan struct{}, d env.Delta) *repairPass {
	rp := &repairPass{rollback: b.pl.begin(stop, nil), stats: RepairStats{Deltas: 1}}
	if dc := cspace.NewDeltaChecker(b.s, d); dc.Invalidating() {
		rp.dc = dc
	}
	return rp
}

// runRepair runs the pass's stealable, region-tagged repair phase, one
// task per region built by task, and charges its makespan to the pass.
// It reports false when the pass's stop channel fired.
func (b *engineBase) runRepair(rp *repairPass, task func(i int) work.Task) (sched.Report, bool) {
	pl := b.pl
	queues := queuesByOwner(b.opts.Procs, b.rg.Owner, b.rg.NumRegions(), task)
	rep := pl.run(phaseSpec{name: "repair", queues: queues, policy: pl.stealPolicy(), salt: saltRepair})
	if rep.Stopped || sched.Canceled(pl.stop) {
		return rep, false
	}
	rp.stats.Makespan = rep.Makespan + pl.barrier()
	return rep, true
}

// commitRepair re-binds the engine to the mutated space s, folds the
// pass's stats into the repair accumulator and updates the header h of
// the engine's last result in place. regionNodes is as in commitRound.
func (b *engineBase) commitRepair(s *cspace.Space, h *RunStats, st RepairStats, regionNodes func(i int) int) {
	b.s = s
	b.repairAcc.Add(st)
	h.Phases.Repair += st.Makespan
	b.finish(h, regionNodes)
}

// finish completes a header from the engine's committed state: the
// phase-report log, the repair totals, the total time and the node
// loads under the current ownership.
func (b *engineBase) finish(h *RunStats, regionNodes func(i int) int) {
	h.PhaseReports = b.pl.reports
	h.Repairs = b.repairAcc
	h.TotalTime = h.Phases.Total()
	h.NodeLoads = make([]float64, b.opts.Procs)
	for i := 0; i < b.rg.NumRegions(); i++ {
		h.NodeLoads[b.rg.Owner[i]] += float64(regionNodes(i))
	}
	h.CVAfter = metrics.CV(h.NodeLoads)
}
