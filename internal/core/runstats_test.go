package core

import (
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/metrics"
	"parmp/internal/steal"
)

// published is what TestRunStatsContract reads off a result: its
// run-stats header and the planner's published node count.
type published struct {
	RunStats
	nodes int
}

// TestRunStatsContract checks the accounting header every planner
// publishes after each growth round and each repair: total time is the
// phase sum, node loads cover every processor and sum to the published
// node count, CVAfter is their CV, retained phase reports are numbered
// in replay order with their task records dropped, repairs count the
// ApplyDelta calls, region costs cover every region, and the cumulative
// remote/migration counters never decrease. Work stealing, the observed
// cost model and diffusive rebalancing are on so that diffusion and
// ownership write-back run.
func TestRunStatsContract(t *testing.T) {
	root, goal := geom.V(0.1, 0.1, 0.1), geom.V(0.65, 0.7, 0.4)
	balance := func(o *Options) {
		o.Strategy = WorkStealing
		o.Policy = steal.RandK{K: 2}
		o.CostModel = CostObserved
		o.Rebalance = RebalanceDiffusive
	}
	type planner struct {
		base   *env.Environment
		space  *cspace.Space
		grow   func() error
		repair func(s *cspace.Space, d env.Delta) error
		header func() published
	}
	prmPlanner := func(t *testing.T) planner {
		base := env.MedCube()
		opts := quickOpts(4, 32)
		opts.SamplesPerRegion = 6
		balance(&opts)
		s := cspace.NewPointSpace(base)
		eng, err := NewPRMEngine(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		return planner{
			base:  base,
			space: s,
			grow:  func() error { return eng.GrowRound(nil) },
			repair: func(s *cspace.Space, d env.Delta) error {
				_, err := eng.ApplyDelta(s, d, nil, nil)
				return err
			},
			header: func() published {
				res := eng.Result()
				return published{res.RunStats, res.Roadmap.NumNodes()}
			},
		}
	}
	treePlanner := func(t *testing.T, variant string) planner {
		base := env.SmallCube()
		s := cspace.NewPointSpace(base)
		opts := repairRRTOpts(4, 16)
		opts.Star = variant == "rrt*"
		balance(&opts)
		var eng *TreeEngine
		var err error
		if variant == "rrt-connect" {
			eng, err = NewRRTConnectEngine(s, root, goal, opts)
		} else {
			eng, err = NewRRTEngine(s, root, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		return planner{
			base:  base,
			space: s,
			grow:  func() error { return eng.GrowRound(nil) },
			repair: func(s *cspace.Space, d env.Delta) error {
				_, err := eng.ApplyDelta(s, d, nil)
				return err
			},
			header: func() published {
				res := eng.Result()
				return published{res.RunStats, res.TotalNodes()}
			},
		}
	}

	for _, name := range []string{"prm", "rrt", "rrt*", "rrt-connect"} {
		t.Run(name, func(t *testing.T) {
			var p planner
			if name == "prm" {
				p = prmPlanner(t)
			} else {
				p = treePlanner(t, name)
			}
			deltas, rounds := 0, 0
			var prev published
			check := func(step string) {
				t.Helper()
				h := p.header()
				if got := h.Phases.Total(); h.TotalTime != got {
					t.Errorf("%s: TotalTime %v != Phases.Total() %v", step, h.TotalTime, got)
				}
				if len(h.NodeLoads) != 4 {
					t.Errorf("%s: len(NodeLoads) = %d, want 4", step, len(h.NodeLoads))
				}
				var sum float64
				for _, l := range h.NodeLoads {
					sum += l
				}
				if sum != float64(h.nodes) {
					t.Errorf("%s: NodeLoads sum %v != published nodes %d", step, sum, h.nodes)
				}
				if cv := metrics.CV(h.NodeLoads); h.CVAfter != cv {
					t.Errorf("%s: CVAfter %v != CV(NodeLoads) %v", step, h.CVAfter, cv)
				}
				for i, pr := range h.PhaseReports {
					if pr.Round != i || pr.Report.Tasks != nil {
						t.Errorf("%s: PhaseReports[%d] (%s) has Round %d, %d task records", step, i, pr.Phase, pr.Round, len(pr.Report.Tasks))
					}
				}
				if h.Repairs.Deltas != deltas {
					t.Errorf("%s: Repairs.Deltas = %d, want %d", step, h.Repairs.Deltas, deltas)
				}
				// The per-region cost summary starts with the first round.
				if rounds > 0 && len(h.RegionCosts) != h.RegionGraph.NumRegions() {
					t.Errorf("%s: len(RegionCosts) = %d, want %d regions", step, len(h.RegionCosts), h.RegionGraph.NumRegions())
				}
				if h.RegionRemote < prev.RegionRemote || h.MigratedRegions < prev.MigratedRegions || h.DiffusedRegions < prev.DiffusedRegions {
					t.Errorf("%s: counters decreased: remote %d→%d migrated %d→%d diffused %d→%d", step,
						prev.RegionRemote, h.RegionRemote, prev.MigratedRegions, h.MigratedRegions, prev.DiffusedRegions, h.DiffusedRegions)
				}
				prev = h
			}
			// An empty delta before the first round takes the
			// nothing-to-recheck path over an engine with no nodes yet.
			if err := p.repair(p.space, env.Delta{}); err != nil {
				t.Fatal(err)
			}
			deltas++
			check("empty delta")
			for r := 0; r < 2; r++ {
				if err := p.grow(); err != nil {
					t.Fatal(err)
				}
				rounds++
				check("grow")
			}
			mutated := p.base.Clone()
			d, err := mutated.MoveObstacle(0, geom.V(-0.15, 0.1, 0))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.repair(p.space.WithEnv(mutated), d); err != nil {
				t.Fatal(err)
			}
			deltas++
			check("repair")
			if err := p.grow(); err != nil {
				t.Fatal(err)
			}
			rounds++
			check("grow after repair")
			if prev.DiffusedRegions == 0 {
				t.Errorf("no region diffused: the diffusive rebalance did not run")
			}
		})
	}
}
