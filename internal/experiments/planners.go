package experiments

import (
	"fmt"
	"math"
	"time"

	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/metrics"
	"parmp/internal/rng"
	"parmp/internal/work"
)

// plannerRaceShortcut is the fixed smoothing budget applied to every
// extracted path so the quality comparison is planner-agnostic (raw
// RRT-Connect paths detour through the greedy connect segment).
const plannerRaceShortcut = 1000

// raceOutcome is one planner's result on one seed.
type raceOutcome struct {
	ms     float64 // wall-clock milliseconds to first solution
	length float64 // smoothed path length (0 when unsolved)
	rounds int
	solved bool
}

// racePlanner grows one engine round by round until a committed snapshot
// answers the root→goal query, and reports host wall-clock time to that
// first solution. Both planners pay the identical per-round index build
// and path extraction, so the comparison isolates planner growth.
func racePlanner(planner string, s *cspace.Space, root, goal cspace.Config, opts core.Options, maxRounds int) raceOutcome {
	start := time.Now()
	var eng *core.TreeEngine
	var err error
	switch planner {
	case "rrt":
		eng, err = core.NewRRTEngine(s, root, opts)
	case "rrtconnect":
		eng, err = core.NewRRTConnectEngine(s, root, goal, opts)
	default:
		panic(fmt.Sprintf("experiments: unknown planner %q", planner))
	}
	if err != nil {
		panic(err)
	}
	for round := 1; round <= maxRounds; round++ {
		if err := eng.GrowRound(nil); err != nil {
			panic(err)
		}
		ix := core.BuildTreeIndex(eng.Result())
		path, ok := ix.ExtractPath(s, goal, nil)
		if !ok {
			continue
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		// Densify before each shortcut pass so cuts can land mid-segment
		// (vertex-pair shortcutting alone gets stuck on taut polylines);
		// every pass is monotone non-increasing in length.
		for pass := uint64(0); pass < 3; pass++ {
			path = cspace.Densify(s, path, 4*opts.Step)
			path = cspace.Shortcut(s, path, plannerRaceShortcut, rng.Derive(opts.Seed, 0x5407+pass), nil)
		}
		return raceOutcome{ms: ms, length: cspace.PathLength(s, path), rounds: round, solved: true}
	}
	return raceOutcome{ms: float64(time.Since(start).Microseconds()) / 1000, rounds: maxRounds}
}

// raceOpts sizes a planner race on e: radial reach is the environment
// diagonal so the corner-to-corner benchmark query is inside every cone.
func raceOpts(sc Scale, e *env.Environment, seed uint64) core.Options {
	var d2 float64
	for d := 0; d < e.Dim(); d++ {
		span := e.Bounds.Hi[d] - e.Bounds.Lo[d]
		d2 += span * span
	}
	// A fine step keeps the open-space race growth-dominated: covering
	// the corner-to-corner distance takes many extension steps, which is
	// the work the bidirectional search halves. The narrow-passage walls
	// env is feasibility-dominated instead, so it races at the default
	// coarser step (both planners always share the same options).
	step := 0.025
	if e.Name == "walls" {
		step = 0.05
	}
	return core.Options{
		Procs:   8,
		Regions: 32,
		// Doubled node budget per round: a denser round-1 tree gives the
		// smoother corridor the path-cost comparison needs.
		NodesPerRegion: 2 * sc.NodesPerRegion,
		Step:           step,
		GoalBias:       0.1,
		Radius:         math.Sqrt(d2),
		RegionK:        4,
		Profile:        work.OpteronCluster(),
		Seed:           seed,
	}
}

// PlannerCompare races the radial tree planners to the first solution of
// e's corner-to-corner benchmark query and tabulates wall-clock
// milliseconds and smoothed path length per seed (the EXPERIMENTS.md
// "RRT vs RRT-Connect" table). Unsolved seeds report length 0 and the
// time of the full round budget. Summary notes give each planner's mean
// time, mean path length and solve rate, plus the pairwise speedup when
// both rrt and rrtconnect raced.
func PlannerCompare(sc Scale, e *env.Environment, planners []string) *metrics.Table {
	seeds, maxRounds := sc.RaceSeeds, sc.RaceRounds
	if seeds <= 0 {
		seeds = 5
	}
	if maxRounds <= 0 {
		maxRounds = 64
	}
	cols := make([]string, 0, 2*len(planners))
	for _, p := range planners {
		cols = append(cols, p+"-ms", p+"-pathlen")
	}
	t := &metrics.Table{
		Title:   fmt.Sprintf("RRT vs RRT-Connect to First Solution, %s (wall clock)", e.Name),
		XLabel:  "seed#",
		Columns: cols,
	}
	s := cspace.NewPointSpace(e)
	root := make(cspace.Config, e.Dim())
	goal := make(cspace.Config, e.Dim())
	for d := range root {
		root[d] = e.Bounds.Lo[d] + 0.05*(e.Bounds.Hi[d]-e.Bounds.Lo[d])
		goal[d] = e.Bounds.Lo[d] + 0.95*(e.Bounds.Hi[d]-e.Bounds.Lo[d])
	}
	if !s.Valid(root, nil) || !s.Valid(goal, nil) {
		panic(fmt.Sprintf("experiments: %s benchmark corners are not free", e.Name))
	}
	sums := make(map[string]*struct {
		ms, length float64
		solved     int
	}, len(planners))
	for _, p := range planners {
		sums[p] = &struct {
			ms, length float64
			solved     int
		}{}
	}
	for i := 0; i < seeds; i++ {
		row := make([]float64, 0, len(cols))
		for _, p := range planners {
			out := racePlanner(p, s, root, goal, raceOpts(sc, e, sc.Seed+uint64(i)), maxRounds)
			row = append(row, out.ms, out.length)
			sum := sums[p]
			sum.ms += out.ms
			if out.solved {
				sum.length += out.length
				sum.solved++
			}
		}
		t.AddRow(float64(i), row...)
	}
	for _, p := range planners {
		sum := sums[p]
		meanLen := 0.0
		if sum.solved > 0 {
			meanLen = sum.length / float64(sum.solved)
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: mean %.1f ms, mean path length %.3f, solved %d/%d",
			p, sum.ms/float64(seeds), meanLen, sum.solved, seeds))
	}
	if rrt, ok := sums["rrt"]; ok {
		if rc, ok := sums["rrtconnect"]; ok && rc.ms > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("rrtconnect speedup over rrt: %.2fx", rrt.ms/rc.ms))
		}
	}
	return t
}

// Planners runs the RRT vs RRT-Connect race on med-cube and the
// narrow-passage walls environment (the two EXPERIMENTS.md table
// workloads). planners selects the contestants; nil races both.
func Planners(sc Scale, planners []string) []*metrics.Table {
	if len(planners) == 0 {
		planners = []string{"rrt", "rrtconnect"}
	}
	return []*metrics.Table{
		PlannerCompare(sc, env.MedCube(), planners),
		PlannerCompare(sc, env.ByName("walls"), planners),
	}
}
