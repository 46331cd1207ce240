package core

import (
	"errors"
	"fmt"
	"math"

	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/rng"
	"parmp/internal/rrt"
)

// NewRRTConnectEngine validates opts and builds the radial subdivision
// about root for RRT-Connect: every region grows TWO trees — one rooted
// at the shared root (the subdivision apex), one at the goal side of its
// cone (at the global goal for the region containing it) — alternately
// extending and greedily connecting until they meet. Met pairs stop
// growing. opts.Star is ignored.
//
// RRT-Connect marches both trees along straight local plans in both
// directions, so it requires symmetric local motions: spaces with a
// steering function (Dubins) are rejected. The goal must be a
// valid-length configuration; it seeds the goal-side tree of whichever
// region contains it.
func NewRRTConnectEngine(s *cspace.Space, root, goal cspace.Config, opts Options) (*TreeEngine, error) {
	e, err := newTreeEngine(s, root, opts, saltConnectConstruct)
	if err != nil {
		return nil, err
	}
	if s.Steer != nil {
		return nil, errors.New("core: RRT-Connect requires symmetric local motions (steered spaces are not supported)")
	}
	if goal == nil {
		return nil, errors.New("core: RRT-Connect requires a goal configuration")
	}
	if goal.Dim() != root.Dim() {
		return nil, fmt.Errorf("core: goal dimension %d != root dimension %d", goal.Dim(), root.Dim())
	}
	e.goal = goal.Clone()
	// Random radial cones cover direction space only approximately (each
	// half-angle is the nearest-ray spacing), so the goal's direction can
	// fall in a gap between every cone. Deterministically widen the cone
	// nearest the goal until it contains it: RRT-Connect's advantage
	// hinges on exactly one region rooting its goal-side tree at the goal.
	rg := e.rg
	if v := goal.Sub(e.root); v.Norm() > 0 && v.Norm() <= e.opts.Radius {
		best, bestAngle := -1, math.MaxFloat64
		for i := 0; i < rg.NumRegions(); i++ {
			if a := geom.AngleBetween(v, rg.Region(i).Ray); a < bestAngle {
				best, bestAngle = i, a
			}
		}
		if reg := rg.Region(best); reg.HalfAngle <= bestAngle {
			reg.HalfAngle = bestAngle + 1e-9
		}
	}
	e.bis = make([]*rrt.BiTree, rg.NumRegions())
	return e, nil
}

// growPair grows a round-local copy of region i's committed tree pair;
// before the region's first committed round it roots a fresh pair,
// consuming the round's stream exactly like the one-shot planner. The
// branch is the merged, root-anchored view: an unmet goal-side tree is
// left out (its nodes cannot reach the root) but keeps growing next
// round.
func (e *TreeEngine) growPair(i int, params rrt.Params, r *rng.Stream) treeStep {
	reg := e.rg.Region(i)
	var bi *rrt.BiTree
	var rootWork cspace.Counters
	if e.bis[i] != nil {
		bi = e.bis[i].Copy()
	} else {
		bi, rootWork = rrt.NewBiTree(e.s, reg, e.goal, r)
	}
	res := rrt.GrowBiTree(e.s, reg, bi, params, r)
	res.Work.Add(rootWork)
	return treeStep{
		branch: rrt.MergeBiTree(res.Bi),
		nodes:  bi.Len(),
		work:   res.Work,
		commit: func() { e.bis[i] = res.Bi },
	}
}

// prunePair repairs a round-local copy of region i's tree pair: both
// trees prune and regraft like plain branches and the met state is
// re-derived. The remap translates the trees' own remaps into merged
// branch ids: A nodes keep their (compacted) ids; B nodes follow at
// offset len(A) and survive only while the pair stays met.
func (e *TreeEngine) prunePair(i int, s *cspace.Space, dc *cspace.DeltaChecker) treeStep {
	old := e.bis[i]
	if old == nil {
		return treeStep{}
	}
	oldLenA := old.A.Len()
	oldMerged := oldLenA
	if old.Met && old.B != nil {
		oldMerged += old.B.Len()
	}
	bi := old.Copy()
	remapA, remapB, st := rrt.PruneBiTree(s, dc, bi, repairGraftK)
	remap := make([]int, oldMerged)
	copy(remap, remapA)
	for j := oldLenA; j < oldMerged; j++ {
		if bj := j - oldLenA; bi.Met && remapB[bj] >= 0 {
			remap[j] = bi.A.Len() + remapB[bj]
		} else {
			remap[j] = -1
		}
	}
	return treeStep{
		branch: rrt.MergeBiTree(bi),
		nodes:  bi.Len(),
		remap:  remap,
		prune:  st,
		commit: func() { e.bis[i] = bi },
	}
}

// metSummary counts the met tree pairs and reports whether the pair
// rooted exactly at the goal is among them (zero for the single-tree
// variants). Re-derived on every commit: a repair can un-meet the goal
// region's pair, flipping GoalConnected back off.
func (e *TreeEngine) metSummary() (met int, goalConnected bool) {
	for _, bi := range e.bis {
		if bi == nil || !bi.Met {
			continue
		}
		met++
		if bi.B != nil && bi.B.Nodes[0].Q.Equal(e.goal, 0) {
			goalConnected = true
		}
	}
	return met, goalConnected
}

// ParallelRRTConnect runs the radial-subdivision parallel RRT-Connect
// rooted at root, with every region's goal-side tree anchored toward
// goal (exactly at goal for the region containing it). It is exactly one
// growth round of NewRRTConnectEngine's engine; long-lived callers that
// want to keep extending the same pairs (or cancel mid-build) should
// construct the engine directly.
func ParallelRRTConnect(s *cspace.Space, root, goal cspace.Config, opts Options) (*RRTResult, error) {
	eng, err := NewRRTConnectEngine(s, root, goal, opts)
	if err != nil {
		return nil, err
	}
	if err := eng.GrowRound(nil); err != nil {
		return nil, err
	}
	return eng.Result(), nil
}
