// Package rrt implements the sequential Rapidly-exploring Random Tree
// (LaValle & Kuffner, 2001) used inside each radial-subdivision region.
//
// Each region grows a branch rooted at the shared root configuration,
// biased toward the region's target point on the subdivision sphere
// (Algorithm 2 of the paper, lines 10–12). Growth is constrained to the
// region's cone (plus overlap), and all collision work is metered through
// cspace.Counters for load accounting.
package rrt

import (
	"math"

	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/knn"
	"parmp/internal/region"
	"parmp/internal/rng"
)

// Node is a tree vertex: configuration plus parent index (-1 for root).
type Node struct {
	Q      cspace.Config
	Parent int
	Region int
}

// Tree is an RRT branch: nodes[0] is the root.
type Tree struct {
	Nodes []Node
}

// NewTree returns a tree containing only root.
func NewTree(root cspace.Config, regionID int) *Tree {
	return &Tree{Nodes: []Node{{Q: root.Clone(), Parent: -1, Region: regionID}}}
}

// Len returns the node count.
func (t *Tree) Len() int { return len(t.Nodes) }

// PathToRoot returns the node indices from node i back to the root.
func (t *Tree) PathToRoot(i int) []int {
	var path []int
	for ; i >= 0; i = t.Nodes[i].Parent {
		path = append(path, i)
	}
	return path
}

// Params configures region RRT growth.
type Params struct {
	// Nodes is the target number of tree nodes to grow in the region.
	Nodes int
	// Step is Δq, the maximum extension step in metric distance.
	Step float64
	// GoalBias is the probability of sampling the region's cone target
	// instead of a uniform point in the cone.
	GoalBias float64
}

// itersPerNode sets a growth call's expansion budget: itersPerNode ×
// Nodes iterations, so a region whose cone is mostly blocked stops.
const itersPerNode = 20

func (p Params) maxIters() int { return itersPerNode * p.Nodes }

// Result is the product of growing one region branch.
type Result struct {
	Tree *Tree
	Work cspace.Counters
	// Iters is the number of expansion iterations consumed.
	Iters int
}

// GrowTree grows tree inside reg until it has p.Nodes nodes (total, not
// additional) or the iteration budget runs out. Each iteration samples
// in the cone (biased toward the cone target), extends the nearest tree
// node by at most Step, and keeps the new node if the extension is
// collision-free and stays inside the (overlap-widened) cone. A fresh
// NewTree(reg.Apex, reg.ID) starts a region's branch; an engine's later
// rounds pass the previous round's tree to resume growth.
//
// The returned work counters reflect the actual collision effort, which
// varies strongly with the obstacle density in the cone's direction —
// exactly the dynamic, hard-to-estimate workload the paper describes for
// radial RRT.
func GrowTree(s *cspace.Space, reg *region.Region, tree *Tree, p Params, r *rng.Stream) Result {
	a := GetArena()
	defer PutArena(a)
	return growTree(s, reg, tree, p, r, a)
}

func growTree(s *cspace.Space, reg *region.Region, tree *Tree, p Params, r *rng.Stream, a *Arena) Result {
	res := Result{Tree: tree}
	target := region.ConeTarget(reg)
	for res.Iters = 0; res.Iters < p.maxIters() && tree.Len() < p.Nodes; res.Iters++ {
		extendOnce(s, reg, tree, a.sampleCone(reg, target, p.GoalBias, r), p.Step, &res.Work, a)
	}
	return res
}

// nearest returns the index of the node nearest q under the space's
// weighted metric (angular DOFs are down-weighted so spatial exploration
// is not dominated by heading differences) and its distance, metering
// one brute-force kNN query: branches stay small per region, so a scan
// beats maintaining an index.
func nearest(s *cspace.Space, nodes []Node, q cspace.Config, w *cspace.Counters) (int, float64) {
	idx, best := 0, math.Inf(1)
	for i, n := range nodes {
		if d := s.Distance(n.Q, q); d < best {
			idx, best = i, d
		}
	}
	w.KNNQueries++
	w.KNNEvals += int64(len(nodes))
	return idx, best
}

// extendOnce extends t one step from its node nearest qRand toward qRand
// and reports whether the new node was kept.
func extendOnce(s *cspace.Space, reg *region.Region, t *Tree, qRand cspace.Config, step float64, w *cspace.Counters, a *Arena) bool {
	near, _ := nearest(s, t.Nodes, qRand, w)
	_, ok := acceptStep(s, reg, t, near, qRand, step, w, a)
	return ok
}

// acceptStep steps from t's node from toward q by at most step and
// appends the new node when it stays in bounds, stays within the region
// (cone plus overlap), is valid, and the edge to it is free. Steered
// spaces are exempt from the cone: a feasible curve's first step
// generally does not move toward the sample, so the cone acts as a
// sampling bias only ("some overlap between regions is allowed so
// branches can explore part of the space in adjacent regions"). reached
// reports that the step arrived at q exactly.
func acceptStep(s *cspace.Space, reg *region.Region, t *Tree, from int, q cspace.Config, step float64, w *cspace.Counters, a *Arena) (reached, ok bool) {
	qNear := t.Nodes[from].Q
	a.qNew, reached = s.StepTowardInto(a.qNew, qNear, q, step)
	qNew := a.qNew
	w.Samples++
	if !s.Bounds.Contains(qNew) {
		return false, false
	}
	if s.Steer == nil && !region.InCone(reg, qNew[:reg.Apex.Dim()]) {
		return false, false
	}
	if !s.ValidS(qNew, &a.sc, w) {
		return false, false
	}
	if !s.LocalPlanBatch(qNear, qNew, &a.bt, w) {
		return false, false
	}
	t.Nodes = append(t.Nodes, Node{Q: qNew.Clone(), Parent: from, Region: reg.ID})
	return reached, true
}

// Connect attempts to join two region branches: for each frontier node of
// a (up to kFrontier nodes nearest to b's cone target), try a local plan
// to the nearest nodes of b. It returns the first successful bridging pair
// (index in a, index in b) and ok.
func Connect(s *cspace.Space, a, b *Tree, bTarget geom.Vec, kFrontier int, c *cspace.Counters) (int, int, bool) {
	ar := GetArena()
	defer PutArena(ar)
	return connect(s, a, b, bTarget, kFrontier, c, ar)
}

func connect(s *cspace.Space, a, b *Tree, bTarget geom.Vec, kFrontier int, c *cspace.Counters, ar *Arena) (int, int, bool) {
	if a.Len() == 0 || b.Len() == 0 {
		return 0, 0, false
	}
	aPts := ar.auxPoints(a.Nodes)
	bPts := ar.treePoints(b.Nodes)
	// Frontier of a: nodes nearest to b's territory.
	frontier, _ := knn.BruteNearestInto(&ar.qsc, aPts, bTarget, kFrontier, -1, ar.near[:0])
	ar.near = frontier
	ar.tree.Reset(bPts)
	if c != nil {
		c.KNNQueries += int64(1 + len(frontier))
	}
	for _, f := range frontier {
		var evals int
		ar.hits, evals = ar.tree.NearestInto(&ar.qsc, aPts[f.Index], 3, -1, ar.hits[:0])
		if c != nil {
			c.KNNEvals += int64(evals)
		}
		for _, h := range ar.hits {
			if s.LocalPlanBatch(aPts[f.Index], bPts[h.Index], &ar.bt, c) {
				return f.Index, h.Index, true
			}
		}
	}
	return 0, 0, false
}
