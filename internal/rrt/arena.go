package rrt

import (
	"sync"

	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/knn"
	"parmp/internal/region"
	"parmp/internal/rng"
)

// Arena bundles the reusable buffers one RRT task needs: collision
// scratch, kNN query scratch, a rebuildable kd-tree, point slices and
// candidate-configuration buffers. Extend/Connect tasks borrow one from
// a sync.Pool so steady-state growth allocates only the accepted tree
// nodes. An Arena is not safe for concurrent use.
type Arena struct {
	sc    cspace.Scratch
	bt    cspace.Batch
	qsc   knn.QueryScratch
	tree  knn.KDTree
	pts   []geom.Vec
	aux   []geom.Vec
	hits  []knn.Result
	near  []knn.Result
	qRand cspace.Config
	qNew  cspace.Config
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// GetArena borrows an arena from the shared pool.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// PutArena returns an arena to the pool.
func PutArena(a *Arena) { arenaPool.Put(a) }

// treePoints fills a.pts with the configurations of nodes.
func (a *Arena) treePoints(nodes []Node) []geom.Vec {
	if cap(a.pts) < len(nodes) {
		a.pts = make([]geom.Vec, len(nodes))
	}
	a.pts = a.pts[:len(nodes)]
	for i, n := range nodes {
		a.pts[i] = n.Q
	}
	return a.pts
}

// auxPoints fills a.aux with the configurations of nodes.
func (a *Arena) auxPoints(nodes []Node) []geom.Vec {
	if cap(a.aux) < len(nodes) {
		a.aux = make([]geom.Vec, len(nodes))
	}
	a.aux = a.aux[:len(nodes)]
	for i, n := range nodes {
		a.aux[i] = n.Q
	}
	return a.aux
}

// sampleCone draws the next growth sample into a.qRand: reg's cone
// target with probability goalBias, else a uniform point in the cone.
func (a *Arena) sampleCone(reg *region.Region, target geom.Vec, goalBias float64, r *rng.Stream) cspace.Config {
	if r.Float64() < goalBias {
		a.qRand = geom.CopyInto(a.qRand, target)
	} else {
		a.qRand = region.SampleInConeInto(a.qRand, reg, r)
	}
	return a.qRand
}
