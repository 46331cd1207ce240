package prm

import (
	"sync"

	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/knn"
)

// Arena bundles the reusable buffers one PRM task needs: collision
// scratch, kNN query scratch, a rebuildable kd-tree, point slices, hit
// and edge accumulators, and the dedup set. Region tasks borrow one from
// a sync.Pool for the duration of a kernel call, so steady-state
// planning allocates only the nodes and edges it actually returns. An
// Arena is not safe for concurrent use.
type Arena struct {
	sc       cspace.Scratch
	bt       cspace.Batch
	qsc      knn.QueryScratch
	tree     knn.KDTree
	pts      []geom.Vec
	aux      []geom.Vec
	hits     []knn.Result
	offs     []int
	edges    [][2]int
	sources  []int
	centroid geom.Vec
	sample   cspace.Config
	seen     map[[2]int]bool
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// GetArena borrows an arena from the shared pool.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// PutArena returns an arena to the pool. The arena keeps its buffers;
// only logical state is cleared by the kernels that use it.
func PutArena(a *Arena) { arenaPool.Put(a) }

// points fills a.pts with the configurations of nodes.
func (a *Arena) points(nodes []Node) []geom.Vec {
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

// resetSeen returns the cleared dedup set.
func (a *Arena) resetSeen() map[[2]int]bool {
	if a.seen == nil {
		a.seen = make(map[[2]int]bool)
	} else {
		clear(a.seen)
	}
	return a.seen
}

// copyEdges returns an owned copy of the arena's edge accumulator, or
// nil when no edges were found.
func copyEdges(edges [][2]int) [][2]int {
	if len(edges) == 0 {
		return nil
	}
	out := make([][2]int, len(edges))
	copy(out, edges)
	return out
}
