// Package prm implements the sequential Probabilistic Roadmap Method
// (Kavraki et al., 1996) used inside each subdivision region, plus the
// roadmap data type and query answering.
//
// The parallel planner in internal/core invokes SampleRegion and
// ConnectRegion once per region (Algorithm 1, line 8) and ConnectBoundary
// for each adjacent region pair (lines 10–12). Each kernel borrows its
// buffers from the Arena pool. All collision and nearest-neighbour work is
// metered through cspace.Counters so the load-balancing layers can charge
// virtual processors for the work actually performed.
package prm

import (
	"parmp/internal/cspace"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/knn"
	"parmp/internal/rng"
)

// Node is a roadmap vertex: a free configuration tagged with the region
// that produced it.
type Node struct {
	Q      cspace.Config
	Region int
}

// Roadmap is a graph over free configurations; edge weights are metric
// distances.
type Roadmap struct {
	G *graph.Graph[Node]
}

// NewRoadmap returns an empty roadmap.
func NewRoadmap() *Roadmap {
	return &Roadmap{G: graph.New[Node](0)}
}

// AddNode appends a roadmap vertex.
func (m *Roadmap) AddNode(n Node) graph.ID { return m.G.AddVertex(n) }

// NumNodes returns the vertex count.
func (m *Roadmap) NumNodes() int { return m.G.NumVertices() }

// NumEdges returns the edge count.
func (m *Roadmap) NumEdges() int { return m.G.NumEdges() }

// Params configures the sequential PRM planner.
type Params struct {
	// SamplesPerRegion is the number of sampling attempts per region;
	// valid configurations among them become roadmap nodes.
	SamplesPerRegion int
	// K is the number of nearest neighbours per connection attempt.
	K int
	// Sampler generates candidates (default uniform). Narrow-passage
	// samplers (Gaussian, bridge) concentrate nodes where connectivity is
	// hard, at higher collision cost per attempt.
	Sampler cspace.Sampler
}

func (p Params) sampler() cspace.Sampler {
	if p.Sampler == nil {
		return cspace.UniformSampler{}
	}
	return p.Sampler
}

// SampleRegion draws p.SamplesPerRegion uniform configurations in box and
// keeps the valid ones — the cheap first sub-phase whose per-region node
// counts are the paper's repartitioning weight for PRM. Fixed-attempt
// sampling makes a region's node count proportional to its free volume,
// which is the load model the paper's theoretical analysis assumes ("the
// total load that the region will experience is proportional to V_free").
// Uniform sampling draws candidates into the arena's scratch
// configuration and clones only the accepted ones; custom samplers keep
// their allocating contract.
func SampleRegion(s *cspace.Space, box geom.AABB, regionID int, p Params, r *rng.Stream) ([]Node, cspace.Counters) {
	a := GetArena()
	defer PutArena(a)
	return sampleRegion(s, box, regionID, p, r, a)
}

func sampleRegion(s *cspace.Space, box geom.AABB, regionID int, p Params, r *rng.Stream, a *Arena) ([]Node, cspace.Counters) {
	var work cspace.Counters
	nodes := make([]Node, 0, p.SamplesPerRegion)
	if _, uniform := p.sampler().(cspace.UniformSampler); uniform {
		for i := 0; i < p.SamplesPerRegion; i++ {
			a.sample = s.SampleInInto(a.sample, box, r, &work)
			if s.ValidS(a.sample, &a.sc, &work) {
				nodes = append(nodes, Node{Q: a.sample.Clone(), Region: regionID})
			}
		}
		return nodes, work
	}
	sampler := p.sampler()
	for i := 0; i < p.SamplesPerRegion; i++ {
		q, ok := sampler.Sample(s, box, r, &work)
		if ok {
			nodes = append(nodes, Node{Q: q, Region: regionID})
		}
	}
	return nodes, work
}

// ConnectRegion connects nodes[firstNew:] to their K nearest neighbours
// among all nodes with the local planner — the expensive sub-phase ("the
// most time consuming phase of the entire computation", ~90 % of total
// execution in the paper's breakdown). Every k-nearest pair is attempted
// exactly once (the paper's PRM attempts all k-nearest connections; no
// connected-component shortcut). firstNew = 0 connects a whole region;
// a later engine round passes its previous node count, so it pays for
// its new samples without re-attempting the earlier rounds' pairs.
func ConnectRegion(s *cspace.Space, nodes []Node, firstNew int, p Params) ([][2]int, cspace.Counters) {
	a := GetArena()
	defer PutArena(a)
	return connectRegion(s, nodes, firstNew, p, a)
}

func connectRegion(s *cspace.Space, nodes []Node, firstNew int, p Params, a *Arena) ([][2]int, cspace.Counters) {
	var work cspace.Counters
	if len(nodes) < 2 || firstNew >= len(nodes) {
		return nil, work
	}
	pts := a.points(nodes)
	a.tree.Reset(pts)
	seen := a.resetSeen()
	a.edges = a.edges[:0]
	k := p.K
	if k > len(pts)-1 {
		k = len(pts) - 1
	}
	// All kNN queries run as one batch through shared scratch (the tree
	// is static during connection), then candidate edges validate through
	// the batched SoA collision kernels.
	var evals int
	a.hits, a.offs, evals = a.tree.NearestBatch(&a.qsc, pts[firstNew:], k, firstNew, a.hits[:0], a.offs)
	work.KNNQueries += int64(len(pts) - firstNew)
	work.KNNEvals += int64(evals)
	for i := firstNew; i < len(pts); i++ {
		j := i - firstNew
		for _, h := range a.hits[a.offs[j]:a.offs[j+1]] {
			x, y := i, h.Index
			if x > y {
				x, y = y, x
			}
			key := [2]int{x, y}
			if seen[key] {
				continue
			}
			seen[key] = true
			if s.LocalPlanBatch(pts[x], pts[y], &a.bt, &work) {
				a.edges = append(a.edges, key)
			}
		}
	}
	return copyEdges(a.edges), work
}

// BoundaryResult is the product of connecting two adjacent regions.
type BoundaryResult struct {
	// Edges are (index into a's nodes, index into b's nodes) pairs that
	// were successfully connected.
	Edges [][2]int
	Work  cspace.Counters
	// Attempts is the number of cross-region connection attempts, each of
	// which is a remote access when the regions live on different
	// processors.
	Attempts int
}

// ConnectBoundary attempts connections between the roadmaps of two
// adjacent regions: the maxSources nodes of region a closest to region
// b's roadmap (the boundary frontier — only samples near the shared
// boundary participate, which is what the inter-region overlap exists
// for) each try the local planner against their k nearest nodes in b.
// maxSources <= 0 uses every node of a.
func ConnectBoundary(s *cspace.Space, aNodes, bNodes []Node, k, maxSources int) BoundaryResult {
	ar := GetArena()
	defer PutArena(ar)
	return connectBoundary(s, aNodes, bNodes, k, maxSources, ar)
}

func connectBoundary(s *cspace.Space, aNodes, bNodes []Node, k, maxSources int, ar *Arena) BoundaryResult {
	var res BoundaryResult
	if len(aNodes) == 0 || len(bNodes) == 0 {
		return res
	}
	bPts := ar.points(bNodes)
	ar.tree.Reset(bPts)
	if k <= 0 {
		k = 1
	}

	// Frontier selection: a's nodes nearest to the centroid of b.
	if cap(ar.sources) < len(aNodes) {
		ar.sources = make([]int, 0, len(aNodes))
	}
	sources := ar.sources[:0]
	if maxSources > 0 && maxSources < len(aNodes) {
		dim := len(bPts[0])
		if cap(ar.centroid) < dim {
			ar.centroid = make(geom.Vec, dim)
		}
		centroid := ar.centroid[:dim]
		for i := range centroid {
			centroid[i] = 0
		}
		for _, p := range bPts {
			centroid.AddInPlace(p)
		}
		centroid.ScaleInPlace(1 / float64(len(bPts)))
		aPts := ar.auxPoints(aNodes)
		var hits []knn.Result
		hits, _ = knn.BruteNearestInto(&ar.qsc, aPts, centroid, maxSources, -1, ar.hits[:0])
		ar.hits = hits
		res.Work.KNNQueries++
		res.Work.KNNEvals += int64(len(aPts))
		for _, h := range hits {
			sources = append(sources, h.Index)
		}
	} else {
		for i := range aNodes {
			sources = append(sources, i)
		}
	}
	ar.sources = sources

	ar.edges = ar.edges[:0]
	for _, i := range sources {
		var evals int
		ar.hits, evals = ar.tree.NearestInto(&ar.qsc, aNodes[i].Q, k, -1, ar.hits[:0])
		res.Work.KNNQueries++
		res.Work.KNNEvals += int64(evals)
		for _, h := range ar.hits {
			res.Attempts++
			if s.LocalPlanBatch(aNodes[i].Q, bNodes[h.Index].Q, &ar.bt, &res.Work) {
				ar.edges = append(ar.edges, [2]int{i, h.Index})
				break // one bridge per source node suffices
			}
		}
	}
	res.Edges = copyEdges(ar.edges)
	return res
}
