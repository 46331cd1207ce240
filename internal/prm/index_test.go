package prm

import (
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/knn"
	"parmp/internal/rng"
)

// buildTestRoadmap assembles a roadmap from one whole-region pass.
func buildTestRoadmap(t *testing.T, s *cspace.Space, samples int, seed uint64) *Roadmap {
	t.Helper()
	return buildRegion(s, geom.Box3(0, 0, 0, 1, 1, 1), 0, Params{SamplesPerRegion: samples, K: 6}, rng.New(seed)).roadmap(s)
}

// bruteQueryOK is the reference for Index.Query's success criterion,
// sharing no code with Index: both endpoints must be valid, each attaches
// to those of its k nearest roadmap nodes (by brute-force scan) the local
// planner reaches, and the query succeeds iff some start attachment and
// some goal attachment share a connected component.
func bruteQueryOK(s *cspace.Space, m *Roadmap, start, goal cspace.Config, k int) bool {
	if !s.Valid(start, nil) || !s.Valid(goal, nil) {
		return false
	}
	pts := make([]geom.Vec, m.NumNodes())
	for i := range pts {
		pts[i] = m.G.Vertex(graph.ID(i)).Q
	}
	labels, _ := m.G.ConnectedComponents()
	attached := func(q cspace.Config) map[int]bool {
		comps := map[int]bool{}
		for _, h := range knn.BruteNearest(pts, q, k) {
			if s.LocalPlan(q, pts[h.Index], nil) {
				comps[labels[h.Index]] = true
			}
		}
		return comps
	}
	goalComps := attached(goal)
	for c := range attached(start) {
		if goalComps[c] {
			return true
		}
	}
	return false
}

func TestIndexQueryFindsValidPath(t *testing.T) {
	s := freeSpace()
	m := buildTestRoadmap(t, s, 60, 7)
	ix := BuildIndex(m)
	if ix.NumNodes() != m.NumNodes() {
		t.Fatalf("index has %d nodes for %d roadmap nodes", ix.NumNodes(), m.NumNodes())
	}
	start, goal := geom.V(0.05, 0.05, 0.05), geom.V(0.95, 0.95, 0.95)
	var c cspace.Counters
	path, ok := ix.Query(s, start, goal, 5, &c)
	if !ok {
		t.Fatal("query in free space should succeed")
	}
	if !path[0].Equal(start, 1e-12) || !path[len(path)-1].Equal(goal, 1e-12) {
		t.Fatal("path must run start to goal")
	}
	for i := 0; i+1 < len(path); i++ {
		if !s.LocalPlan(path[i], path[i+1], nil) {
			t.Fatalf("path hop %d invalid", i)
		}
	}
	if c.KNNQueries == 0 {
		t.Fatal("query work not metered")
	}
}

func TestIndexQueryMatchesLegacyQuery(t *testing.T) {
	// The index must agree with the brute-force reference on
	// success/failure across environments and endpoints, and every edge
	// of a returned path must be locally plannable.
	cases := []struct {
		name  string
		space *cspace.Space
	}{
		{"free", freeSpace()},
		{"med-cube", cspace.NewPointSpace(env.MedCube())},
	}
	endpoints := [][2]geom.Vec{
		{geom.V(0.05, 0.05, 0.05), geom.V(0.95, 0.95, 0.95)},
		{geom.V(0.1, 0.9, 0.1), geom.V(0.9, 0.1, 0.9)},
		{geom.V(0.5, 0.5, 0.5), geom.V(0.95, 0.95, 0.95)}, // center is blocked in med-cube
	}
	for _, tc := range cases {
		m := buildTestRoadmap(t, tc.space, 80, 11)
		ix := BuildIndex(m)
		for i, ep := range endpoints {
			refOK := bruteQueryOK(tc.space, m, ep[0], ep[1], 4)
			ixPath, ixOK := ix.Query(tc.space, ep[0], ep[1], 4, nil)
			if refOK != ixOK {
				t.Fatalf("%s endpoint %d: reference ok=%v, index ok=%v", tc.name, i, refOK, ixOK)
			}
			if ixOK && len(ixPath) < 2 {
				t.Fatalf("%s endpoint %d: degenerate path", tc.name, i)
			}
			for j := 0; j+1 < len(ixPath); j++ {
				if !tc.space.LocalPlan(ixPath[j], ixPath[j+1], nil) {
					t.Fatalf("%s endpoint %d: path edge %d not plannable", tc.name, i, j)
				}
			}
		}
	}
}

func TestIndexQueryDisconnected(t *testing.T) {
	e := &env.Environment{
		Name:   "wall",
		Bounds: geom.Box3(0, 0, 0, 1, 1, 1),
		Obstacles: []env.Obstacle{
			env.BoxObstacle{Box: geom.Box3(0.45, 0, 0, 0.55, 1, 1)},
		},
	}
	s := cspace.NewPointSpace(e)
	m := NewRoadmap()
	m.AddNode(Node{Q: geom.V(0.1, 0.5, 0.5)})
	m.AddNode(Node{Q: geom.V(0.9, 0.5, 0.5)})
	ix := BuildIndex(m)
	if ix.Components() != 2 {
		t.Fatalf("components = %d, want 2", ix.Components())
	}
	if _, ok := ix.Query(s, geom.V(0.05, 0.5, 0.5), geom.V(0.95, 0.5, 0.5), 1, nil); ok {
		t.Fatal("wall-separated query must fail")
	}
}

func TestIndexQueryDoesNotMutate(t *testing.T) {
	s := freeSpace()
	m := buildTestRoadmap(t, s, 40, 21)
	ix := BuildIndex(m)
	nodes, edges := m.NumNodes(), m.NumEdges()
	for i := 0; i < 5; i++ {
		ix.Query(s, geom.V(0.1, 0.1, 0.1), geom.V(0.9, 0.9, 0.9), 4, nil)
	}
	if m.NumNodes() != nodes || m.NumEdges() != edges {
		t.Fatalf("index query mutated roadmap: %d/%d -> %d/%d", nodes, edges, m.NumNodes(), m.NumEdges())
	}
}

func TestIndexQueryEmptyRoadmap(t *testing.T) {
	s := freeSpace()
	ix := BuildIndex(NewRoadmap())
	if _, ok := ix.Query(s, geom.V(0.1, 0.1, 0.1), geom.V(0.9, 0.9, 0.9), 4, nil); ok {
		t.Fatal("empty roadmap query must fail")
	}
}

func TestConnectRegionIncrementalMatchesFull(t *testing.T) {
	// The pooled entry point must match the arena body at firstNew = 0,
	// and an incremental pass over appended nodes must only produce edges
	// touching at least one new node.
	s := freeSpace()
	res := buildRegion(s, geom.Box3(0, 0, 0, 1, 1, 1), 0, Params{SamplesPerRegion: 50, K: 4}, rng.New(3))
	p := Params{SamplesPerRegion: 50, K: 4}

	a := GetArena()
	defer PutArena(a)
	full, _ := connectRegion(s, res.Nodes, 0, p, a)
	ref, _ := ConnectRegion(s, res.Nodes, 0, p)
	if len(full) != len(ref) {
		t.Fatalf("arena body produced %d edges, entry point %d", len(full), len(ref))
	}
	for i := range full {
		if full[i] != ref[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, full[i], ref[i])
		}
	}

	// Append more nodes and connect incrementally.
	more, _ := SampleRegion(s, geom.Box3(0, 0, 0, 1, 1, 1), 0, Params{SamplesPerRegion: 30, K: 4}, rng.New(4))
	firstNew := len(res.Nodes)
	all := append(append([]Node(nil), res.Nodes...), more...)
	inc, _ := connectRegion(s, all, firstNew, p, a)
	if len(inc) == 0 {
		t.Fatal("incremental connect found no edges in free space")
	}
	for _, e := range inc {
		if e[0] < firstNew && e[1] < firstNew {
			t.Fatalf("incremental edge %v touches only old nodes", e)
		}
	}
}
