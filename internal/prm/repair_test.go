package prm

import (
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/rng"
)

// buildRepairRoadmap grows a small roadmap in e and returns it with its
// space.
func buildRepairRoadmap(t *testing.T, e *env.Environment, samples int) (*cspace.Space, *Roadmap) {
	t.Helper()
	s := cspace.NewPointSpace(e)
	p := Params{SamplesPerRegion: samples, K: 6}
	r := rng.New(11)
	nodes, _ := SampleRegion(s, e.Bounds, 0, p, r)
	edges, _ := ConnectRegion(s, nodes, 0, p)
	m := NewRoadmap()
	for _, nd := range nodes {
		m.AddNode(nd)
	}
	for _, ed := range edges {
		m.G.AddEdge(graph.ID(ed[0]), graph.ID(ed[1]), s.Distance(nodes[ed[0]].Q, nodes[ed[1]].Q))
	}
	return s, m
}

func TestRevalidateRegionAgainstFullRecheck(t *testing.T) {
	base := env.Free()
	s, m := buildRepairRoadmap(t, base, 250)
	nodes := make([]Node, m.NumNodes())
	for i := range nodes {
		nodes[i] = m.G.Vertex(graph.ID(i))
	}
	var edges [][2]int
	m.G.ForEachEdge(func(a, b graph.ID, w float64) { edges = append(edges, [2]int{int(a), int(b)}) })

	mutated := base.Clone()
	d, err := mutated.AddObstacle(env.BoxObstacle{Box: geom.Box3(0.35, 0.35, 0.35, 0.6, 0.6, 0.6)})
	if err != nil {
		t.Fatal(err)
	}
	dc := cspace.NewDeltaChecker(s, d)
	rr := RevalidateRegion(dc, nodes, edges, nil)

	after := s.WithEnv(mutated)
	deadN, deadE := 0, 0
	for i, nd := range nodes {
		want := after.Valid(nd.Q, nil)
		if rr.Alive[i] != want {
			t.Fatalf("node %d alive=%v, full recheck %v", i, rr.Alive[i], want)
		}
		if !want {
			deadN++
		}
	}
	for j, ed := range edges {
		want := after.Valid(nodes[ed[0]].Q, nil) && after.Valid(nodes[ed[1]].Q, nil) &&
			after.LocalPlan(nodes[ed[0]].Q, nodes[ed[1]].Q, nil)
		if rr.KeepEdge[j] != want {
			t.Fatalf("edge %d keep=%v, full recheck %v", j, rr.KeepEdge[j], want)
		}
		if !want {
			deadE++
		}
	}
	if deadN == 0 || deadE == 0 {
		t.Fatalf("weak test: deadN=%d deadE=%d (want both > 0)", deadN, deadE)
	}
	if rr.DeadNodes != deadN || rr.DeadEdges != deadE {
		t.Fatalf("stats dead=%d/%d, counted %d/%d", rr.DeadNodes, rr.DeadEdges, deadN, deadE)
	}
	// Culling must have saved work: the obstacle covers a corner of the
	// volume, so most nodes are screened out geometrically.
	if rr.CheckedNodes >= len(nodes) {
		t.Fatalf("no node culling: checked %d of %d", rr.CheckedNodes, len(nodes))
	}
}

func TestAffectedVerticesSuperset(t *testing.T) {
	base := env.Free()
	s, m := buildRepairRoadmap(t, base, 300)
	ix := BuildIndex(m)
	mutated := base.Clone()
	d, err := mutated.AddObstacle(env.SphereObstacle{Center: geom.V(0.5, 0.5, 0.5), Radius: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	dc := cspace.NewDeltaChecker(s, d)
	cand := ix.AffectedVertices(dc)
	in := make(map[int]bool, len(cand))
	for _, i := range cand {
		in[i] = true
	}
	after := s.WithEnv(mutated)
	for i := 0; i < m.NumNodes(); i++ {
		q := m.G.Vertex(graph.ID(i)).Q
		if !after.Valid(q, nil) && !in[i] {
			t.Fatalf("vertex %d became blocked but is not a candidate", i)
		}
	}
	if len(cand) == 0 || len(cand) == m.NumNodes() {
		t.Fatalf("weak candidate set: %d of %d", len(cand), m.NumNodes())
	}
	// Removal-only deltas select nothing.
	m2 := base.Clone()
	m2.Obstacles = append(m2.Obstacles, env.SphereObstacle{Center: geom.V(0.2, 0.2, 0.2), Radius: 0.05})
	dRem, err := m2.RemoveObstacle(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.AffectedVertices(cspace.NewDeltaChecker(s, dRem)); got != nil {
		t.Fatalf("removal delta selected %d candidates", len(got))
	}
}

func TestRelabelScopedMatchesFullRelabel(t *testing.T) {
	base := env.Free()
	s, m := buildRepairRoadmap(t, base, 220)
	oldLabels, _ := m.G.ConnectedComponents()

	// Simulate a repair: drop every vertex in a slab of the workspace by
	// rebuilding the roadmap without them (what the engine's compaction
	// does), tracking old→new ids.
	mutated := base.Clone()
	d, err := mutated.AddObstacle(env.BoxObstacle{Box: geom.Box3(0.45, 0, 0, 0.55, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	dc := cspace.NewDeltaChecker(s, d)

	oldToNew := make([]int, m.NumNodes())
	repaired := NewRoadmap()
	for i := 0; i < m.NumNodes(); i++ {
		nd := m.G.Vertex(graph.ID(i))
		if dc.ConfigStillFree(nd.Q, nil) {
			oldToNew[i] = int(repaired.AddNode(nd))
		} else {
			oldToNew[i] = -1
		}
	}
	touched := make([]bool, m.NumNodes()) // labels bounded by node count
	markTouched := func(oldID int) { touched[oldLabels[oldID]] = true }
	m.G.ForEachEdge(func(a, b graph.ID, w float64) {
		na, nb := oldToNew[a], oldToNew[b]
		if na < 0 || nb < 0 {
			markTouched(int(a))
			return
		}
		va := repaired.G.Vertex(graph.ID(na)).Q
		vb := repaired.G.Vertex(graph.ID(nb)).Q
		if dc.EdgeStillFree(va, vb, nil) {
			repaired.G.AddEdge(graph.ID(na), graph.ID(nb), w)
		} else {
			markTouched(int(a))
		}
	})
	for i, nn := range oldToNew {
		if nn < 0 {
			markTouched(i)
		}
	}

	oldLabelOfNew := make([]int, repaired.NumNodes())
	for oldID, newID := range oldToNew {
		if newID >= 0 {
			oldLabelOfNew[newID] = oldLabels[oldID]
		}
	}
	gotLabels, gotComps := RelabelScoped(repaired, oldLabelOfNew, touched)
	wantLabels, wantComps := repaired.G.ConnectedComponents()
	if gotComps != wantComps {
		t.Fatalf("scoped comps = %d, full = %d", gotComps, wantComps)
	}
	// Labels must agree up to a bijection.
	fwd := make(map[int]int)
	for v := range gotLabels {
		if mapped, ok := fwd[gotLabels[v]]; ok {
			if mapped != wantLabels[v] {
				t.Fatalf("vertex %d: scoped label %d maps to both %d and %d",
					v, gotLabels[v], mapped, wantLabels[v])
			}
		} else {
			fwd[gotLabels[v]] = wantLabels[v]
		}
	}
	if len(fwd) != wantComps {
		t.Fatalf("label bijection has %d entries, want %d", len(fwd), wantComps)
	}
	// Sanity: the slab actually split or shrank something.
	if repaired.NumNodes() == m.NumNodes() {
		t.Fatal("weak test: no vertex died")
	}
	// And IndexFromParts serves queries with those labels.
	ix := IndexFromParts(repaired, gotLabels, gotComps)
	if ix.Components() != gotComps || ix.NumNodes() != repaired.NumNodes() {
		t.Fatal("IndexFromParts lost parts")
	}
}
