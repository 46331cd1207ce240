package prm

import (
	"bytes"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/graph"
	"parmp/internal/rng"
)

func TestRoadmapSaveLoadRoundTrip(t *testing.T) {
	s := cspace.NewPointSpace(env.MedCube())
	m := buildRegion(s, geom.Box3(0, 0, 0, 1, 1, 1), 0,
		Params{SamplesPerRegion: 40, K: 4}, rng.New(1)).roadmap(s)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != m.NumNodes() || back.NumEdges() != m.NumEdges() {
		t.Fatalf("round trip: %d/%d vs %d/%d",
			back.NumNodes(), back.NumEdges(), m.NumNodes(), m.NumEdges())
	}
	for i := 0; i < m.NumNodes(); i++ {
		a := m.G.Vertex(graph.ID(i))
		b := back.G.Vertex(graph.ID(i))
		if !a.Q.Equal(b.Q, 0) || a.Region != b.Region {
			t.Fatalf("node %d differs", i)
		}
	}
	// A query must work identically on the reloaded roadmap.
	p1, ok1 := BuildIndex(m).Query(s, geom.V(0.05, 0.05, 0.05), geom.V(0.95, 0.05, 0.05), 5, nil)
	p2, ok2 := BuildIndex(back).Query(s, geom.V(0.05, 0.05, 0.05), geom.V(0.95, 0.05, 0.05), 5, nil)
	if ok1 != ok2 || len(p1) != len(p2) {
		t.Fatalf("query mismatch after reload: %v/%d vs %v/%d", ok1, len(p1), ok2, len(p2))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a roadmap"))); err == nil {
		t.Fatal("garbage should fail to decode")
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRoadmap().Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 0 || back.NumEdges() != 0 {
		t.Fatal("empty roadmap round trip failed")
	}
}
