package prm

import (
	"sync"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/rng"
)

func regionsEqual(t *testing.T, got, want regionResult) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("node count %d, want %d", len(got.Nodes), len(want.Nodes))
	}
	for i := range got.Nodes {
		if !got.Nodes[i].Q.Equal(want.Nodes[i].Q, 0) || got.Nodes[i].Region != want.Nodes[i].Region {
			t.Fatalf("node %d differs: %+v vs %+v", i, got.Nodes[i], want.Nodes[i])
		}
	}
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("edge count %d, want %d", len(got.Edges), len(want.Edges))
	}
	for i := range got.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, got.Edges[i], want.Edges[i])
		}
	}
	if got.Work != want.Work {
		t.Fatalf("work differs: %+v vs %+v", got.Work, want.Work)
	}
}

// TestArenaReuseBitIdentical replays the same region many times through
// one deliberately dirty arena: every replay must reproduce the fresh
// arena's result bit for bit, or pooled state is leaking into results.
func TestArenaReuseBitIdentical(t *testing.T) {
	s := cspace.NewRigidBodySpace(env.MedCube(), cspace.NewRigidBox(0.03, 0.02, 0.01))
	box := geom.Box3(0, 0, 0, 1, 1, 1)
	p := Params{SamplesPerRegion: 40, K: 5}

	build := func(a *Arena, seed uint64) regionResult {
		var res regionResult
		r := rng.Derive(seed, 0)
		res.Nodes, res.Work = sampleRegion(s, box, 0, p, r, a)
		edges, cw := connectRegion(s, res.Nodes, 0, p, a)
		res.Edges = edges
		res.Work.Add(cw)
		return res
	}

	dirty := GetArena()
	defer PutArena(dirty)
	for _, seed := range []uint64{3, 4, 5} {
		fresh := build(new(Arena), seed)
		for rep := 0; rep < 3; rep++ {
			regionsEqual(t, build(dirty, seed), fresh)
		}
	}
}

// TestArenaPoolConcurrent builds many regions concurrently through the
// shared arena pool and compares every result against its sequential
// twin. Run under -race this is the pooled-kernel safety test: arenas
// must never be visible to two tasks at once.
func TestArenaPoolConcurrent(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	box := geom.Box3(0, 0, 0, 1, 1, 1)
	p := Params{SamplesPerRegion: 30, K: 4}
	const regions = 24

	want := make([]regionResult, regions)
	for i := range want {
		want[i] = buildRegion(s, box, i, p, rng.Derive(99, uint64(i)))
	}

	got := make([]regionResult, regions)
	var wg sync.WaitGroup
	for i := 0; i < regions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = buildRegion(s, box, i, p, rng.Derive(99, uint64(i)))
		}(i)
	}
	wg.Wait()
	for i := range want {
		regionsEqual(t, got[i], want[i])
	}
}

// TestConnectBoundaryArenaReuse replays boundary connection through a
// dirty arena, including the frontier (maxSources) path whose centroid
// buffer is reused.
func TestConnectBoundaryArenaReuse(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	aNodes, _ := SampleRegion(s, geom.Box3(0, 0, 0, 0.5, 1, 1), 0, Params{SamplesPerRegion: 40}, rng.Derive(5, 0))
	bNodes, _ := SampleRegion(s, geom.Box3(0.5, 0, 0, 1, 1, 1), 1, Params{SamplesPerRegion: 40}, rng.Derive(5, 1))
	for _, maxSources := range []int{0, 8} {
		fresh := connectBoundary(s, aNodes, bNodes, 3, maxSources, new(Arena))
		dirty := GetArena()
		for rep := 0; rep < 3; rep++ {
			got := connectBoundary(s, aNodes, bNodes, 3, maxSources, dirty)
			if got.Attempts != fresh.Attempts || got.Work != fresh.Work || len(got.Edges) != len(fresh.Edges) {
				t.Fatalf("maxSources=%d rep %d: got %+v, want %+v", maxSources, rep, got, fresh)
			}
			for i := range got.Edges {
				if got.Edges[i] != fresh.Edges[i] {
					t.Fatalf("edge %d differs: %v vs %v", i, got.Edges[i], fresh.Edges[i])
				}
			}
		}
		PutArena(dirty)
	}
}
