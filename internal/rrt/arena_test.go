package rrt

import (
	"sync"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/rng"
)

func treesEqual(t *testing.T, got, want Result) {
	t.Helper()
	if got.Tree.Len() != want.Tree.Len() || got.Iters != want.Iters || got.Work != want.Work {
		t.Fatalf("shape differs: (%d nodes, %d iters, %+v) vs (%d nodes, %d iters, %+v)",
			got.Tree.Len(), got.Iters, got.Work, want.Tree.Len(), want.Iters, want.Work)
	}
	for i := range got.Tree.Nodes {
		g, w := got.Tree.Nodes[i], want.Tree.Nodes[i]
		if !g.Q.Equal(w.Q, 0) || g.Parent != w.Parent || g.Region != w.Region {
			t.Fatalf("node %d differs: %+v vs %+v", i, g, w)
		}
	}
}

// TestGrowRegionArenaReuseBitIdentical replays the same region growth
// through one dirty arena: the tree must reproduce the fresh arena's
// result bit for bit from the same stream.
func TestGrowRegionArenaReuseBitIdentical(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	reg := coneRegion(2, geom.V(1, 1, 0), geom.V(0.5, 0.5, 0.5), 0.4, 0.6)
	p := Params{Nodes: 30, Step: 0.05, GoalBias: 0.1}
	dirty := GetArena()
	defer PutArena(dirty)
	for _, seed := range []uint64{21, 22} {
		fresh := growTree(s, reg, NewTree(reg.Apex, reg.ID), p, rng.Derive(seed, 0), new(Arena))
		for rep := 0; rep < 3; rep++ {
			treesEqual(t, growTree(s, reg, NewTree(reg.Apex, reg.ID), p, rng.Derive(seed, 0), dirty), fresh)
		}
	}
}

// TestGrowRegionPoolConcurrent grows many branches concurrently through
// the shared pool and compares each against its sequential twin; under
// -race this verifies pooled arenas are never shared between tasks.
func TestGrowRegionPoolConcurrent(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	p := Params{Nodes: 20, Step: 0.05, GoalBias: 0.1}
	dirs := []geom.Vec{
		geom.V(1, 0, 0), geom.V(-1, 0, 0), geom.V(0, 1, 0), geom.V(0, -1, 0),
		geom.V(0, 0, 1), geom.V(0, 0, -1), geom.V(1, 1, 0), geom.V(1, 0, 1),
	}
	const branches = 16

	grow := func(i int) Result {
		reg := coneRegion(i, dirs[i%len(dirs)], geom.V(0.5, 0.5, 0.5), 0.4, 0.6)
		return GrowTree(s, reg, NewTree(reg.Apex, reg.ID), p, rng.Derive(31, uint64(i)))
	}
	want := make([]Result, branches)
	for i := range want {
		want[i] = grow(i)
	}
	got := make([]Result, branches)
	var wg sync.WaitGroup
	for i := 0; i < branches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = grow(i)
		}(i)
	}
	wg.Wait()
	for i := range want {
		treesEqual(t, got[i], want[i])
	}
}

func starEqual(t *testing.T, got, want StarResult) {
	t.Helper()
	if got.Iters != want.Iters || got.Rewires != want.Rewires || got.Work != want.Work {
		t.Fatalf("shape differs: (%d iters, %d rewires, %+v) vs (%d iters, %d rewires, %+v)",
			got.Iters, got.Rewires, got.Work, want.Iters, want.Rewires, want.Work)
	}
	treesEqual(t, Result{Tree: &Tree{Nodes: got.Tree.Nodes}}, Result{Tree: &Tree{Nodes: want.Tree.Nodes}})
	for i := range got.Tree.Cost {
		if got.Tree.Cost[i] != want.Tree.Cost[i] {
			t.Fatalf("node %d cost %v, want %v", i, got.Tree.Cost[i], want.Tree.Cost[i])
		}
	}
}

// TestGrowStarTreeArenaReuseBitIdentical replays RRT* growth through one
// dirty arena: the neighbour buffer, point slice and candidate buffers
// must not leak state between calls.
func TestGrowStarTreeArenaReuseBitIdentical(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	reg := coneRegion(2, geom.V(1, 1, 0), geom.V(0.5, 0.5, 0.5), 0.4, 0.6)
	p := Params{Nodes: 30, Step: 0.05, GoalBias: 0.1}
	dirty := GetArena()
	defer PutArena(dirty)
	for _, seed := range []uint64{23, 24} {
		fresh := growStarTree(s, reg, freshStarTree(reg), p, rng.Derive(seed, 0), new(Arena))
		for rep := 0; rep < 3; rep++ {
			starEqual(t, growStarTree(s, reg, freshStarTree(reg), p, rng.Derive(seed, 0), dirty), fresh)
		}
	}
}

// TestGrowStarTreePoolConcurrent grows many RRT* branches concurrently
// through the shared pool and compares each against its sequential twin.
func TestGrowStarTreePoolConcurrent(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	p := Params{Nodes: 20, Step: 0.05, GoalBias: 0.1}
	dirs := []geom.Vec{
		geom.V(1, 0, 0), geom.V(-1, 0, 0), geom.V(0, 1, 0), geom.V(0, -1, 0),
		geom.V(0, 0, 1), geom.V(0, 0, -1), geom.V(1, 1, 0), geom.V(1, 0, 1),
	}
	const branches = 16

	grow := func(i int) StarResult {
		reg := coneRegion(i, dirs[i%len(dirs)], geom.V(0.5, 0.5, 0.5), 0.4, 0.6)
		return GrowStarTree(s, reg, freshStarTree(reg), p, rng.Derive(33, uint64(i)))
	}
	want := make([]StarResult, branches)
	for i := range want {
		want[i] = grow(i)
	}
	got := make([]StarResult, branches)
	var wg sync.WaitGroup
	for i := 0; i < branches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = grow(i)
		}(i)
	}
	wg.Wait()
	for i := range want {
		starEqual(t, got[i], want[i])
	}
}

// TestConnectArenaReuse checks bridging through a dirty arena matches a
// fresh one.
func TestConnectArenaReuse(t *testing.T) {
	s := cspace.NewPointSpace(env.Free())
	ra := coneRegion(0, geom.V(1, 0, 0), geom.V(0.5, 0.5, 0.5), 0.45, 0.6)
	rb := coneRegion(1, geom.V(-1, 0, 0), geom.V(0.5, 0.5, 0.5), 0.45, 0.6)
	p := Params{Nodes: 25, Step: 0.05, GoalBias: 0.1}
	ta := GrowTree(s, ra, NewTree(ra.Apex, ra.ID), p, rng.Derive(41, 0)).Tree
	tb := GrowTree(s, rb, NewTree(rb.Apex, rb.ID), p, rng.Derive(41, 1)).Tree
	var cw cspace.Counters
	wi, wj, wok := connect(s, ta, tb, geom.V(0.1, 0.5, 0.5), 4, &cw, new(Arena))
	dirty := GetArena()
	defer PutArena(dirty)
	for rep := 0; rep < 3; rep++ {
		var c cspace.Counters
		gi, gj, gok := connect(s, ta, tb, geom.V(0.1, 0.5, 0.5), 4, &c, dirty)
		if gi != wi || gj != wj || gok != wok || c != cw {
			t.Fatalf("rep %d: got (%d,%d,%v,%+v), want (%d,%d,%v,%+v)", rep, gi, gj, gok, c, wi, wj, wok, cw)
		}
	}
}
