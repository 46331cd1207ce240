package rrt

import (
	"math"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/region"
	"parmp/internal/rng"
)

// freshStarTree is an RRT* branch holding only reg's apex, at cost 0.
func freshStarTree(reg *region.Region) *StarTree {
	return &StarTree{Nodes: NewTree(reg.Apex, reg.ID).Nodes, Cost: []float64{0}}
}

func TestGrowRegionStarBasics(t *testing.T) {
	s := cspace.NewPointSpace(env.Free())
	reg := coneRegion(0, geom.V(1, 0, 0), geom.V(0.5, 0.5, 0.5), 0.45, 0.7)
	p := Params{Nodes: 40, Step: 0.05, GoalBias: 0.1}
	res := GrowStarTree(s, reg, freshStarTree(reg), p, rng.New(1))
	if res.Tree.Len() != 40 {
		t.Fatalf("tree size = %d", res.Tree.Len())
	}
	if len(res.Tree.Cost) != res.Tree.Len() {
		t.Fatal("cost array out of sync")
	}
	if res.Tree.Cost[0] != 0 {
		t.Fatal("root cost must be 0")
	}
}

func TestStarCostsConsistent(t *testing.T) {
	// Invariant: every node's cost equals parent's cost + edge length.
	s := cspace.NewPointSpace(env.Mixed30())
	reg := coneRegion(1, geom.V(0, 1, 0), geom.V(0.5, 0.5, 0.5), 0.4, 0.6)
	p := Params{Nodes: 40, Step: 0.05, GoalBias: 0.1}
	res := GrowStarTree(s, reg, freshStarTree(reg), p, rng.New(2))
	for i := 1; i < res.Tree.Len(); i++ {
		n := res.Tree.Nodes[i]
		want := res.Tree.Cost[n.Parent] + s.Distance(res.Tree.Nodes[n.Parent].Q, n.Q)
		if math.Abs(res.Tree.Cost[i]-want) > 1e-9 {
			t.Fatalf("node %d cost %v != parent cost + edge %v", i, res.Tree.Cost[i], want)
		}
	}
}

func TestStarNoParentCycles(t *testing.T) {
	s := cspace.NewPointSpace(env.Free())
	reg := coneRegion(0, geom.V(1, 1, 0).Unit(), geom.V(0.3, 0.3, 0.5), 0.4, 0.7)
	p := Params{Nodes: 60, Step: 0.05, GoalBias: 0.1}
	res := GrowStarTree(s, reg, freshStarTree(reg), p, rng.New(3))
	for i := range res.Tree.Nodes {
		seen := map[int]bool{}
		for cur := i; cur >= 0; cur = res.Tree.Nodes[cur].Parent {
			if seen[cur] {
				t.Fatalf("parent cycle at node %d", i)
			}
			seen[cur] = true
		}
	}
}

func TestStarCostsBeatOrMatchPlainRRT(t *testing.T) {
	// Rewiring must not make any node's path cost worse than the greedy
	// tree's nearest-parent baseline; on average it should be better.
	s := cspace.NewPointSpace(env.Free())
	regStar := coneRegion(0, geom.V(1, 0, 0), geom.V(0.5, 0.5, 0.5), 0.45, 0.7)
	p := Params{Nodes: 60, Step: 0.04, GoalBias: 0.1}
	res := GrowStarTree(s, regStar, freshStarTree(regStar), p, rng.New(4))
	// Every node's cost must be >= straight-line distance to root
	// (admissibility) and <= sum of hops (consistency by construction).
	for i := 1; i < res.Tree.Len(); i++ {
		straight := s.Distance(res.Tree.Nodes[0].Q, res.Tree.Nodes[i].Q)
		if res.Tree.Cost[i] < straight-1e-9 {
			t.Fatalf("node %d cost %v below metric lower bound %v", i, res.Tree.Cost[i], straight)
		}
	}
	if res.Rewires == 0 {
		t.Fatal("expected some rewiring in free space")
	}
}

func TestStarDeterministic(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	reg := coneRegion(2, geom.V(0, 0, 1), geom.V(0.5, 0.5, 0.5), 0.4, 0.6)
	p := Params{Nodes: 30, Step: 0.05, GoalBias: 0.1}
	a := GrowStarTree(s, reg, freshStarTree(reg), p, rng.Derive(9, 2))
	b := GrowStarTree(s, reg, freshStarTree(reg), p, rng.Derive(9, 2))
	if a.Tree.Len() != b.Tree.Len() || a.Rewires != b.Rewires || a.Work != b.Work {
		t.Fatal("RRT* not deterministic")
	}
}

func TestStarCostsMoreThanPlain(t *testing.T) {
	// RRT* does strictly more local-planning work than plain RRT for the
	// same node budget — the load-balancing-relevant property.
	s := cspace.NewPointSpace(env.Free())
	reg := coneRegion(0, geom.V(1, 0, 0), geom.V(0.5, 0.5, 0.5), 0.45, 0.7)
	plain := GrowTree(s, reg, NewTree(reg.Apex, reg.ID), Params{Nodes: 40, Step: 0.05, GoalBias: 0.1}, rng.Derive(7, 0))
	star := GrowStarTree(s, reg, freshStarTree(reg), Params{Nodes: 40, Step: 0.05, GoalBias: 0.1}, rng.Derive(7, 0))
	if star.Work.LPCalls <= plain.Work.LPCalls {
		t.Fatalf("RRT* LP calls %d should exceed plain %d", star.Work.LPCalls, plain.Work.LPCalls)
	}
}
