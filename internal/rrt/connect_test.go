package rrt

import (
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/region"
	"parmp/internal/rng"
)

func biEqual(t *testing.T, got, want BiResult) {
	t.Helper()
	if got.Iters != want.Iters || got.Work != want.Work {
		t.Fatalf("shape differs: (%d iters, %+v) vs (%d iters, %+v)",
			got.Iters, got.Work, want.Iters, want.Work)
	}
	g, w := got.Bi, want.Bi
	if g.Met != w.Met || g.AMeet != w.AMeet || g.BMeet != w.BMeet {
		t.Fatalf("meet state differs: (%v %d %d) vs (%v %d %d)",
			g.Met, g.AMeet, g.BMeet, w.Met, w.AMeet, w.BMeet)
	}
	treesEqual(t, Result{Tree: g.A}, Result{Tree: w.A})
	if (g.B == nil) != (w.B == nil) {
		t.Fatalf("B presence differs: %v vs %v", g.B == nil, w.B == nil)
	}
	if g.B != nil {
		treesEqual(t, Result{Tree: g.B}, Result{Tree: w.B})
	}
}

// checkRootReachable asserts every node of tr walks to node 0 via parent
// links without cycling (merged trees have reversed edges, so parents
// are not index-ordered).
func checkRootReachable(t *testing.T, tr *Tree) {
	t.Helper()
	for i := range tr.Nodes {
		cur, steps := i, 0
		for tr.Nodes[cur].Parent >= 0 {
			cur = tr.Nodes[cur].Parent
			if steps++; steps > tr.Len() {
				t.Fatalf("node %d: parent walk cycled", i)
			}
		}
		if cur != 0 {
			t.Fatalf("node %d: parent walk ended at %d, want root 0", i, cur)
		}
	}
}

func TestNewBiTreeGoalRoot(t *testing.T) {
	s := cspace.NewPointSpace(env.Free())
	reg := coneRegion(0, geom.V(1, 0, 0), geom.V(0.5, 0.5, 0.5), 0.45, 0.6)
	goal := cspace.Config(geom.V(0.8, 0.55, 0.5)) // inside the cone
	bi, _ := NewBiTree(s, reg, goal, rng.New(3))
	if bi.B == nil || !bi.B.Nodes[0].Q.Equal(goal, 0) {
		t.Fatalf("goal in cone should root B at goal, got %+v", bi.B)
	}
	if !bi.A.Nodes[0].Q.Equal(reg.Apex, 0) {
		t.Fatalf("A must root at apex")
	}

	// Goal outside the cone: B roots at the cone target instead.
	far := cspace.Config(geom.V(0.1, 0.5, 0.5))
	bi, _ = NewBiTree(s, reg, far, rng.New(3))
	if bi.B == nil || !bi.B.Nodes[0].Q.Equal(region.ConeTarget(reg), 0) {
		t.Fatalf("goal outside cone should root B at cone target, got %+v", bi.B)
	}
}

func TestNewBiTreeBlockedCone(t *testing.T) {
	// The med-cube obstacle spans roughly [0.19, 0.81]^3; this cone sits
	// entirely inside it, so no free goal-side root exists.
	s := cspace.NewPointSpace(env.MedCube())
	reg := coneRegion(0, geom.V(0, 0, 1), geom.V(0.5, 0.5, 0.25), 0.2, 0.3)
	bi, work := NewBiTree(s, reg, nil, rng.New(7))
	if bi.B != nil {
		t.Fatalf("fully blocked cone should leave B nil, got root %v", bi.B.Nodes[0].Q)
	}
	if work.Samples != 32 {
		t.Fatalf("expected 32 fallback samples, got %d", work.Samples)
	}
}

func TestGrowBiTreeMeetsFreeSpace(t *testing.T) {
	s := cspace.NewPointSpace(env.Free())
	reg := coneRegion(1, geom.V(1, 0, 0), geom.V(0.5, 0.5, 0.5), 0.45, 0.6)
	bi, _ := NewBiTree(s, reg, nil, rng.New(5))
	if bi.B == nil {
		t.Fatalf("free space must root a goal-side tree")
	}
	p := Params{Nodes: 200, Step: 0.05, GoalBias: 0.1}
	res := GrowBiTree(s, reg, bi, p, rng.New(6))
	if !bi.Met {
		t.Fatalf("trees failed to meet in free space after %d iters (%d nodes)", res.Iters, bi.Len())
	}
	if !bi.A.Nodes[bi.AMeet].Q.Equal(bi.B.Nodes[bi.BMeet].Q, 0) {
		t.Fatalf("meeting configurations differ: %v vs %v",
			bi.A.Nodes[bi.AMeet].Q, bi.B.Nodes[bi.BMeet].Q)
	}

	merged := MergeBiTree(bi)
	if merged.Len() != bi.A.Len()+bi.B.Len() {
		t.Fatalf("merged %d nodes, want %d", merged.Len(), bi.A.Len()+bi.B.Len())
	}
	checkRootReachable(t, merged)
	for i, n := range merged.Nodes {
		if i > 0 && !s.Valid(n.Q, nil) {
			t.Fatalf("merged node %d invalid", i)
		}
	}

	// A met pair stops growing: another round must be a no-op.
	again := GrowBiTree(s, reg, bi, p, rng.New(99))
	if again.Iters != 0 || (again.Work != cspace.Counters{}) {
		t.Fatalf("met pair grew again: %d iters, %+v", again.Iters, again.Work)
	}
}

func TestGrowBiTreeArenaReuseBitIdentical(t *testing.T) {
	s := cspace.NewPointSpace(env.Mixed30())
	reg := coneRegion(2, geom.V(1, 1, 0), geom.V(0.5, 0.5, 0.5), 0.4, 0.6)
	p := Params{Nodes: 60, Step: 0.05, GoalBias: 0.1}
	dirty := GetArena()
	defer PutArena(dirty)
	for _, seed := range []uint64{31, 32} {
		fr := rng.Derive(seed, 0)
		fbi, fw := newBiTree(s, reg, nil, fr, new(Arena))
		fres := growBiTree(s, reg, fbi, p, fr, new(Arena))
		fres.Work.Add(fw)
		for rep := 0; rep < 3; rep++ {
			dr := rng.Derive(seed, 0)
			dbi, dw := newBiTree(s, reg, nil, dr, dirty)
			dres := growBiTree(s, reg, dbi, p, dr, dirty)
			dres.Work.Add(dw)
			biEqual(t, dres, fres)
		}
	}
}

func TestGrowBiTreeSingleTreeFallback(t *testing.T) {
	// With B nil the pair must grow exactly like a plain region branch.
	s := cspace.NewPointSpace(env.Mixed30())
	reg := coneRegion(3, geom.V(0, 1, 0), geom.V(0.5, 0.5, 0.5), 0.4, 0.6)
	p := Params{Nodes: 40, Step: 0.05, GoalBias: 0.1}

	bi := &BiTree{A: NewTree(reg.Apex, reg.ID)}
	got := GrowBiTree(s, reg, bi, p, rng.New(11))
	want := GrowTree(s, reg, NewTree(reg.Apex, reg.ID), p, rng.New(11))
	treesEqual(t, Result{Tree: got.Bi.A, Work: got.Work, Iters: got.Iters}, want)
}

func TestBiTreeCopyIsDeep(t *testing.T) {
	s := cspace.NewPointSpace(env.Free())
	reg := coneRegion(4, geom.V(0, 0, 1), geom.V(0.5, 0.5, 0.5), 0.45, 0.6)
	bi, _ := NewBiTree(s, reg, nil, rng.New(13))
	p := Params{Nodes: 30, Step: 0.05, GoalBias: 0.1}
	GrowBiTree(s, reg, bi, p, rng.New(14))

	cp := bi.Copy()
	lenA, lenB := cp.A.Len(), cp.B.Len()
	GrowBiTree(s, reg, bi, Params{Nodes: 60, Step: 0.05, GoalBias: 0.1}, rng.New(15))
	if cp.A.Len() != lenA || cp.B.Len() != lenB {
		t.Fatalf("copy mutated by later growth: %d/%d vs %d/%d", cp.A.Len(), cp.B.Len(), lenA, lenB)
	}
	if cp.Met != bi.Met && bi.Met {
		// fine: original may have met later; the copy must not change.
		_ = cp
	}
}
