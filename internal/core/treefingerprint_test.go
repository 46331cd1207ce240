package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/steal"
)

// treeFingerprint renders everything a tree engine commits — per-region
// node counts, a checksum over every node's coordinate bits and parent,
// the bridge set, the variant extras, every phase time, the cumulative
// repair stats and the migration counters — as one canonical string, so
// two runs compare bit for bit.
func treeFingerprint(res *RRTResult) string {
	var b strings.Builder
	counts := make([]string, len(res.Branches))
	coords := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		for k := range word {
			word[k] = byte(v >> (8 * k))
		}
		coords.Write(word[:])
	}
	for i, t := range res.Branches {
		if t == nil {
			counts[i] = "-"
			continue
		}
		counts[i] = fmt.Sprint(t.Len())
		for _, nd := range t.Nodes {
			for _, x := range nd.Q {
				put(math.Float64bits(x))
			}
			put(uint64(int64(nd.Parent)))
		}
	}
	fmt.Fprintf(&b, "nodes=%s\n", strings.Join(counts, ","))
	fmt.Fprintf(&b, "coords=%016x\n", coords.Sum64())
	fmt.Fprintf(&b, "bridges=%v pruned=%d\n", res.Bridges, res.PrunedCycles)
	fmt.Fprintf(&b, "rewires=%d met=%d goal=%t\n", res.Rewires, res.TreesMet, res.GoalConnected)
	p := res.Phases
	fmt.Fprintf(&b, "phases=%x,%x,%x,%x,%x,%x,%x\n",
		math.Float64bits(p.Setup), math.Float64bits(p.Sampling), math.Float64bits(p.Redistribution),
		math.Float64bits(p.NodeConnection), math.Float64bits(p.RegionConnection),
		math.Float64bits(p.Repair), math.Float64bits(p.Other))
	r := res.Repairs
	fmt.Fprintf(&b, "repairs=%d,%d,%d,%d,%d,%d,%x,%+v\n", r.Deltas, r.CheckedNodes, r.CheckedEdges,
		r.RemovedNodes, r.RemovedEdges, r.Grafted, math.Float64bits(r.Makespan), r.Work)
	fmt.Fprintf(&b, "loads=%v cv=%x,%x corr=%x remote=%d\n", res.NodeLoads, math.Float64bits(res.CVBefore),
		math.Float64bits(res.CVAfter), math.Float64bits(res.WeightActualCorr), res.RegionRemote)
	fmt.Fprintf(&b, "migrated=%d diffused=%d", res.MigratedRegions, res.DiffusedRegions)
	return b.String()
}

// TestTreeEngineFingerprint pins the tree engines bit for bit: every
// growth variant (plain, RRT*, RRT-Connect) under three load-balancing
// configurations grows three rounds, repairs a moved blocker, and grows
// one more round, once sequentially and once with a host pre-pass. Any
// change to what the engines compute, or to the virtual time they
// charge, changes the fingerprint.
func TestTreeEngineFingerprint(t *testing.T) {
	balancers := map[string]func(*Options){
		"nolb":        func(o *Options) {},
		"repartition": func(o *Options) { o.Strategy = Repartition },
		"steal-observed-diffusive": func(o *Options) {
			o.Strategy = WorkStealing
			o.Policy = steal.RandK{K: 1}
			o.CostModel = CostObserved
			o.Rebalance = RebalanceDiffusive
		},
	}
	for _, variant := range []string{"plain", "star", "connect"} {
		for _, lb := range []string{"nolb", "repartition", "steal-observed-diffusive"} {
			name := variant + "/" + lb
			t.Run(name, func(t *testing.T) {
				// The host pre-pass must change wall clock only.
				for _, hw := range []int{1, 2} {
					if got, want := fingerprintRun(t, variant, balancers[lb], hw), treeFingerprintGolden[name]; got != want {
						t.Errorf("HostWorkers=%d: fingerprint changed\n got:\n%s\nwant:\n%s", hw, got, want)
					}
				}
			})
		}
	}
}

// fingerprintRun grows one variant under one balancer with hw host
// workers — three rounds, a moved-blocker repair, one more round — and
// returns the fingerprints after the repair and after the last round.
func fingerprintRun(t *testing.T, variant string, balance func(*Options), hw int) string {
	t.Helper()
	root, goal := geom.V(0.1, 0.1, 0.1), geom.V(0.65, 0.7, 0.4)
	base := env.SmallCube()
	s := cspace.NewPointSpace(base)
	opts := repairRRTOpts(4, 16)
	opts.Star = variant == "star"
	opts.HostWorkers = hw
	balance(&opts)
	type treeEngine interface {
		GrowRound(stop <-chan struct{}) error
		ApplyDelta(s *cspace.Space, d env.Delta, stop <-chan struct{}) (*RRTRepair, error)
		Result() *RRTResult
	}
	var eng treeEngine
	var err error
	if variant == "connect" {
		eng, err = NewRRTConnectEngine(s, root, goal, opts)
	} else {
		eng, err = NewRRTEngine(s, root, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if err := eng.GrowRound(nil); err != nil {
			t.Fatal(err)
		}
	}
	mutated := base.Clone()
	d, err := mutated.MoveObstacle(0, geom.V(-0.15, 0.1, 0))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.ApplyDelta(s.WithEnv(mutated), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	remaps := fnv.New64a()
	fmt.Fprint(remaps, rep.BranchRemaps)
	repair := fmt.Sprintf("remaps=%016x removed-bridges=%d\n%s",
		remaps.Sum64(), rep.RemovedBridges, treeFingerprint(eng.Result()))
	if err := eng.GrowRound(nil); err != nil {
		t.Fatal(err)
	}
	return repair + "\n--\n" + treeFingerprint(eng.Result())
}

// treeFingerprintGolden holds the expected fingerprints (after the
// repair, then after the final round) for TestTreeEngineFingerprint.
var treeFingerprintGolden = map[string]string{
	"plain/nolb": `remaps=02e26857ccea8f28 removed-bridges=0
nodes=88,90,90,6,36,7,10,63,12,32,10,16,45,90,90,68
coords=a74083d397839cb0
bridges=[[0 27 1 14] [0 21 4 8] [0 25 8 2] [1 28 2 27] [1 26 13 29] [2 21 14 29] [3 2 5 2] [3 2 8 1] [3 2 11 7] [3 2 10 2] [5 2 6 1] [6 2 9 6] [6 3 7 6] [6 3 15 6] [7 15 12 6]] pruned=90
rewires=0 met=0 goal=false
phases=4049000000000000,0,0,40d72e851eb851ec,40b3bd9eb851eb85,4091960000000000,4062c00000000000
repairs=1,44,1,56,0,4,4091960000000000,cd=328 obst=563 lp=54/284 knn=16/400 samples=0
loads=[304 198 123 128] cv=3fe5095601c1e020,3fd8db10e3ff3ba9 corr=0 remote=69
migrated=0 diffused=0
--
nodes=120,120,120,7,120,10,13,102,15,46,15,23,70,120,120,105
coords=cb6d1cd4dfb6914b
bridges=[[0 27 1 14] [0 21 4 8] [0 25 8 2] [1 28 2 27] [1 26 13 29] [2 21 14 29] [3 2 5 2] [3 2 8 1] [3 2 11 7] [3 2 10 2] [5 2 6 1] [6 2 9 6] [6 3 7 6] [6 3 15 6] [7 15 12 6]] pruned=126
rewires=0 met=0 goal=false
phases=4049000000000000,0,0,40e536f8f5c28f5c,40b7598000000000,4091960000000000,4069000000000000
repairs=1,44,1,56,0,4,4091960000000000,cd=328 obst=563 lp=54/284 knn=16/400 samples=0
loads=[480 262 184 200] cv=3fe5095601c1e020,3fdae25dfd19f041 corr=0 remote=92
migrated=0 diffused=0`,
	"plain/repartition": `remaps=02e26857ccea8f28 removed-bridges=0
nodes=88,90,90,6,36,7,10,63,12,32,10,16,45,90,90,68
coords=a74083d397839cb0
bridges=[[0 27 1 14] [0 21 4 8] [0 25 8 2] [1 28 2 27] [1 26 13 29] [2 21 14 29] [3 2 5 2] [3 2 8 1] [3 2 11 7] [3 2 10 2] [5 2 6 1] [6 2 9 6] [6 3 7 6] [6 3 15 6] [7 15 12 6]] pruned=90
rewires=0 met=0 goal=false
phases=4049000000000000,0,4070600000000000,40e954e147ae147b,40b0d6fae147ae14,40918a0000000000,4062c00000000000
repairs=1,44,1,56,0,4,40918a0000000000,cd=328 obst=563 lp=54/284 knn=16/400 samples=0
loads=[178 126 192 257] cv=3fe5095601c1e020,3fcfbf9773054fb1 corr=bfec1e96ceba5a02 remote=51
migrated=10 diffused=0
--
nodes=120,120,120,7,120,10,13,102,15,46,15,23,70,120,120,105
coords=cb6d1cd4dfb6914b
bridges=[[0 27 1 14] [0 21 4 8] [0 25 8 2] [1 28 2 27] [1 26 13 29] [2 21 14 29] [3 2 5 2] [3 2 8 1] [3 2 11 7] [3 2 10 2] [5 2 6 1] [6 2 9 6] [6 3 7 6] [6 3 15 6] [7 15 12 6]] pruned=126
rewires=0 met=0 goal=false
phases=4049000000000000,0,4070600000000000,40f7003d70a3d70a,40b40abd70a3d70a,40918a0000000000,4069000000000000
repairs=1,44,1,56,0,4,40918a0000000000,cd=328 obst=563 lp=54/284 knn=16/400 samples=0
loads=[240 240 255 391] cv=3fe5095601c1e020,3fcce18c7993752d corr=bfec1e96ceba5a02 remote=68
migrated=10 diffused=0`,
	"plain/steal-observed-diffusive": `remaps=02e26857ccea8f28 removed-bridges=0
nodes=88,90,90,6,36,7,10,63,12,32,10,16,45,90,90,68
coords=a74083d397839cb0
bridges=[[0 27 1 14] [0 21 4 8] [0 25 8 2] [1 28 2 27] [1 26 13 29] [2 21 14 29] [3 2 5 2] [3 2 8 1] [3 2 11 7] [3 2 10 2] [5 2 6 1] [6 2 9 6] [6 3 7 6] [6 3 15 6] [7 15 12 6]] pruned=90
rewires=0 met=0 goal=false
phases=4049000000000000,0,406e400000000000,40d23f4e147ae148,40b2832e147ae148,40951a0000000000,4062c00000000000
repairs=1,44,1,56,0,4,40951a0000000000,cd=328 obst=563 lp=54/284 knn=16/400 samples=0
loads=[462 153 55 83] cv=3fe5095601c1e020,3feb8afd81690982 corr=0 remote=71
migrated=0 diffused=5
--
nodes=120,120,120,7,120,10,13,102,15,46,15,23,70,120,120,105
coords=cb6d1cd4dfb6914b
bridges=[[0 27 1 14] [0 21 4 8] [0 25 8 2] [1 28 2 27] [1 26 13 29] [2 21 14 29] [3 2 5 2] [3 2 8 1] [3 2 11 7] [3 2 10 2] [5 2 6 1] [6 2 9 6] [6 3 7 6] [6 3 15 6] [7 15 12 6]] pruned=126
rewires=0 met=0 goal=false
phases=4049000000000000,0,406e400000000000,40dffd570a3d70a4,40b65d5c28f5c290,40951a0000000000,4069000000000000
repairs=1,44,1,56,0,4,40951a0000000000,cd=328 obst=563 lp=54/284 knn=16/400 samples=0
loads=[705 212 79 130] cv=3fe5095601c1e020,3fec5035f41c41ef corr=0 remote=94
migrated=0 diffused=5`,
	"star/nolb": `remaps=1f9c1bd9b990dede removed-bridges=0
nodes=88,90,90,6,36,7,10,63,12,32,10,16,45,90,90,68
coords=87554632ce43c2ea
bridges=[[0 27 1 14] [0 21 4 8] [0 25 8 2] [1 25 2 27] [1 20 13 29] [2 21 14 29] [3 2 5 2] [3 2 8 1] [3 2 11 7] [3 2 10 2] [5 2 6 1] [6 2 9 6] [6 3 7 6] [6 3 15 6] [7 15 12 6]] pruned=90
rewires=255 met=0 goal=false
phases=4049000000000000,0,0,40df1c3ae147ae14,40b32d147ae147ae,40a0d1f5c28f5c29,4062c00000000000
repairs=1,43,1,56,0,174,40a0d1f5c28f5c29,cd=754 obst=1412 lp=228/711 knn=187/5790 samples=0
loads=[304 198 123 128] cv=3fe5095601c1e020,3fd8db10e3ff3ba9 corr=0 remote=69
migrated=0 diffused=0
--
nodes=120,120,120,7,120,10,13,102,15,46,15,23,70,120,120,105
coords=f81c0bbc9b156036
bridges=[[0 27 1 14] [0 21 4 8] [0 25 8 2] [1 25 2 27] [1 20 13 29] [2 21 14 29] [3 2 5 2] [3 2 8 1] [3 2 11 7] [3 2 10 2] [5 2 6 1] [6 2 9 6] [6 3 7 6] [6 3 15 6] [7 15 12 6]] pruned=126
rewires=879 met=0 goal=false
phases=4049000000000000,0,0,40ecc49e147ae147,40b6f7f5c28f5c29,40a0d1f5c28f5c29,4069000000000000
repairs=1,43,1,56,0,174,40a0d1f5c28f5c29,cd=754 obst=1412 lp=228/711 knn=187/5790 samples=0
loads=[480 262 184 200] cv=3fe5095601c1e020,3fdae25dfd19f041 corr=0 remote=92
migrated=0 diffused=0`,
	"star/repartition": `remaps=1f9c1bd9b990dede removed-bridges=0
nodes=88,90,90,6,36,7,10,63,12,32,10,16,45,90,90,68
coords=87554632ce43c2ea
bridges=[[0 27 1 14] [0 21 4 8] [0 25 8 2] [1 25 2 27] [1 20 13 29] [2 21 14 29] [3 2 5 2] [3 2 8 1] [3 2 11 7] [3 2 10 2] [5 2 6 1] [6 2 9 6] [6 3 7 6] [6 3 15 6] [7 15 12 6]] pruned=90
rewires=255 met=0 goal=false
phases=4049000000000000,0,4070600000000000,40efe1a99999999a,40b04670a3d70a3e,409991999999999a,4062c00000000000
repairs=1,43,1,56,0,174,409991999999999a,cd=754 obst=1412 lp=228/711 knn=187/5790 samples=0
loads=[178 126 192 257] cv=3fe5095601c1e020,3fcfbf9773054fb1 corr=3fe1e904804048ff remote=51
migrated=10 diffused=0
--
nodes=120,120,120,7,120,10,13,102,15,46,15,23,70,120,120,105
coords=f81c0bbc9b156036
bridges=[[0 27 1 14] [0 21 4 8] [0 25 8 2] [1 25 2 27] [1 20 13 29] [2 21 14 29] [3 2 5 2] [3 2 8 1] [3 2 11 7] [3 2 10 2] [5 2 6 1] [6 2 9 6] [6 3 7 6] [6 3 15 6] [7 15 12 6]] pruned=126
rewires=879 met=0 goal=false
phases=4049000000000000,0,4070600000000000,40fd56419999999a,40b3a93333333334,409991999999999a,4069000000000000
repairs=1,43,1,56,0,174,409991999999999a,cd=754 obst=1412 lp=228/711 knn=187/5790 samples=0
loads=[240 240 255 391] cv=3fe5095601c1e020,3fcce18c7993752d corr=3fe1e904804048ff remote=68
migrated=10 diffused=0`,
	"star/steal-observed-diffusive": `remaps=1f9c1bd9b990dede removed-bridges=0
nodes=88,90,90,6,36,7,10,63,12,32,10,16,45,90,90,68
coords=87554632ce43c2ea
bridges=[[0 27 1 14] [0 21 4 8] [0 25 8 2] [1 25 2 27] [1 20 13 29] [2 21 14 29] [3 2 5 2] [3 2 8 1] [3 2 11 7] [3 2 10 2] [5 2 6 1] [6 2 9 6] [6 3 7 6] [6 3 15 6] [7 15 12 6]] pruned=90
rewires=255 met=0 goal=false
phases=4049000000000000,0,4065100000000000,40df88a147ae147b,40b277947ae147ae,409914a3d70a3d71,4062c00000000000
repairs=1,43,1,56,0,174,409914a3d70a3d71,cd=754 obst=1412 lp=228/711 knn=187/5790 samples=0
loads=[323 198 123 109] cv=3fe5095601c1e020,3fdcd7d36e085be9 corr=0 remote=86
migrated=0 diffused=3
--
nodes=120,120,120,7,120,10,13,102,15,46,15,23,70,120,120,105
coords=f81c0bbc9b156036
bridges=[[0 27 1 14] [0 21 4 8] [0 25 8 2] [1 25 2 27] [1 20 13 29] [2 21 14 29] [3 2 5 2] [3 2 8 1] [3 2 11 7] [3 2 10 2] [5 2 6 1] [6 2 9 6] [6 3 7 6] [6 3 15 6] [7 15 12 6]] pruned=126
rewires=879 met=0 goal=false
phases=4049000000000000,0,4070c80000000000,40ebd88ae147ae14,40b6882e147ae148,409914a3d70a3d71,4069000000000000
repairs=1,43,1,56,0,174,409914a3d70a3d71,cd=754 obst=1412 lp=228/711 knn=187/5790 samples=0
loads=[325 382 184 235] cv=3fe5095601c1e020,3fd17c644d7adbf1 corr=0 remote=115
migrated=0 diffused=4`,
	"connect/nolb": `remaps=19ca744f8965f4fb removed-bridges=1
nodes=23,21,47,5,10,5,5,7,5,5,5,5,6,8,21,7
coords=30db13c7a3c5c252
bridges=[[0 13 1 9] [0 1 8 0] [1 4 2 21] [1 9 13 2] [2 18 14 8] [3 2 5 2] [3 2 8 3] [3 2 11 1] [3 2 10 1] [5 2 6 1] [6 2 9 2] [6 2 7 5] [6 2 15 1] [7 2 12 2]] pruned=92
rewires=0 met=15 goal=true
phases=4049000000000000,0,0,409d4a3d70a3d70a,40b8018000000001,40703e6666666666,4062c00000000000
repairs=1,9,0,11,1,0,40703e6666666666,cd=53 obst=89 lp=8/44 knn=2/20 samples=0
loads=[101 39 22 23] cv=3fe5095601c1e020,3fe65cf236a5c60e corr=0 remote=69
migrated=0 diffused=0
--
nodes=23,21,47,5,86,5,5,7,5,5,5,5,6,8,21,7
coords=cba224fd217e7021
bridges=[[0 13 1 9] [0 1 8 0] [1 4 2 21] [1 9 13 2] [2 18 14 8] [3 2 5 2] [3 2 8 3] [3 2 11 1] [3 2 10 1] [5 2 6 1] [6 2 9 2] [6 2 7 5] [6 2 15 1] [7 2 12 2] [1 9 4 25]] pruned=127
rewires=0 met=16 goal=true
phases=4049000000000000,0,0,40ab8dc28f5c28f6,40bd42b333333334,40703e6666666666,4069000000000000
repairs=1,9,0,11,1,0,40703e6666666666,cd=53 obst=89 lp=8/44 knn=2/20 samples=0
loads=[177 39 22 23] cv=3fe5095601c1e020,3fefd05c30c6f4e9 corr=0 remote=92
migrated=0 diffused=0`,
	"connect/repartition": `remaps=19ca744f8965f4fb removed-bridges=1
nodes=23,21,47,5,10,5,5,7,5,5,5,5,6,8,21,7
coords=30db13c7a3c5c252
bridges=[[0 13 1 9] [0 1 8 0] [1 4 2 21] [1 9 13 2] [2 18 14 8] [3 2 5 2] [3 2 8 3] [3 2 11 1] [3 2 10 1] [5 2 6 1] [6 2 9 2] [6 2 7 5] [6 2 15 1] [7 2 12 2]] pruned=92
rewires=0 met=15 goal=true
phases=4049000000000000,0,4070600000000000,40950c3d70a3d70a,40b2b70a3d70a3d7,40703e6666666666,4062c00000000000
repairs=1,9,0,11,1,0,40703e6666666666,cd=53 obst=89 lp=8/44 knn=2/20 samples=0
loads=[44 57 34 50] cv=3fe5095601c1e020,3fc759c82d331d4f corr=3feba8ce37944839 remote=51
migrated=10 diffused=0
--
nodes=23,21,47,5,86,5,5,7,5,5,5,5,6,8,21,7
coords=cba224fd217e7021
bridges=[[0 13 1 9] [0 1 8 0] [1 4 2 21] [1 9 13 2] [2 18 14 8] [3 2 5 2] [3 2 8 3] [3 2 11 1] [3 2 10 1] [5 2 6 1] [6 2 9 2] [6 2 7 5] [6 2 15 1] [7 2 12 2] [1 9 4 25]] pruned=127
rewires=0 met=16 goal=true
phases=4049000000000000,0,4070600000000000,40a76ec28f5c28f6,40b6fda8f5c28f5c,40703e6666666666,4069000000000000
repairs=1,9,0,11,1,0,40703e6666666666,cd=53 obst=89 lp=8/44 knn=2/20 samples=0
loads=[44 133 34 50] cv=3fe5095601c1e020,3fe3630392d84136 corr=3feba8ce37944839 remote=68
migrated=10 diffused=0`,
	"connect/steal-observed-diffusive": `remaps=19ca744f8965f4fb removed-bridges=1
nodes=23,21,47,5,10,5,5,7,5,5,5,5,6,8,21,7
coords=30db13c7a3c5c252
bridges=[[0 13 1 9] [0 1 8 0] [1 4 2 21] [1 9 13 2] [2 18 14 8] [3 2 5 2] [3 2 8 3] [3 2 11 1] [3 2 10 1] [5 2 6 1] [6 2 9 2] [6 2 7 5] [6 2 15 1] [7 2 12 2]] pruned=92
rewires=0 met=15 goal=true
phases=4049000000000000,0,4072300000000000,4098f628f5c28f5c,40b34a570a3d70a4,40767e6666666666,4062c00000000000
repairs=1,9,0,11,1,0,40767e6666666666,cd=53 obst=89 lp=8/44 knn=2/20 samples=0
loads=[44 57 47 37] cv=3fe5095601c1e020,3fc3e5abfd1fbc81 corr=0 remote=74
migrated=0 diffused=7
--
nodes=23,21,47,5,86,5,5,7,5,5,5,5,6,8,21,7
coords=cba224fd217e7021
bridges=[[0 13 1 9] [0 1 8 0] [1 4 2 21] [1 9 13 2] [2 18 14 8] [3 2 5 2] [3 2 8 3] [3 2 11 1] [3 2 10 1] [5 2 6 1] [6 2 9 2] [6 2 7 5] [6 2 15 1] [7 2 12 2] [1 9 4 25]] pruned=127
rewires=0 met=16 goal=true
phases=4049000000000000,0,407ad80000000000,40aa2bb851eb851f,40b97c1eb851eb85,40767e6666666666,4069000000000000
repairs=1,9,0,11,1,0,40767e6666666666,cd=53 obst=89 lp=8/44 knn=2/20 samples=0
loads=[56 72 47 86] cv=3fe5095601c1e020,3fcd56dedc3094b4 corr=0 remote=93
migrated=0 diffused=12`,
}
