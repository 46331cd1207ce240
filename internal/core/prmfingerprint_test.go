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
	"parmp/internal/graph"
	"parmp/internal/steal"
)

// prmFingerprint renders everything a PRM engine commits and charges —
// roadmap size, a checksum over every vertex's coordinate bits and every
// edge, every phase time, every replayed phase's makespan, the remote
// and migration counters, node loads, the per-region cost summary and
// the cumulative repair stats — as one canonical string, so two runs
// compare bit for bit.
func prmFingerprint(res *PRMResult) string {
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		for k := range word {
			word[k] = byte(v >> (8 * k))
		}
		h.Write(word[:])
	}
	m := res.Roadmap
	for i := 0; i < m.NumNodes(); i++ {
		for _, x := range m.G.Vertex(graph.ID(i)).Q {
			put(math.Float64bits(x))
		}
	}
	m.G.ForEachEdge(func(a, b graph.ID, w float64) {
		put(uint64(a))
		put(uint64(b))
		put(math.Float64bits(w))
	})
	var b strings.Builder
	fmt.Fprintf(&b, "roadmap=%d,%d coords=%016x\n", m.NumNodes(), m.NumEdges(), h.Sum64())
	p := res.Phases
	fmt.Fprintf(&b, "phases=%x,%x,%x,%x,%x,%x,%x\n",
		math.Float64bits(p.Setup), math.Float64bits(p.Sampling), math.Float64bits(p.Redistribution),
		math.Float64bits(p.NodeConnection), math.Float64bits(p.RegionConnection),
		math.Float64bits(p.Repair), math.Float64bits(p.Other))
	reports := make([]string, len(res.PhaseReports))
	for i, pr := range res.PhaseReports {
		reports[i] = fmt.Sprintf("%s:%x", pr.Phase, math.Float64bits(pr.Report.Makespan))
	}
	fmt.Fprintf(&b, "reports=%s\n", strings.Join(reports, " "))
	costs := fnv.New64a()
	for _, c := range res.RegionCosts {
		fmt.Fprintf(costs, "%d,%x,%x;", c.Count, math.Float64bits(c.Sum), math.Float64bits(c.Max))
	}
	fmt.Fprintf(&b, "region-costs=%016x\n", costs.Sum64())
	r := res.Repairs
	fmt.Fprintf(&b, "repairs=%d,%d,%d,%d,%d,%d,%x,%+v\n", r.Deltas, r.CheckedNodes, r.CheckedEdges,
		r.RemovedNodes, r.RemovedEdges, r.Grafted, math.Float64bits(r.Makespan), r.Work)
	fmt.Fprintf(&b, "loads=%v cv=%x,%x remote=%d,%d\n", res.NodeLoads, math.Float64bits(res.CVBefore),
		math.Float64bits(res.CVAfter), res.RegionRemote, res.RoadmapRemote)
	fmt.Fprintf(&b, "migrated=%d diffused=%d", res.MigratedRegions, res.DiffusedRegions)
	return b.String()
}

// TestPRMEngineFingerprint pins PRMEngine bit for bit under three
// load-balancing configurations: three rounds, a moved-blocker repair,
// one more round, once sequentially and once with a host pre-pass. Any
// change to what the engine computes, or to the virtual time any phase
// charges, changes the fingerprint.
func TestPRMEngineFingerprint(t *testing.T) {
	balancers := map[string]func(*Options){
		"nolb":        func(o *Options) {},
		"repartition": func(o *Options) { o.Strategy = Repartition },
		"steal-observed-diffusive": func(o *Options) {
			o.Strategy = WorkStealing
			o.Policy = steal.RandK{K: 2}
			o.CostModel = CostObserved
			o.Rebalance = RebalanceDiffusive
		},
	}
	for _, lb := range []string{"nolb", "repartition", "steal-observed-diffusive"} {
		t.Run(lb, func(t *testing.T) {
			// The host pre-pass must change wall clock only.
			for _, hw := range []int{1, 2} {
				if got, want := prmFingerprintRun(t, balancers[lb], hw), prmFingerprintGolden[lb]; got != want {
					t.Errorf("HostWorkers=%d: fingerprint changed\n got:\n%s\nwant:\n%s", hw, got, want)
				}
			}
		})
	}
}

// prmFingerprintRun grows a PRM engine under one balancer with hw host
// workers — three rounds, a moved-blocker repair, one more round — and
// returns the fingerprints after the repair and after the last round.
func prmFingerprintRun(t *testing.T, balance func(*Options), hw int) string {
	t.Helper()
	base := env.MedCube()
	s := cspace.NewPointSpace(base)
	opts := quickOpts(4, 32)
	opts.SamplesPerRegion = 6
	opts.HostWorkers = hw
	balance(&opts)
	eng, err := NewPRMEngine(s, opts)
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
	rep, err := eng.ApplyDelta(s.WithEnv(mutated), d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	remap := fnv.New64a()
	fmt.Fprint(remap, rep.VertexRemap, rep.TouchedVertices)
	repair := fmt.Sprintf("remap=%016x\n%s", remap.Sum64(), prmFingerprint(eng.Result()))
	if err := eng.GrowRound(nil); err != nil {
		t.Fatal(err)
	}
	return repair + "\n--\n" + prmFingerprint(eng.Result())
}

// prmFingerprintGolden holds the expected fingerprints (after the
// repair, then after the final round) for TestPRMEngineFingerprint.
var prmFingerprintGolden = map[string]string{
	"nolb": `remap=1d2f4fc5b63a420e
roadmap=437,1152 coords=36fd047b95363ac3
phases=4049000000000000,407a966666666667,0,40c29ac51eb851ec,40b66f75c28f5c2a,4073900000000000,4062c00000000000
reports=sample:4056f33333333334 construct:40a9925c28f5c290 region-connect:409629851eb851ed sample:4056f33333333334 construct:40a831f5c28f5c2a region-connect:40a11ccccccccccd sample:4056f33333333334 construct:40a77ac28f5c28f6 region-connect:409f02b851eb851f repair:405b000000000000 repair-boundary:405a400000000000
region-costs=df78f47e72af6a1a
repairs=1,57,17,57,276,0,4073900000000000,cd=160 obst=247 lp=17/103 knn=0/0 samples=0
loads=[103 93 87 154] cv=3fd05b25592bcf05,3fcf009f16d00f0a remote=81,122
migrated=0 diffused=0
--
roadmap=603,1721 coords=d4298d4166ea89f8
phases=4049000000000000,4081b9999999999a,0,40c855bd70a3d70a,40beac23d70a3d72,4073900000000000,4069000000000000
reports=sample:4056f33333333334 construct:40a9925c28f5c290 region-connect:409629851eb851ed sample:4056f33333333334 construct:40a831f5c28f5c2a region-connect:40a11ccccccccccd sample:4056f33333333334 construct:40a77ac28f5c28f6 region-connect:409f02b851eb851f repair:405b000000000000 repair-boundary:405a400000000000 sample:4056f33333333334 construct:40a687e147ae147a region-connect:40a0155c28f5c290
region-costs=6d9125a7d31855ba
repairs=1,57,17,57,276,0,4073900000000000,cd=160 obst=247 lp=17/103 knn=0/0 samples=0
loads=[136 128 131 208] cv=3fd05b25592bcf05,3fcc2b7bd95a5773 remote=108,171
migrated=0 diffused=0`,
	"repartition": `remap=1d2f4fc5b63a420e
roadmap=437,1152 coords=36fd047b95363ac3
phases=4049000000000000,407d233333333334,4078900000000000,40c0f68a3d70a3d7,40b839f0a3d70a3e,4072d00000000000,4062c00000000000
reports=sample:4056f33333333334 construct:40a6e9eb851eb853 region-connect:40979fc28f5c28f6 sample:405c0cccccccccce construct:40a6ea9999999999 region-connect:40a3910a3d70a3d7 sample:405c0cccccccccce construct:40a4d9a3d70a3d6f region-connect:409fcdeb851eb852 repair:4058000000000000 repair-boundary:405a400000000000
region-costs=df78f47e72af6a1a
repairs=1,57,17,57,276,0,4072d00000000000,cd=160 obst=247 lp=17/103 knn=0/0 samples=0
loads=[95 121 100 121] cv=3fd05b25592bcf05,3fbbd7d17019b256 remote=92,139
migrated=7 diffused=0
--
roadmap=603,1721 coords=d4298d4166ea89f8
phases=4049000000000000,4083f4ccccccccce,4081f00000000000,40c61475c28f5c29,40c0b9947ae147ae,4072d00000000000,4069000000000000
reports=sample:4056f33333333334 construct:40a6e9eb851eb853 region-connect:40979fc28f5c28f6 sample:405c0cccccccccce construct:40a6ea9999999999 region-connect:40a3910a3d70a3d7 sample:405c0cccccccccce construct:40a4d9a3d70a3d6f region-connect:409fcdeb851eb852 repair:4058000000000000 repair-boundary:405a400000000000 sample:405e99999999999b construct:40a413ae147ae148 region-connect:40a20e70a3d70a3e
region-costs=6d9125a7d31855ba
repairs=1,57,17,57,276,0,4072d00000000000,cd=160 obst=247 lp=17/103 knn=0/0 samples=0
loads=[173 139 151 140] cv=3fd05b25592bcf05,3fb73bdd310f38df remote=125,198
migrated=12 diffused=0`,
	"steal-observed-diffusive": `remap=1d2f4fc5b63a420e
roadmap=437,1152 coords=36fd047b95363ac3
phases=4049000000000000,407d233333333334,4079400000000000,40c1fb51eb851eb8,40b7f08000000000,4080280000000000,4062c00000000000
reports=sample:4056f33333333334 construct:40a6aff5c28f5c29 region-connect:4096d30a3d70a3d6 sample:405c0cccccccccce construct:40a9b6851eb851ec region-connect:40a3f4e147ae147b sample:405c0cccccccccce construct:40a65acccccccccd region-connect:409ead3333333334 repair:4073800000000000 repair-boundary:405a400000000000
region-costs=df78f47e72af6a1a
repairs=1,57,17,57,276,0,4080280000000000,cd=160 obst=247 lp=17/103 knn=0/0 samples=0
loads=[86 115 118 118] cv=3fd05b25592bcf05,3fbf95c3563dcc87 remote=99,152
migrated=0 diffused=8
--
roadmap=603,1721 coords=d4298d4166ea89f8
phases=4049000000000000,4083a33333333334,40806c0000000000,40c795b333333333,40c0864f5c28f5c2,4080280000000000,4069000000000000
reports=sample:4056f33333333334 construct:40a6aff5c28f5c29 region-connect:4096d30a3d70a3d6 sample:405c0cccccccccce construct:40a9b6851eb851ec region-connect:40a3f4e147ae147b sample:405c0cccccccccce construct:40a65acccccccccd region-connect:409ead3333333334 repair:4073800000000000 repair-boundary:405a400000000000 sample:405c0cccccccccce construct:40a605851eb851ec region-connect:40a1d43d70a3d70a
region-costs=6d9125a7d31855ba
repairs=1,57,17,57,276,0,4080280000000000,cd=160 obst=247 lp=17/103 knn=0/0 samples=0
loads=[170 134 120 179] cv=3fd05b25592bcf05,3fc4c68b1dd58e5b remote=140,227
migrated=0 diffused=12`,
}
