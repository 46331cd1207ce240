package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"parmp"
	"parmp/internal/graph"
	"parmp/internal/metrics"
	"parmp/internal/obsv"
	"parmp/internal/rng"
)

// prm-build sizing: a build is one engine grown prmRounds rounds; the
// first prmCheckRounds of build 0 are repeated at HostWorkers=1 for the
// parity checksum; prmMoves blocker moves follow every build.
const (
	prmRounds      = 8
	prmCheckRounds = 3
	prmMoves       = 3
	prmEdgeSample  = 256
)

// prmOptions is the prm-build engine: the heterogeneous mixed world cut
// into 256 regions over 16 virtual processors, repartitioned each round.
func prmOptions(seed uint64, hostWorkers int) parmp.Options {
	return parmp.Options{
		Procs:            16,
		Regions:          256,
		SamplesPerRegion: 12,
		ConnectK:         8,
		Strategy:         parmp.Repartition,
		HostWorkers:      hostWorkers,
		Seed:             seed,
	}
}

// runPRMBuild grows PRM engines on seeds derived from the workload seed
// while the time allows (at least one build), timing every Engine.Grow,
// then moves a blocker onto each roadmap and times the repairs.
func runPRMBuild(rc runCtx) *outcome {
	o := newOutcome()
	ctx := context.Background()
	e0 := parmp.EnvironmentByName("mixed")
	space := parmp.NewPointSpace(e0)
	seeds := rng.Derive(rc.seed, 0x9b1d)
	sites := rng.Derive(rc.seed, 0x51e5)

	var (
		setupS, roundMS, mutateMS []float64
		nodes                     int
		growWall                  time.Duration
		firstSeed                 uint64
		firstRounds               []float64
		firstSum                  string
		heaps                     []float64
		allocs                    []float64
		indexMS, lpNS             []float64
		checked, removed          int
	)
	for b, bud := 0, newBudget(rc.seconds); bud.next(); b++ {
		seed := seeds.Uint64()
		opts := prmOptions(seed, par)
		if rc.rt != nil {
			opts.Runtime = rc.rt
		}
		t0 := time.Now()
		eng, err := parmp.NewEngine(space, opts)
		setupS = append(setupS, time.Since(t0).Seconds())
		o.attempted++
		if err != nil {
			o.failed++
			o.problem("build %d: NewEngine: %v", b, err)
			continue
		}
		for r := 0; r < prmRounds; r++ {
			var ms0 runtime.MemStats
			id := rc.openSpan()
			if rc.tr != nil {
				runtime.ReadMemStats(&ms0)
			}
			o.attempted++
			t := time.Now()
			err := eng.Grow(ctx)
			end := time.Now()
			d := end.Sub(t)
			if err != nil {
				o.failed++
				o.problem("build %d round %d: Grow: %v", b, r, err)
				break
			}
			roundMS = append(roundMS, ms(d))
			growWall += d
			rc.tr.recordAs(id, "parmp.Grow", 0, int64(b*prmRounds+r+1), t, end)
			if b == 0 && r < prmCheckRounds {
				firstRounds = append(firstRounds, ms(d))
			}
			if b == 0 && r+1 == prmCheckRounds {
				firstSum = roadmapChecksum(eng.Snapshot().PRM().Roadmap)
			}
			if rc.tr != nil {
				var ms1 runtime.MemStats
				runtime.ReadMemStats(&ms1)
				allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
				ti := time.Now()
				parmp.NewRoadmapIndex(eng.Snapshot().PRM().Roadmap)
				indexMS = append(indexMS, ms(time.Since(ti)))
				rc.tr.record("prm.NewRoadmapIndex", id, int64(b*prmRounds+r+1), ti, time.Now())
			}
		}
		snap := eng.Snapshot()
		nodes += snap.NumNodes()
		if b == 0 {
			firstSeed = seed
			if rc.tr != nil {
				res := snap.PRM()
				vtLayers(o, res.PhaseReports, res.TotalTime, res.MigratedRegions)
			}
		}

		// Blocker moves onto roadmap nodes, each timed as one repair.
		bl := newBlocker(e0)
		for m := 0; m < prmMoves; m++ {
			center := snap.PRM().Roadmap.G.Vertex(graph.ID(sites.Intn(snap.NumNodes()))).Q
			muts, _, world, err := bl.move(center)
			if err != nil {
				o.problem("build %d move %d: %v", b, m, err)
				break
			}
			o.attempted++
			id := rc.openSpan()
			t := time.Now()
			rep, err := eng.ApplyDelta(ctx, muts...)
			mutateMS = append(mutateMS, ms(time.Since(t)))
			rc.tr.recordAs(id, "parmp.ApplyDelta", 0, int64(b*prmMoves+m+1), t, time.Now())
			if err != nil {
				o.failed++
				o.problem("build %d move %d: ApplyDelta: %v", b, m, err)
				break
			}
			bl.commit(world)
			checked += rep.CheckedEdges
			removed += rep.RemovedNodes
			snap = eng.Snapshot()
		}
		// Every sampled committed edge must be free in the final world.
		ns, bad := checkEdges(parmp.NewPointSpace(bl.world), snap.PRM().Roadmap, sites.Uint64())
		lpNS = append(lpNS, ns)
		if bad > 0 {
			o.problem("build %d: %d sampled roadmap edges collide in the repaired world", b, bad)
		}
		heaps = append(heaps, heapLiveMB())
		runtime.KeepAlive(eng)
	}

	// Parity: the same seed at HostWorkers=1, unwrapped, must commit the
	// same roadmap bit for bit (this also proves the timed runtime
	// wrapper transparent in traced runs).
	var serialRounds []float64
	eng, err := parmp.NewEngine(space, prmOptions(firstSeed, 1))
	if err != nil {
		o.problem("parity build: %v", err)
	} else {
		for r := 0; r < prmCheckRounds; r++ {
			t := time.Now()
			if err := eng.Grow(ctx); err != nil {
				o.problem("parity build round %d: %v", r, err)
				break
			}
			serialRounds = append(serialRounds, ms(time.Since(t)))
		}
		if got := roadmapChecksum(eng.Snapshot().PRM().Roadmap); got != firstSum {
			o.problem("roadmap at HostWorkers=1 differs from HostWorkers=%d: %s vs %s", par, got, firstSum)
		}
	}

	rounds := summarize(roundMS)
	o.show("setup_s", "setup_s", measure{quantile(setupS, 50), "s", len(setupS)})
	o.show("heap_live_mb", "heap_live_mb", measure{quantile(heaps, 50), "MB", len(heaps)})
	o.show("op_p50_ms", "round_p50_ms", measure{rounds.P50, "ms", rounds.N})
	o.show("op_tail_ms", "round_p90_ms", measure{quantile(roundMS, 90), "ms", rounds.N})
	o.show("throughput_per_s", "nodes_per_s", measure{float64(nodes) / growWall.Seconds(), "1/s", len(setupS)})
	o.show("mutate_p50_ms", "apply_delta_p50_ms", measure{quantile(mutateMS, 50), "ms", len(mutateMS)})

	if rc.tr != nil {
		// A round's self time is Grow minus its dist.Run children: the
		// host pass, the serial merge and the publish, whose index build
		// is timed separately.
		grow, self := rc.tr.durations("parmp.Grow"), rc.tr.selfMS("parmp.Grow")
		replay, other := make([]float64, len(grow)), make([]float64, len(grow))
		for i := range grow {
			replay[i] = grow[i] - self[i]
			other[i] = self[i] - indexMS[i]
		}
		o.layer["parmp.grow_ms"] = measure{quantile(grow, 50), "ms", len(grow)}
		o.layer["prm.index_build_ms"] = measure{quantile(indexMS, 50), "ms", len(indexMS)}
		o.layer["dist.replay_ms"] = measure{quantile(replay, 50), "ms", len(replay)}
		o.layer["core.round_other_ms"] = measure{quantile(other, 50), "ms", len(other)}
		o.layer["exec.host_speedup"] = measure{quantile(serialRounds, 50) / quantile(firstRounds, 50), "ratio", len(serialRounds)}
		o.layer["exec.allocs_per_round"] = measure{metrics.Sum(allocs) / float64(len(allocs)), "count", len(allocs)}
		o.layer["cspace.localplan_ns_per_edge"] = measure{quantile(lpNS, 50), "ns", len(lpNS) * prmEdgeSample}
		o.layer["repair.checked_edges"] = measure{float64(checked) / float64(len(mutateMS)), "count", len(mutateMS)}
		o.layer["repair.removed_nodes"] = measure{float64(removed) / float64(len(mutateMS)), "count", len(mutateMS)}
	}
	return o
}

// vtLayers reports the virtual-time scheduler's deterministic counts for
// one engine's committed phases.
func vtLayers(o *outcome, phases []parmp.PhaseReport, makespan float64, migrated int) {
	var busy, capacity float64
	var steals int
	for _, ph := range phases {
		m := obsv.Analyze(ph.Report)
		busy += m.BusyTotal
		capacity += float64(len(ph.Report.Workers)) * m.Makespan
		steals += m.StealsGranted
	}
	o.layer["dist.makespan_vt"] = measure{makespan, "vt", len(phases)}
	o.layer["dist.utilization"] = measure{busy / capacity, "frac", len(phases)}
	o.layer["dist.steals_granted"] = measure{float64(steals), "count", len(phases)}
	o.layer["core.migrated_regions"] = measure{float64(migrated), "count", 1}
}

// roadmapChecksum digests a roadmap exactly: node and edge counts plus
// every node's region and coordinates and every edge's endpoints and
// weight, floats printed with %.17g so equal digests mean bit-identical
// roadmaps.
func roadmapChecksum(m *parmp.Roadmap) string {
	h := fnv.New64a()
	g := m.G
	for i := 0; i < g.NumVertices(); i++ {
		n := g.Vertex(graph.ID(i))
		fmt.Fprintf(h, "n%d", n.Region)
		for _, x := range n.Q {
			fmt.Fprintf(h, " %.17g", x)
		}
	}
	g.ForEachEdge(func(a, b graph.ID, w float64) {
		fmt.Fprintf(h, "e%d-%d %.17g", a, b, w)
	})
	return fmt.Sprintf("%d nodes %d edges %016x", g.NumVertices(), g.NumEdges(), h.Sum64())
}

// checkEdges re-validates up to prmEdgeSample committed roadmap edges,
// spread evenly from a seeded offset, with Space.LocalPlan. It returns
// the mean time per edge in nanoseconds and how many collided.
func checkEdges(space *parmp.Space, m *parmp.Roadmap, offset uint64) (float64, int) {
	type edge struct{ a, b graph.ID }
	var all []edge
	m.G.ForEachEdge(func(a, b graph.ID, _ float64) { all = append(all, edge{a, b}) })
	if len(all) == 0 {
		return 0, 0
	}
	stride := max(1, len(all)/prmEdgeSample)
	var picked []edge
	for i := int(offset % uint64(stride)); i < len(all) && len(picked) < prmEdgeSample; i += stride {
		picked = append(picked, all[i])
	}
	bad := 0
	t := time.Now()
	for _, e := range picked {
		if !space.LocalPlan(m.G.Vertex(e.a).Q, m.G.Vertex(e.b).Q, nil) {
			bad++
		}
	}
	return float64(time.Since(t).Nanoseconds()) / float64(len(picked)), bad
}
