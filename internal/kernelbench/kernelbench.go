// Package kernelbench measures the repository's hot compute kernels —
// sampling, collision checking, nearest-neighbour queries and region
// connection — and emits machine-readable results for the CI
// benchmark-regression gate.
//
// The kernel list mirrors the BenchmarkKernel* benchmarks in the
// internal packages, but lives in normal (non-test) code so that
// `mpbench -kernels` can run it from a plain binary via
// testing.Benchmark. Allocation counts are the contract: the pooled
// kernels are expected to stay at (near) zero allocs/op, and CI fails
// when any kernel regresses above its threshold. Every body makes one
// untimed call before b.ResetTimer, so a short run (mpbench's default
// is 100x) reads the steady state rather than the first call's lazy
// scratch growth.
package kernelbench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/geom"
	"parmp/internal/knn"
	"parmp/internal/prm"
	"parmp/internal/rng"
)

// Result is one kernel's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// ItemsPerOp is how many logical items (configurations, edges, kNN
	// queries) one op processes; NsPerItem = NsPerOp / ItemsPerOp. Batch
	// kernels amortize per-call overhead over many items, so per-item
	// time — not per-op time — is what the batch regression gate compares
	// against the scalar counterpart.
	ItemsPerOp int     `json:"items_per_op"`
	NsPerItem  float64 `json:"ns_per_item"`
}

// Kernel names a benchmark body runnable via testing.Benchmark. Items is
// the number of logical items one benchmark op processes (0 = 1).
type Kernel struct {
	Name  string
	Items int
	Bench func(b *testing.B)
}

// Kernels returns the canonical kernel suite, sorted by name.
func Kernels() []Kernel {
	ks := []Kernel{
		{Name: "ConnectRegion", Bench: benchConnectRegion},
		{Name: "ConnectBoundary", Bench: benchConnectBoundary},
		{Name: "ConfigFree", Bench: benchConfigFree(env.MedCube)},
		{Name: "ConfigFreeBatch", Items: batchConfigs, Bench: benchConfigFreeBatch(env.MedCube)},
		{Name: "ConfigFreeMixed", Bench: benchConfigFree(env.Mixed)},
		{Name: "ConfigFreeBatchMixed", Items: batchConfigs, Bench: benchConfigFreeBatch(env.Mixed)},
		{Name: "EdgeFreeLinkage", Bench: benchEdgeFreeLinkage},
		{Name: "EdgeFreeBatchLinkage", Items: batchEdges, Bench: benchEdgeFreeBatchLinkage},
		{Name: "LocalPlan", Bench: benchLocalPlan(medCubeEdge)},
		{Name: "LocalPlanBatch", Bench: benchLocalPlanBatch(medCubeEdge)},
		{Name: "LocalPlanMixed", Bench: benchLocalPlan(mixedEdge)},
		{Name: "LocalPlanBatchMixed", Bench: benchLocalPlanBatch(mixedEdge)},
		{Name: "NearestInto", Bench: benchNearestInto},
		{Name: "NearestBatch", Items: batchQueries, Bench: benchNearestBatch},
		{Name: "DynamicNearest", Bench: benchDynamicNearest},
		{Name: "KDTreeBuild", Bench: benchKDTreeBuild},
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].Name < ks[j].Name })
	return ks
}

// RunAll benchmarks every kernel and returns the results in suite order.
func RunAll() []Result {
	ks := Kernels()
	out := make([]Result, 0, len(ks))
	for _, k := range ks {
		r := testing.Benchmark(k.Bench)
		items := k.Items
		if items <= 0 {
			items = 1
		}
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		out = append(out, Result{
			Name:        k.Name,
			Iterations:  r.N,
			NsPerOp:     ns,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			ItemsPerOp:  items,
			NsPerItem:   ns / float64(items),
		})
	}
	return out
}

// WriteJSON emits the results as indented JSON.
func WriteJSON(w io.Writer, rs []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

// CheckMaxAllocs returns an error naming every kernel whose allocs/op
// exceeds max — the CI regression gate.
func CheckMaxAllocs(rs []Result, max int64) error {
	var bad []string
	for _, r := range rs {
		if r.AllocsPerOp > max {
			bad = append(bad, fmt.Sprintf("%s (%d allocs/op)", r.Name, r.AllocsPerOp))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("kernels exceed %d allocs/op: %v", max, bad)
	}
	return nil
}

// batchPairs maps each batched kernel to its scalar counterpart. Both
// sides of a pair process the same inputs (the scalar kernel one item
// per op, the batch kernel the whole set), so per-item times are
// directly comparable on any machine.
var batchPairs = []struct{ batch, scalar string }{
	{"ConfigFreeBatch", "ConfigFree"},
	{"ConfigFreeBatchMixed", "ConfigFreeMixed"},
	{"EdgeFreeBatchLinkage", "EdgeFreeLinkage"},
	{"LocalPlanBatch", "LocalPlan"},
	{"LocalPlanBatchMixed", "LocalPlanMixed"},
	{"NearestBatch", "NearestInto"},
}

// CheckBatchNs enforces the batched kernels' ns regression gate: each
// batch kernel's per-item time must stay within maxRatio of its scalar
// counterpart's (e.g. 1.15 = at most 15% slower per item). The ratio is
// machine-independent — both sides run on the same host in the same
// process — so CI needs no stored baseline for this check.
func CheckBatchNs(rs []Result, maxRatio float64) error {
	byName := make(map[string]Result, len(rs))
	for _, r := range rs {
		byName[r.Name] = r
	}
	var bad []string
	for _, p := range batchPairs {
		b, okB := byName[p.batch]
		s, okS := byName[p.scalar]
		if !okB || !okS {
			continue
		}
		if s.NsPerItem <= 0 {
			continue
		}
		if ratio := b.NsPerItem / s.NsPerItem; ratio > maxRatio {
			bad = append(bad, fmt.Sprintf("%s %.1f ns/item vs %s %.1f ns/item (%.2fx > %.2fx)",
				p.batch, b.NsPerItem, p.scalar, s.NsPerItem, ratio, maxRatio))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("batch kernels regressed past the scalar baseline: %v", bad)
	}
	return nil
}

// ReadJSON parses results previously written by WriteJSON.
func ReadJSON(r io.Reader) ([]Result, error) {
	var rs []Result
	if err := json.NewDecoder(r).Decode(&rs); err != nil {
		return nil, err
	}
	return rs, nil
}

// CheckNsRegression compares current results against a stored baseline:
// any kernel present in both whose ns/op grew by more than maxRegress
// (0.15 = 15%) fails the gate. Kernels absent from the baseline are
// skipped, so adding a kernel never breaks an old baseline file.
func CheckNsRegression(cur, baseline []Result, maxRegress float64) error {
	base := make(map[string]Result, len(baseline))
	for _, r := range baseline {
		base[r.Name] = r
	}
	var bad []string
	for _, r := range cur {
		b, ok := base[r.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		if r.NsPerOp > b.NsPerOp*(1+maxRegress) {
			bad = append(bad, fmt.Sprintf("%s %.1f ns/op vs baseline %.1f ns/op (+%.0f%%)",
				r.Name, r.NsPerOp, b.NsPerOp, (r.NsPerOp/b.NsPerOp-1)*100))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("kernels regressed more than %.0f%% over baseline: %v", maxRegress*100, bad)
	}
	return nil
}

func benchConnectRegion(b *testing.B) {
	s := cspace.NewPointSpace(env.MedCube())
	nodes, _ := prm.SampleRegion(s, s.Bounds, 0, prm.Params{SamplesPerRegion: 200}, rng.New(7))
	p := prm.Params{K: 8}
	prm.ConnectRegion(s, nodes, 0, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prm.ConnectRegion(s, nodes, 0, p)
	}
}

func benchConnectBoundary(b *testing.B) {
	s := cspace.NewPointSpace(env.MedCube())
	all, _ := prm.SampleRegion(s, s.Bounds, 0, prm.Params{SamplesPerRegion: 240}, rng.New(7))
	half := len(all) / 2
	prm.ConnectBoundary(s, all[:half], all[half:], 4, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prm.ConnectBoundary(s, all[:half], all[half:], 4, 16)
	}
}

// Batch sizes for the batched kernels; the scalar counterparts iterate
// the same fixture sets one item per op, so per-item times compare the
// exact same work.
const (
	batchConfigs = 64
	batchEdges   = 16
	batchQueries = 64
)

// freeConfigs rejection-samples n collision-free configurations.
func freeConfigs(s *cspace.Space, n int, seed uint64) []cspace.Config {
	r := rng.New(seed)
	var sc cspace.Scratch
	var c cspace.Counters
	out := make([]cspace.Config, 0, n)
	for len(out) < n {
		q := s.SampleIn(s.Bounds, r, nil)
		if s.ValidS(q, &sc, &c) {
			out = append(out, q)
		}
	}
	return out
}

// The collision kernels run on two worlds: med-cube (one obstacle, so
// the broadphase has no cells and every query sweeps) and mixed (216
// boxes, every query culled through the broadphase grid).

func rigidBenchSpace(world func() *env.Environment) *cspace.Space {
	return cspace.NewRigidBodySpace(world(), cspace.NewRigidBox(0.03, 0.02, 0.01))
}

func benchConfigFree(world func() *env.Environment) func(b *testing.B) {
	return func(b *testing.B) {
		s := rigidBenchSpace(world)
		var c cspace.Counters
		var sc cspace.Scratch
		qs := freeConfigs(s, batchConfigs, 11)
		s.ValidS(qs[0], &sc, &c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ValidS(qs[i%len(qs)], &sc, &c)
		}
	}
}

func benchConfigFreeBatch(world func() *env.Environment) func(b *testing.B) {
	return func(b *testing.B) {
		s := rigidBenchSpace(world)
		robot := s.Robot.(cspace.BatchRobot)
		qs := freeConfigs(s, batchConfigs, 11)
		var bt cspace.Batch
		bt.Reset(s.Dim())
		for _, q := range qs {
			bt.Append(q)
		}
		robot.ConfigFreeBatch(s.Env, &bt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			robot.ConfigFreeBatch(s.Env, &bt)
		}
	}
}

// linkageBenchEdges returns n short edges whose swept motion is free, so
// a batch sweep never fails fast and every item costs full validation.
func linkageBenchEdges(e *env.Environment, l cspace.Linkage, s *cspace.Space, n int, seed uint64) (qa, qb []cspace.Config) {
	r := rng.New(seed)
	var sc cspace.Scratch
	for len(qa) < n {
		a := s.SampleIn(s.Bounds, r, nil)
		bb := a.Clone()
		for i := range bb {
			bb[i] += 0.01
		}
		if ok, _ := l.EdgeFreeS(e, a, bb, &sc); ok {
			qa = append(qa, a)
			qb = append(qb, bb)
		}
	}
	return qa, qb
}

func linkageBenchSpace() (*env.Environment, cspace.Linkage, *cspace.Space) {
	e := env.Maze2D(4, 0.2)
	l := cspace.Linkage{Base: geom.V(0.5, 0.5), LinkLen: []float64{0.1, 0.1, 0.08, 0.06}}
	return e, l, cspace.NewLinkageSpace(e, l)
}

func benchEdgeFreeLinkage(b *testing.B) {
	e, l, s := linkageBenchSpace()
	qa, qb := linkageBenchEdges(e, l, s, batchEdges, 13)
	var sc cspace.Scratch
	l.EdgeFreeS(e, qa[0], qb[0], &sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(qa)
		l.EdgeFreeS(e, qa[j], qb[j], &sc)
	}
}

func benchEdgeFreeBatchLinkage(b *testing.B) {
	e, l, s := linkageBenchSpace()
	qa, qb := linkageBenchEdges(e, l, s, batchEdges, 13)
	var bt cspace.Batch
	bt.Reset(s.Dim())
	for j := range qa {
		bt.AppendEdge(qa[j], qb[j])
	}
	l.EdgeFreeBatch(e, &bt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.EdgeFreeBatch(e, &bt)
	}
}

// planEdge is a free edge of a point-robot world, so both local planners
// sweep the full resolution — the accepted-edge hot path that dominates
// PRM connection cost.
type planEdge struct {
	world func() *env.Environment
	a, b  geom.Vec
}

var (
	// medCubeEdge skirts the central cube.
	medCubeEdge = planEdge{env.MedCube, geom.V(0.05, 0.05, 0.05), geom.V(0.1, 0.9, 0.1)}
	// mixedEdge threads the sparse half of the box lattice.
	mixedEdge = planEdge{env.Mixed, geom.V(0.889, 0.308, 0.201), geom.V(0.835, 0.369, 0.971)}
)

func benchLocalPlan(e planEdge) func(b *testing.B) {
	return func(b *testing.B) {
		s := cspace.NewPointSpace(e.world())
		var c cspace.Counters
		var sc cspace.Scratch
		s.LocalPlanS(e.a, e.b, &sc, &c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.LocalPlanS(e.a, e.b, &sc, &c)
		}
	}
}

func benchLocalPlanBatch(e planEdge) func(b *testing.B) {
	return func(b *testing.B) {
		s := cspace.NewPointSpace(e.world())
		var c cspace.Counters
		var bt cspace.Batch
		s.LocalPlanBatch(e.a, e.b, &bt, &c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.LocalPlanBatch(e.a, e.b, &bt, &c)
		}
	}
}

func randomPoints(r *rng.Stream, n, d int) []geom.Vec {
	pts := make([]geom.Vec, n)
	for i := range pts {
		pts[i] = make(geom.Vec, d)
		for j := range pts[i] {
			pts[i][j] = r.Float64()
		}
	}
	return pts
}

func benchNearestInto(b *testing.B) {
	r := rng.New(17)
	pts := randomPoints(r, 1000, 3)
	tree := knn.Build(pts)
	qs := randomPoints(r, 64, 3)
	var sc knn.QueryScratch
	dst, _ := tree.NearestInto(&sc, qs[0], 8, -1, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = tree.NearestInto(&sc, qs[i%len(qs)], 8, -1, dst[:0])
	}
}

func benchNearestBatch(b *testing.B) {
	r := rng.New(17)
	pts := randomPoints(r, 1000, 3)
	tree := knn.Build(pts)
	qs := randomPoints(r, batchQueries, 3)
	var sc knn.QueryScratch
	dst, offs, _ := tree.NearestBatch(&sc, qs, 8, -1, nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, offs, _ = tree.NearestBatch(&sc, qs, 8, -1, dst[:0], offs)
	}
}

func benchDynamicNearest(b *testing.B) {
	r := rng.New(19)
	d := knn.NewDynamic()
	for i := 0; i < 5000; i++ {
		d.Add(randomPoints(r, 1, 3)[0])
	}
	qs := randomPoints(r, 64, 3)
	var sc knn.QueryScratch
	dst, _ := d.NearestInto(&sc, qs[0], 8, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = d.NearestInto(&sc, qs[i%len(qs)], 8, dst[:0])
	}
}

func benchKDTreeBuild(b *testing.B) {
	r := rng.New(23)
	pts := randomPoints(r, 20000, 3)
	var tree knn.KDTree
	tree.Reset(pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Reset(pts)
	}
}
