package prm

import (
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/rng"
)

// benchRegion builds a realistic node-connection workload: one med-cube
// region's worth of free samples for a point robot.
func benchRegion(samples int) (*cspace.Space, []Node, Params) {
	s := cspace.NewPointSpace(env.MedCube())
	p := Params{SamplesPerRegion: samples, K: 8}
	nodes, _ := SampleRegion(s, s.Bounds, 0, p, rng.New(7))
	return s, nodes, p
}

// BenchmarkKernelConnectRegion measures the node-connection kernel — the
// paper's dominant phase (~90 % of execution) and the main target of the
// allocation-free scratch layer.
func BenchmarkKernelConnectRegion(b *testing.B) {
	s, nodes, p := benchRegion(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConnectRegion(s, nodes, 0, p)
	}
}

// BenchmarkKernelConnectBoundary measures the cross-region connection
// kernel (frontier selection + bridging attempts).
func BenchmarkKernelConnectBoundary(b *testing.B) {
	s, nodes, p := benchRegion(240)
	half := len(nodes) / 2
	aNodes, bNodes := nodes[:half], nodes[half:]
	_ = p
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConnectBoundary(s, aNodes, bNodes, 4, 16)
	}
}
