package kernelbench

import (
	"bytes"
	"encoding/json"
	"flag"
	"strings"
	"testing"

	"parmp/internal/cspace"
)

// TestRunOneKernel smoke-tests the testing.Benchmark plumbing on the
// cheapest kernel with a tiny benchtime.
func TestRunOneKernel(t *testing.T) {
	if err := flag.Set("test.benchtime", "10x"); err != nil {
		t.Fatal(err)
	}
	r := testing.Benchmark(benchLocalPlan(medCubeEdge))
	if r.N < 10 {
		t.Fatalf("benchmark ran %d iterations, want >= 10", r.N)
	}
	if a := r.AllocsPerOp(); a > 5 {
		t.Fatalf("LocalPlan kernel allocates %d allocs/op, want near zero", a)
	}
}

func TestKernelsNamedAndSorted(t *testing.T) {
	ks := Kernels()
	if len(ks) < 6 {
		t.Fatalf("kernel suite has %d entries, want at least 6", len(ks))
	}
	for i, k := range ks {
		if k.Name == "" || k.Bench == nil {
			t.Fatalf("kernel %d incomplete: %+v", i, k)
		}
		if i > 0 && ks[i-1].Name >= k.Name {
			t.Fatalf("kernels not sorted: %q before %q", ks[i-1].Name, k.Name)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	in := []Result{
		{Name: "A", Iterations: 3, NsPerOp: 12.5, AllocsPerOp: 1, BytesPerOp: 64},
		{Name: "B", Iterations: 9, NsPerOp: 0.5},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []Result
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

// TestRunBatchKernel smoke-tests a batched kernel body and its
// steady-state allocation contract.
func TestRunBatchKernel(t *testing.T) {
	if err := flag.Set("test.benchtime", "10x"); err != nil {
		t.Fatal(err)
	}
	r := testing.Benchmark(benchLocalPlanBatch(medCubeEdge))
	if r.N < 10 {
		t.Fatalf("benchmark ran %d iterations, want >= 10", r.N)
	}
	if a := r.AllocsPerOp(); a > 5 {
		t.Fatalf("LocalPlanBatch kernel allocates %d allocs/op, want near zero", a)
	}

	// At mpbench's default 100x the collision batch kernels read their
	// steady state: the warm-up call absorbs the scratch growth, which
	// would otherwise round up to 1 allocs/op.
	if err := flag.Set("test.benchtime", "100x"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ConfigFreeBatch", "ConfigFreeBatchMixed"} {
		var k Kernel
		for _, c := range Kernels() {
			if c.Name == name {
				k = c
			}
		}
		r := testing.Benchmark(k.Bench)
		if a := r.AllocsPerOp(); a != 0 {
			t.Fatalf("%s allocates %d allocs/op (%d B/op) at 100x, want 0", name, a, r.AllocedBytesPerOp())
		}
	}
}

func TestCheckBatchNs(t *testing.T) {
	rs := []Result{
		{Name: "LocalPlan", NsPerOp: 100, ItemsPerOp: 1, NsPerItem: 100},
		{Name: "LocalPlanBatch", NsPerOp: 110, ItemsPerOp: 1, NsPerItem: 110},
		{Name: "NearestInto", NsPerOp: 100, ItemsPerOp: 1, NsPerItem: 100},
		{Name: "NearestBatch", NsPerOp: 6400, ItemsPerOp: 64, NsPerItem: 100},
	}
	if err := CheckBatchNs(rs, 1.15); err != nil {
		t.Fatalf("within-ratio results failed the gate: %v", err)
	}
	rs[1].NsPerItem = 120 // 1.2x > 1.15x
	err := CheckBatchNs(rs, 1.15)
	if err == nil {
		t.Fatal("expected ratio gate failure")
	}
	if !strings.Contains(err.Error(), "LocalPlanBatch") || strings.Contains(err.Error(), "NearestBatch") {
		t.Fatalf("error should name only the offending pair: %v", err)
	}
	// Pairs with a missing side are skipped, not failed.
	if err := CheckBatchNs(rs[:2][1:], 1.15); err != nil {
		t.Fatalf("missing scalar side should be skipped: %v", err)
	}
}

func TestCheckNsRegression(t *testing.T) {
	base := []Result{
		{Name: "LocalPlan", NsPerOp: 100},
		{Name: "NearestInto", NsPerOp: 200},
	}
	cur := []Result{
		{Name: "LocalPlan", NsPerOp: 110},    // +10%: fine at 15%
		{Name: "NearestInto", NsPerOp: 260},  // +30%: regression
		{Name: "BrandNewKernel", NsPerOp: 1}, // absent from baseline: skipped
	}
	err := CheckNsRegression(cur, base, 0.15)
	if err == nil {
		t.Fatal("expected regression error")
	}
	if !strings.Contains(err.Error(), "NearestInto") || strings.Contains(err.Error(), "LocalPlan ") {
		t.Fatalf("error should name only the offender: %v", err)
	}
	if err := CheckNsRegression(cur, base, 0.5); err != nil {
		t.Fatalf("generous threshold should pass: %v", err)
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, base); err != nil {
		t.Fatal(err)
	}
	round, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(round) != len(base) || round[0] != base[0] {
		t.Fatalf("ReadJSON round trip: got %+v, want %+v", round, base)
	}
}

func TestCheckMaxAllocs(t *testing.T) {
	rs := []Result{
		{Name: "ok", AllocsPerOp: 2},
		{Name: "hot", AllocsPerOp: 500},
	}
	if err := CheckMaxAllocs(rs, 500); err != nil {
		t.Fatalf("unexpected failure at threshold: %v", err)
	}
	err := CheckMaxAllocs(rs, 10)
	if err == nil {
		t.Fatal("expected regression error")
	}
	if !strings.Contains(err.Error(), "hot") || strings.Contains(err.Error(), "\"ok\"") {
		t.Fatalf("error should name only the offender: %v", err)
	}
}

// TestPlanEdgesFree checks the local-planning fixtures are free edges,
// so both planners sweep the full resolution and the batch and scalar
// kernels compare the same work.
func TestPlanEdgesFree(t *testing.T) {
	for _, e := range []planEdge{medCubeEdge, mixedEdge} {
		s := cspace.NewPointSpace(e.world())
		var sc cspace.Scratch
		if !s.LocalPlanS(e.a, e.b, &sc, nil) {
			t.Errorf("%s edge %v→%v is not free", s.Env.Name, e.a, e.b)
		}
	}
}
