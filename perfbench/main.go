// Command perfbench is the repository's wall-clock benchmark. One
// process runs one workload — prm-build, tree-race or serve-mixed — for
// a fixed time, checks the program's outputs, and prints the workload's
// metrics: a human-readable table, then one JSON object as the last
// line of standard output. See README.md for what each workload and
// metric measures.
//
//	perfbench --workload prm-build --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics. With --trace 1
// the workload runs twice, untraced and then traced (spans recorded
// around the calls into each layer), and the JSON carries the per-layer
// metrics plus the tracing overhead; the spans are written to
// --out-dir. A failed correctness check prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"parmp/internal/dist"
)

// par is the parallelism every workload is sized for: host workers,
// concurrent racers, batch workers and client connections. It is fixed,
// not read from the host, so every host runs the same work.
const par = 2

// measure is one reported number with its unit and sample count.
type measure struct {
	Value float64
	Unit  string
	N     int
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	// e2e holds the end-to-end metrics under their BENCHMARK.json names;
	// shown holds the same numbers under the workload's own names, for
	// the human-readable table.
	e2e   map[string]measure
	shown []named
	// layer holds the per-layer metrics (traced runs only).
	layer map[string]measure
	// problems lists failed correctness checks.
	problems []string
}

type named struct {
	name string
	m    measure
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]measure{}, layer: map[string]measure{}}
}

// show records an end-to-end metric under its generic name and under
// the workload's own name.
func (o *outcome) show(generic, own string, m measure) {
	o.e2e[generic] = m
	o.shown = append(o.shown, named{own, m})
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// runCtx is what a workload run receives.
type runCtx struct {
	seed    uint64
	seconds float64
	tr      *tracer       // nil when untraced
	rt      *timedRuntime // nil when untraced; the planners' Options.Runtime
}

// openSpan reserves a span ID for a call about to be made and makes it
// the parent of the dist.Run spans recorded during the call.
func (rc runCtx) openSpan() int64 {
	id := rc.tr.reserve()
	if rc.rt != nil {
		rc.rt.parent.Store(id)
	}
	return id
}

var workloads = map[string]func(runCtx) *outcome{
	"prm-build":   runPRMBuild,
	"tree-race":   runTreeRace,
	"serve-mixed": runServeMixed,
}

// endToEnd and perLayer are the metric names and units the benchmark
// reports, exactly as declared in BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"mutate_p50_ms", "ms"},
}

var perLayer = []struct{ name, unit string }{
	{"parmp.grow_ms", "ms"},
	{"prm.index_build_ms", "ms"},
	{"dist.replay_ms", "ms"},
	{"core.round_other_ms", "ms"},
	{"exec.host_speedup", "ratio"},
	{"exec.allocs_per_round", "count"},
	{"cspace.localplan_ns_per_edge", "ns"},
	{"knn.nearest_ns_per_query", "ns"},
	{"prm.query_us_p50", "us"},
	{"prm.query_us_p99", "us"},
	{"prm.batch_us_per_query", "us"},
	{"core.tree_round_ms", "ms"},
	{"core.tree_index_ms", "ms"},
	{"portfolio.waves", "count"},
	{"portfolio.restarts", "count"},
	{"tree.nodes_at_solve", "count"},
	{"serve.server_us_p50", "us"},
	{"serve.server_us_p99", "us"},
	{"serve.gap_us_p50", "us"},
	{"serve.gap_us_p99", "us"},
	{"serve.cache_hit_frac", "frac"},
	{"serve.batch_mean", "count"},
	{"serve.rejected", "count"},
	{"serve.repair_ms", "ms"},
	{"serve.query_p99_ms_lo", "ms"},
	{"serve.query_p99_ms_hi", "ms"},
	{"repair.checked_edges", "count"},
	{"repair.removed_nodes", "count"},
	{"dist.makespan_vt", "vt"},
	{"dist.utilization", "frac"},
	{"dist.steals_granted", "count"},
	{"core.migrated_regions", "count"},
	{"gen.late_p99_ms", "ms"},
	{"error_frac", "frac"},
	{"trace_overhead_frac", "frac"},
}

func main() {
	workload := flag.String("workload", "", "workload to run: prm-build, tree-race or serve-mixed")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 15, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 = also run traced and report per-layer metrics")
	outDir := flag.String("out-dir", ".bench_build", "where the traced run writes its spans")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload prm-build|tree-race|serve-mixed, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	rc := runCtx{seed: *seed, seconds: *seconds}
	base := run(rc)
	final := base
	metrics := map[string]measure{}
	if *trace == 0 {
		for _, m := range endToEnd {
			metrics[m.name] = base.e2e[m.name]
		}
	} else {
		rc.tr = newTracer()
		rc.rt = &timedRuntime{inner: dist.Runtime, tr: rc.tr}
		traced := run(rc)
		final = traced
		traced.attempted += base.attempted
		traced.failed += base.failed
		traced.problems = append(base.problems, traced.problems...)
		// A layer the workload does not exercise reports zero.
		for _, m := range perLayer {
			v, ok := traced.layer[m.name]
			if !ok {
				v = measure{0, m.unit, 0}
			}
			metrics[m.name] = v
		}
		u, t := base.e2e["op_p50_ms"], traced.e2e["op_p50_ms"]
		metrics["trace_overhead_frac"] = measure{Value: t.Value/u.Value - 1, Unit: "frac", N: t.N}
		metrics["error_frac"] = measure{Value: float64(traced.failed) / float64(max(traced.attempted, 1)), Unit: "frac", N: traced.attempted}
		path := filepath.Join(*outDir, fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
		if err := rc.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}

	printTable(*workload, final, metrics)
	if err := printResult(os.Stdout, final, metrics); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if len(final.problems) > 0 {
		os.Exit(1)
	}
}

// printTable writes the human-readable part of the output: every metric
// with its unit and sample count, and every failed check.
func printTable(workload string, o *outcome, metrics map[string]measure) {
	fmt.Printf("workload %s: %d attempted, %d failed (GOMAXPROCS %d)\n", workload, o.attempted, o.failed, runtime.GOMAXPROCS(0))
	for _, s := range o.shown {
		fmt.Printf("  %-24s %14.4f %-6s n=%d\n", s.name, s.m.Value, s.m.Unit, s.m.N)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		fmt.Printf("  %-30s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	for _, p := range o.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

// printResult writes the one-line JSON result. Every metric must be a
// finite number: a missing one is a benchmark bug, reported as such.
func printResult(w io.Writer, o *outcome, metrics map[string]measure) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(o.problems) == 0, max(o.attempted, 1), o.failed, map[string]value{}}
	for n, m := range metrics {
		if m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// budget hands out whole units of work (a build, a pass over the seed
// list) for a run of a given length: the first unit always, a later one
// only while the previous unit's duration still fits in the time left,
// so a run ends near its length instead of overshooting by a unit.
type budget struct {
	start, last time.Time
	seconds     float64
	units       int
}

func newBudget(seconds float64) *budget {
	now := time.Now()
	return &budget{start: now, last: now, seconds: seconds}
}

func (b *budget) next() bool {
	now := time.Now()
	unit := now.Sub(b.last).Seconds()
	b.last = now
	b.units++
	return b.units == 1 || now.Sub(b.start).Seconds()+unit <= b.seconds
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// heapLiveMB collects garbage and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}
