// Command mptrace runs a small work-stealing simulation with event
// tracing enabled and renders a per-processor utilization timeline, making
// the steal protocol visible: who ran what, who stole from whom, and
// where processors idled. With -chrome it additionally exports the run in
// Chrome trace_event JSON, loadable in chrome://tracing or Perfetto, one
// track per processor.
//
// With -costs it instead runs a multi-round closed-loop PRM (observed
// cost model + repartitioning) and prints a per-region task-cost table
// after every round: where the construct time actually went, which
// regions dominate, and how the per-processor load evens out as the
// cost model warms up.
//
// Usage:
//
//	mptrace -env med-cube -procs 8 -regions 64 -policy hybrid
//	mptrace -policy rand-8 -chrome out.json
//	mptrace -costs -env mixed -rounds 4
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"parmp/internal/core"
	"parmp/internal/cspace"
	"parmp/internal/dist"
	"parmp/internal/env"
	"parmp/internal/metrics"
	"parmp/internal/obsv"
	"parmp/internal/prm"
	"parmp/internal/region"
	"parmp/internal/rng"
	"parmp/internal/steal"
	"parmp/internal/work"
)

func main() {
	envName := flag.String("env", "med-cube", "environment")
	procs := flag.Int("procs", 8, "virtual processors")
	regions := flag.Int("regions", 64, "regions")
	samples := flag.Int("samples", 12, "sampling attempts per region")
	policyName := flag.String("policy", "hybrid", "steal policy (hybrid, rand-8, diffusive, none)")
	width := flag.Int("width", 72, "timeline width in characters")
	chromeOut := flag.String("chrome", "", "write the trace as Chrome trace_event JSON to this file")
	costs := flag.Bool("costs", false, "run a multi-round closed-loop PRM and print per-region task-cost tables per round")
	rounds := flag.Int("rounds", 4, "with -costs, growth rounds to run")
	top := flag.Int("top", 12, "with -costs, heaviest regions to list per round")
	verbose := flag.Bool("v", false, "print the raw event log too")
	flag.Parse()

	e := env.ByName(*envName)
	if e == nil {
		fmt.Fprintf(os.Stderr, "mptrace: unknown environment %q\n", *envName)
		os.Exit(2)
	}

	if *costs {
		if err := runCosts(e, *procs, *regions, *samples, *rounds, *top); err != nil {
			fmt.Fprintln(os.Stderr, "mptrace:", err)
			os.Exit(1)
		}
		return
	}
	var policy steal.Policy
	if *policyName != "none" {
		var ok bool
		policy, ok = steal.ByName(*policyName)
		if !ok {
			fmt.Fprintf(os.Stderr, "mptrace: unknown policy %q\n", *policyName)
			os.Exit(2)
		}
	}

	// Build the node-connection workload exactly as the PRM driver does.
	s := cspace.NewPointSpace(e)
	rg, err := region.UniformGrid(s.Bounds, region.SplitEvenly(e.Dim(), *regions, 0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mptrace:", err)
		os.Exit(2)
	}
	region.NaiveColumnPartition(rg, *procs)
	params := prm.Params{SamplesPerRegion: *samples, K: 4}
	cost := work.DefaultCostModel()
	nodes := make([][]prm.Node, rg.NumRegions())
	queues := make([][]work.Task, *procs)
	for i := 0; i < rg.NumRegions(); i++ {
		i := i
		nodes[i], _ = prm.SampleRegion(s, rg.Region(i).Box, i, params, rng.Derive(1, uint64(i)))
		queues[rg.Owner[i]] = append(queues[rg.Owner[i]], work.Task{
			ID:      i,
			Payload: len(nodes[i]),
			Run: func() (float64, int) {
				_, w := prm.ConnectRegion(s, nodes[i], 0, params)
				return cost.Time(w), len(nodes[i])
			},
		})
	}

	var events []dist.TraceEvent
	chrome := obsv.NewChromeTrace(obsv.ScaleVirtual)
	rep := dist.Run(dist.Config{
		Workers: *procs,
		Profile: work.Hopper(),
		Policy:  policy,
		Seed:    7,
		Trace: func(ev dist.TraceEvent) {
			events = append(events, ev)
			chrome.Event(ev)
		},
	}, queues)

	fmt.Printf("%d tasks on %d procs, policy=%s, makespan=%.0f units\n\n",
		rep.TotalTasks, *procs, *policyName, rep.Makespan)
	for _, line := range dist.Timeline(events, rep, *procs, *width) {
		fmt.Println(line)
	}
	fmt.Printf("\n'#' executing, '.' idle/communicating; one column = %.0f virtual units\n",
		rep.Makespan/float64(*width))
	m := obsv.Analyze(rep)
	fmt.Printf("utilization=%.2f imbalance=%.2f steal-eff=%.2f (granted %d / issued %d) migrated=%d transfers=%d\n",
		m.Utilization, m.Imbalance, m.StealEfficiency,
		m.StealsGranted, m.StealsIssued, m.TasksMigrated, m.TaskTransfers)

	if *chromeOut != "" {
		f, err := os.Create(*chromeOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mptrace:", err)
			os.Exit(1)
		}
		if _, err := chrome.WriteTo(f); err != nil {
			fmt.Fprintln(os.Stderr, "mptrace:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mptrace:", err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *chromeOut)
	}

	if *verbose {
		fmt.Println()
		for _, ev := range events {
			fmt.Println(ev)
		}
	}
}

// runCosts drives the closed-loop PRM engine (observed cost model +
// repartitioning) and, after every committed round, prints that round's
// per-region construct costs: the heaviest regions with their owner and
// cumulative mean/max, then the per-processor cost distribution the next
// repartition will balance.
func runCosts(e *env.Environment, procs, regions, samples, rounds, top int) error {
	s := cspace.NewPointSpace(e)
	eng, err := core.NewPRMEngine(s, core.Options{
		Procs:            procs,
		Regions:          regions,
		SamplesPerRegion: samples,
		ConnectK:         3,
		Profile:          work.Hopper(),
		Seed:             7,
		Strategy:         core.Repartition,
		CostModel:        core.CostObserved,
	})
	if err != nil {
		return err
	}
	fmt.Printf("closed-loop PRM on %s: %d procs, %d regions, %d samples/region/round, cost model %s\n",
		e, procs, regions, samples, core.CostObserved)
	prev := make([]float64, regions)
	for round := 0; round < rounds; round++ {
		if err := eng.GrowRound(nil); err != nil {
			return err
		}
		res := eng.Result()
		rg := res.RegionGraph

		type row struct {
			region int
			cost   float64
		}
		thisRound := make([]row, regions)
		perProc := make([]float64, procs)
		var total float64
		for i, rc := range res.RegionCosts {
			c := rc.Sum - prev[i]
			prev[i] = rc.Sum
			thisRound[i] = row{i, c}
			perProc[rg.Owner[i]] += c
			total += c
		}
		sort.Slice(thisRound, func(a, b int) bool { return thisRound[a].cost > thisRound[b].cost })

		fmt.Printf("\nround %d: construct cost %.0f units over %d regions (top %d)\n",
			round, total, regions, top)
		fmt.Printf("%8s %6s %12s %12s %12s\n", "region", "owner", "cost", "cum-mean", "cum-max")
		for _, r := range thisRound[:min(top, len(thisRound))] {
			rc := res.RegionCosts[r.region]
			fmt.Printf("%8d %6d %12.1f %12.1f %12.1f\n",
				r.region, rg.Owner[r.region], r.cost, rc.Mean(), rc.Max)
		}
		fmt.Printf("per-proc: cv=%.3f", metrics.CV(perProc))
		for p, c := range perProc {
			fmt.Printf(" p%d=%.0f", p, c)
		}
		fmt.Println()
	}
	return nil
}
