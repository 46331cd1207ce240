package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// Every metric and workload the benchmark can print is declared in
// BENCHMARK.json with the same unit, and every declared one is printed.
func TestMetricsDeclared(t *testing.T) {
	d := loadDeclared(t)
	check := func(kind string, printed []struct{ name, unit string }, decl []struct{ Name, Unit string }) {
		units := map[string]string{}
		for _, m := range decl {
			units[m.Name] = m.Unit
		}
		if len(printed) != len(decl) {
			t.Errorf("%s: %d printed, %d declared", kind, len(printed), len(decl))
		}
		for _, m := range printed {
			if u, ok := units[m.name]; !ok || u != m.unit {
				t.Errorf("%s metric %s (%s) is declared as %q", kind, m.name, m.unit, u)
			}
		}
	}
	check("end_to_end", endToEnd, d.EndToEnd)
	check("per_layer", perLayer, d.PerLayer)
	if len(d.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
}

// The result line carries exactly the metrics it is given and refuses a
// metric that was never measured.
func TestResultLine(t *testing.T) {
	o := newOutcome()
	o.attempted = 3
	metrics := map[string]measure{}
	for _, m := range endToEnd {
		metrics[m.name] = measure{1.5, m.unit, 3}
	}
	var buf bytes.Buffer
	if err := printResult(&buf, o, metrics); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	line := strings.TrimSpace(buf.String())
	if err := json.Unmarshal([]byte(line), &got); err != nil || strings.Contains(line, "\n") {
		t.Fatalf("result is not one JSON line: %q (%v)", line, err)
	}
	if !got.Correct || got.Attempted != 3 || len(got.Metrics) != len(endToEnd) {
		t.Errorf("unexpected result %+v", got)
	}
	metrics["op_p50_ms"] = measure{}
	if err := printResult(&buf, o, metrics); err == nil {
		t.Error("an unmeasured metric must be refused")
	}
}
