package main

import (
	"encoding/json"
	"os"
	"testing"
)

type def struct{ Name, Unit, Why string }

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric tables
// the benchmark prints from in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if got, ok := workloads[w.Name]; !ok || got.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, code %q", w.Name, w.Why, got.why)
		}
	}
	sameDefs(t, "end-to-end", bj.EndToEnd, endToEnd)
	sameDefs(t, "per-layer", bj.PerLayer, layerMetrics)
}

func sameDefs(t *testing.T, kind string, got []def, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json has %d %s metrics, the code %d", len(got), kind, len(want))
	}
	for i, m := range got {
		if d := want[i]; d.name != m.Name || d.unit != m.Unit {
			t.Errorf("%s %d: %s %s in BENCHMARK.json, %s %s in code", kind, i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}
