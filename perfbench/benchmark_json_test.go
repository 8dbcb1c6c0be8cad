package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json at the
// repository root declares exactly the metrics this program reports, in
// the same order, and only workloads it runs.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayerNames))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayerNames[i] || m.Unit != layerUnit(m.Name) {
			t.Errorf("per-layer %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, perLayerNames[i], layerUnit(perLayerNames[i]))
		}
	}
}
