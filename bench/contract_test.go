package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json is what the benchmark driver reads; the metric tables in
// this package are what cwxbench prints and applies. They must say the same.
func TestBenchmarkJSONMatchesThePackage(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var contract struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(contract.Workloads) != len(WorkloadNames) {
		t.Fatalf("%d workloads in the contract, %d in the package", len(contract.Workloads), len(WorkloadNames))
	}
	for i, w := range contract.Workloads {
		if w.Name != WorkloadNames[i] {
			t.Errorf("workload %d: contract %q, package %q", i, w.Name, WorkloadNames[i])
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	// The driver's end-to-end list is the package's end-to-end metrics that
	// have a bound for the driver; the rest lead its per-layer list.
	var e2e, layers []metric
	for _, m := range EndToEnd {
		if m.DriverBound > 0 {
			e2e = append(e2e, metric{m.Name, m.Unit, better(m.HigherBetter), m.DriverBound})
		} else {
			layers = append(layers, metric{Name: m.Name, Unit: m.Unit, Better: better(m.HigherBetter)})
		}
		if m.Bound > 0.10 || m.boundOn("fed") > 0.10 {
			t.Errorf("%s: bound %v; issue 13 allows at most 10 %%", m.Name, m.Bound)
		}
	}
	for _, m := range LayerMetrics {
		layers = append(layers, metric{Name: m.Name, Unit: m.Unit, Better: better(m.HigherBetter)})
	}
	if len(contract.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics in the contract, %d in the package", len(contract.EndToEnd), len(e2e))
	}
	for i, want := range e2e {
		if got := contract.EndToEnd[i]; got != want {
			t.Errorf("end-to-end metric %d: contract %+v, package %+v", i, got, want)
		}
	}
	if len(contract.PerLayer) != len(layers) || len(layers) > 128 {
		t.Fatalf("%d per-layer metrics in the contract, %d in the package (at most 128)", len(contract.PerLayer), len(layers))
	}
	seen := map[string]bool{}
	for i, want := range layers {
		if got := contract.PerLayer[i]; got != want {
			t.Errorf("per-layer metric %d: contract %+v, package %+v", i, got, want)
		}
		if seen[want.Name] {
			t.Errorf("per-layer metric %s is listed twice", want.Name)
		}
		seen[want.Name] = true
	}
}
