package bench

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {99, 9.91}, {100, 10},
	} {
		if got := percentile(sorted, c.p); !near(got, c.want) {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("one sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("no samples must not yield a number")
	}
}

func TestSliceEstimators(t *testing.T) {
	slices := []float64{104, 98, 131, 97, 99, 102}
	if got := fastest(slices, false); got != 97 {
		t.Errorf("fastest of a lower-is-better metric = %v, want 97", got)
	}
	if got := fastest(slices, true); got != 131 {
		t.Errorf("fastest of a higher-is-better metric = %v, want 131", got)
	}
	if got := median(slices); !near(got, 100.5) {
		t.Errorf("median = %v, want 100.5", got)
	}
	if slices[0] != 104 {
		t.Error("estimators must not reorder their input")
	}
	ops := MetricDef{Name: "ops_per_s", HigherBetter: true, Time: true}
	heap := MetricDef{Name: "server_heap_mb"}
	if ops.estimate(slices) != 131 || !near(heap.estimate(slices), 100.5) {
		t.Error("time metrics take the fastest slice, size metrics the median slice")
	}
	if got := ops.worseBy(100, 90); !near(got, 0.1) {
		t.Errorf("higher-is-better 100 -> 90 is worse by %v, want 0.1", got)
	}
	if got := heap.worseBy(100, 90); !near(got, -0.1) {
		t.Errorf("lower-is-better 100 -> 90 is worse by %v, want -0.1", got)
	}
	if got := spreadPct(slices); !near(got, (131.0-97)/97*100) {
		t.Errorf("spreadPct = %v", got)
	}
}

// Python: statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
// gives [3.5, 13.5, 31.0], and the median is 13.5.
func TestIQRShareMatchesPython(t *testing.T) {
	vals := []float64{46, 1, 22, 2, 37, 4, 29, 7, 16, 11}
	if got, want := iqrShare(vals), (31.0-3.5)/13.5; !near(got, want) {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

// ledgerOf builds a ledger whose runs report vals for fed/ops_per_s.
func ledgerOf(vals ...float64) *Ledger {
	l := &Ledger{}
	for _, v := range vals {
		l.Runs = append(l.Runs, &Run{Workloads: map[string]*WorkloadResult{
			"fed": {Metrics: map[string]Estimate{"ops_per_s": {Value: v}}},
		}})
	}
	return l
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{100, 130, 75, 100, 125, 80, 100, 120, 70, 100}
	scaled := func(vals []float64, by float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = v * by
		}
		return out
	}
	for _, c := range []struct {
		name     string
		old, cur []float64
		want     string
	}{
		{"same code", steady, steady, "same"},
		{"slower by more than the bound", steady, scaled(steady, 0.8), "regressed"},
		{"faster in every pair, by more than old's spread", steady, scaled(steady, 1.2), "gain"},
		{"faster, but in too few pairs to claim", steady[:5], scaled(steady[:5], 1.2), "same"},
		{"old spreads wider than the bound", noisy, scaled(noisy, 0.9), "unresolved"},
		{"slower by more than a wide spread", noisy, scaled(noisy, 0.4), "regressed"},
	} {
		vs := Compare(ledgerOf(c.old...), ledgerOf(c.cur...), []string{"fed"})
		if len(vs) != 1 || vs[0].Metric != "ops_per_s" {
			t.Fatalf("%s: verdicts %+v", c.name, vs)
		}
		if vs[0].State != c.want {
			t.Errorf("%s: %s, want %s (%+v)", c.name, vs[0].State, c.want, vs[0])
		}
	}
}
