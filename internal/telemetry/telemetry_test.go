package telemetry

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterStriping(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	for i := 0; i < 2*Stripes; i++ {
		c.IncAt(i)
	}
	c.AddAt(Stripes+3, 10)
	if got := c.Load(); got != 1+4+2*Stripes+10 {
		t.Fatalf("Load = %d, want %d", got, 1+4+2*Stripes+10)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Load() != 0 {
		t.Fatalf("zero gauge = %v", g.Load())
	}
	g.Set(3.5)
	if g.Load() != 3.5 {
		t.Fatalf("Load = %v, want 3.5", g.Load())
	}
	g.Set(-1)
	if g.Load() != -1 {
		t.Fatalf("Load = %v, want -1", g.Load())
	}
}

func TestEnabledGate(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	var c Counter
	var g Gauge
	var h Histogram
	c.Inc()
	g.Set(9)
	h.Observe(100)
	if c.Load() != 0 || g.Load() != 0 || h.Snapshot().Count != 0 {
		t.Fatalf("disabled telemetry still recorded: c=%d g=%v h=%d",
			c.Load(), g.Load(), h.Snapshot().Count)
	}
	SetEnabled(true)
	c.Inc()
	if c.Load() != 1 {
		t.Fatalf("re-enabled counter = %d, want 1", c.Load())
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 37, NumBuckets - 2}, {1<<38 - 1, NumBuckets - 2},
		{1 << 38, NumBuckets - 1}, {math.MaxInt64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
		if c.want < NumBuckets-1 && c.v > BucketBound(c.want) {
			t.Errorf("value %d above its bucket bound %d", c.v, BucketBound(c.want))
		}
	}
	if BucketBound(0) != 0 || BucketBound(1) != 1 || BucketBound(3) != 7 {
		t.Fatalf("BucketBound finite bounds wrong")
	}
	if BucketBound(NumBuckets-1) != math.MaxInt64 {
		t.Fatalf("last bucket must be unbounded")
	}
}

func TestHistogramSnapshotStats(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.ObserveAt(int(i), i) // exercise all stripes
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d, want 100", s.Count)
	}
	if s.Sum != 5050 {
		t.Fatalf("Sum = %d, want 5050", s.Sum)
	}
	if got := s.Mean(); got != 50.5 {
		t.Fatalf("Mean = %v, want 50.5", got)
	}
	// The 50th of 100 values in [1,100] is 50, whose bucket is [32,63];
	// the quantile reports the bucket's upper bound.
	if got := s.Quantile(0.5); got != 63 {
		t.Fatalf("p50 = %v, want 63", got)
	}
	if got := s.Quantile(0.99); got != 127 {
		t.Fatalf("p99 = %v, want 127", got)
	}
	var empty HistSnapshot
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Fatalf("empty snapshot stats must be 0")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a_total")
	c2 := r.Counter("a_total")
	if c1 != c2 {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("h_ns") != r.Histogram("h_ns") {
		t.Fatal("Histogram not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("a_total")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("cwx_test_ops_total").Add(7)
	r.Gauge("cwx_test_depth").Set(2.5)
	h := r.Histogram("cwx_test_lat_ns")
	h.Observe(1)
	h.Observe(3)
	h.Observe(500)
	r.GaugeFunc("cwx_test_fn", func() float64 { return 4 })
	r.CounterFunc("cwx_test_fn_total", func() int64 { return 11 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE cwx_test_ops_total counter\ncwx_test_ops_total 7\n",
		"# TYPE cwx_test_depth gauge\ncwx_test_depth 2.5\n",
		"# TYPE cwx_test_lat_ns histogram\n",
		"cwx_test_lat_ns_bucket{le=\"1\"} 1\n",
		"cwx_test_lat_ns_bucket{le=\"3\"} 2\n",
		"cwx_test_lat_ns_bucket{le=\"511\"} 3\n",
		"cwx_test_lat_ns_bucket{le=\"+Inf\"} 3\n",
		"cwx_test_lat_ns_sum 504\n",
		"cwx_test_lat_ns_count 3\n",
		"cwx_test_fn 4\n",
		"cwx_test_fn_total 11\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be monotone non-decreasing.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "cwx_test_lat_ns_bucket") {
			continue
		}
		n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, last)
		}
		last = n
	}
}

func TestWalk(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("a").Set(1)
	h := r.Histogram("h_ns")
	h.Observe(10)
	got := map[string]float64{}
	var order []string
	r.Walk(func(name string, v float64) {
		got[name] = v
		order = append(order, name)
	})
	want := map[string]float64{
		"a": 1, "b_total": 2,
		"h_ns_count": 1, "h_ns_mean": 10, "h_ns_p50": 15, "h_ns_p99": 15,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Walk[%s] = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Walk emitted %d names, want %d: %v", len(got), len(want), order)
	}
	if order[0] != "a" || order[1] != "b_total" {
		t.Fatalf("Walk not sorted: %v", order)
	}
}

func TestConcurrentRecordAndScrape(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("ops_total")
			h := r.Histogram("lat_ns")
			for i := 0; i < iters; i++ {
				c.IncAt(w)
				h.ObserveAt(w, int64(i%1000))
				if i%500 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
					r.Walk(func(string, float64) {})
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("ops_total").Load(); got != workers*iters {
		t.Fatalf("ops_total = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("lat_ns").Snapshot().Count; got != workers*iters {
		t.Fatalf("lat_ns count = %d, want %d", got, workers*iters)
	}
}
