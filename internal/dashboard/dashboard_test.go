package dashboard

import (
	"math"
	"strings"
	"testing"
	"time"

	"clusterworx/internal/history"
)

func rampSeries(n int) *history.Series {
	s := history.NewSeries(256)
	for i := 0; i < n; i++ {
		s.Append(time.Duration(i)*time.Second, float64(i))
	}
	return s
}

func TestChartBasics(t *testing.T) {
	s := rampSeries(100)
	out := Chart(s, 0, 100*time.Second, 40, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// 10 plot rows + axis + time labels.
	if len(lines) != 12 {
		t.Fatalf("chart has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "*") {
		t.Fatal("chart has no points")
	}
	// A rising ramp: the first plot row (max) has a point near the right,
	// the last (min) near the left.
	top, bottom := lines[0], lines[9]
	if !strings.Contains(top, "*") || !strings.Contains(bottom, "*") {
		t.Fatalf("extremes not plotted:\n%s", out)
	}
	if strings.Index(bottom, "*") > strings.Index(top, "*") {
		t.Fatalf("ramp plotted downward:\n%s", out)
	}
	// Labels show the (bucket-averaged) range: hi on top, lo on bottom.
	if !strings.Contains(lines[0], "98") || !strings.HasSuffix(strings.Fields(lines[9])[0], "1") {
		t.Fatalf("labels missing:\n%s", out)
	}
	if !strings.Contains(lines[11], "0s") {
		t.Fatalf("time axis missing:\n%s", out)
	}
}

func TestChartEmptyAndFlat(t *testing.T) {
	empty := history.NewSeries(8)
	if got := Chart(empty, 0, time.Minute, 20, 5); got != "(no data)\n" {
		t.Fatalf("empty chart = %q", got)
	}
	flat := history.NewSeries(8)
	for i := 0; i < 5; i++ {
		flat.Append(time.Duration(i)*time.Second, 7)
	}
	out := Chart(flat, 0, 5*time.Second, 20, 5)
	if !strings.Contains(out, "*") {
		t.Fatalf("flat chart lost its points:\n%s", out)
	}
}

func TestChartMinimumDimensions(t *testing.T) {
	s := rampSeries(10)
	out := Chart(s, 0, 10*time.Second, 1, 1) // clamped up
	if len(out) == 0 {
		t.Fatal("degenerate dimensions produced nothing")
	}
}

func TestSparkline(t *testing.T) {
	s := rampSeries(80)
	spark := Sparkline(s, 0, 80*time.Second, 8)
	if len([]rune(spark)) != 8 {
		t.Fatalf("sparkline runes = %d: %q", len([]rune(spark)), spark)
	}
	runes := []rune(spark)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Fatalf("ramp sparkline ends = %q", spark)
	}
	if Sparkline(history.NewSeries(4), 0, time.Second, 8) != "" {
		t.Fatal("empty sparkline not empty")
	}
}

func TestCompareNodes(t *testing.T) {
	store := history.NewStore(64)
	for i := 0; i < 50; i++ {
		ts := time.Duration(i) * time.Second
		store.Append("busy", "load.1", ts, 4.0)
		store.Append("idle", "load.1", ts, 0.5)
	}
	out := CompareNodes(store, "load.1", 0, time.Minute, 20)
	if !strings.Contains(out, "busy") || !strings.Contains(out, "idle") {
		t.Fatalf("compare missing nodes:\n%s", out)
	}
	// The busy node's bar must be longer.
	var busyBar, idleBar int
	for _, line := range strings.Split(out, "\n") {
		n := strings.Count(line, "#")
		if strings.HasPrefix(line, "busy") {
			busyBar = n
		}
		if strings.HasPrefix(line, "idle") {
			idleBar = n
		}
	}
	if busyBar <= idleBar {
		t.Fatalf("bars wrong: busy=%d idle=%d\n%s", busyBar, idleBar, out)
	}
	if got := CompareNodes(store, "nothere", 0, time.Minute, 20); got != "(no data)\n" {
		t.Fatalf("missing metric = %q", got)
	}
}

func TestCorrelate(t *testing.T) {
	store := history.NewStore(256)
	for i := 0; i < 120; i++ {
		ts := time.Duration(i) * time.Second
		x := float64(i % 30)
		store.Append("n1", "load.1", ts, x)
		store.Append("n1", "temp", ts, 40+2*x) // perfectly correlated
		store.Append("n1", "free", ts, 100-x)  // perfectly anti-correlated
		store.Append("n1", "flat", ts, 5)      // constant
	}
	r, err := Correlate(store, "n1", "load.1", "temp", 0, 2*time.Minute)
	if err != nil || math.Abs(r-1) > 0.01 {
		t.Fatalf("positive correlation = %v, %v", r, err)
	}
	r, err = Correlate(store, "n1", "load.1", "free", 0, 2*time.Minute)
	if err != nil || math.Abs(r+1) > 0.01 {
		t.Fatalf("negative correlation = %v, %v", r, err)
	}
	if _, err := Correlate(store, "n1", "load.1", "flat", 0, 2*time.Minute); err == nil {
		t.Fatal("constant series correlation did not error")
	}
	if _, err := Correlate(store, "n1", "load.1", "ghost", 0, 2*time.Minute); err == nil {
		t.Fatal("missing series correlation did not error")
	}
	if _, err := Correlate(store, "ghost", "a", "b", 0, time.Minute); err == nil {
		t.Fatal("missing node correlation did not error")
	}
}

func TestEfficiency(t *testing.T) {
	store := history.NewStore(64)
	for i := 0; i < 30; i++ {
		ts := time.Duration(i) * time.Second
		store.Append("busy", "cpu.idle.pct", ts, 10) // 90% efficient
		store.Append("idle", "cpu.idle.pct", ts, 95) // 5% efficient
	}
	// Cluster total, then per-node bars, busiest first.
	report := EfficiencyReport(store, 0, time.Minute, 20)
	want := "cluster efficiency: 47.5% over 0s..1m0s\n" +
		"busy          90.0%  ##################\n" +
		"idle           5.0%  #\n"
	if report != want {
		t.Fatalf("report:\n%s\nwant:\n%s", report, want)
	}
	if got := EfficiencyReport(history.NewStore(4), 0, time.Minute, 10); got != "(no data)\n" {
		t.Fatalf("empty report = %q", got)
	}
}

func TestHistoryFootprint(t *testing.T) {
	store := history.NewStore(0)
	for i := 0; i < 2000; i++ {
		ts := time.Duration(i) * time.Second
		store.Append("node000", "load.1", ts, float64(i%8))
		store.Append("node000", "mem.free.kb", ts, 1e6)
		store.Append("node001", "load.1", ts, 0.5)
	}
	out := HistoryFootprint(store, 0)
	for _, want := range []string{"node000", "node001", "load.1", "mem.free.kb", "B/sample", "total:", "vs raw ring"} {
		if !strings.Contains(out, want) {
			t.Fatalf("footprint missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+3+1 { // header + three series + total
		t.Fatalf("footprint has %d lines:\n%s", len(lines), out)
	}
	// Rows are ordered largest-bytes first; totals reconcile with the store.
	if !strings.HasPrefix(lines[len(lines)-1], "total: 3 series, 6000 points") {
		t.Fatalf("total line: %q", lines[len(lines)-1])
	}
	truncated := HistoryFootprint(store, 1)
	if !strings.Contains(truncated, "and 2 more series") {
		t.Fatalf("maxRows=1 did not truncate:\n%s", truncated)
	}
	if out := HistoryFootprint(history.NewStore(0), 5); out != "(no data)\n" {
		t.Fatalf("empty store: %q", out)
	}
}

// TestChartAndSparklineSurviveNonFinite: the wire carries NaN and ±Inf
// faithfully from any agent; one such sample in the window must not take
// the verb down (it used to make int(NaN) the row index).
func TestChartAndSparklineSurviveNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := history.NewSeries(64)
		for i := 0; i < 40; i++ {
			v := float64(i)
			if i == 17 {
				v = bad
			}
			s.Append(time.Duration(i)*time.Second, v)
		}
		out := Chart(s, 0, 40*time.Second, 40, 8)
		if !strings.Contains(out, "*") || !strings.Contains(out, "39") {
			t.Fatalf("chart with one %v sample lost its finite points:\n%s", bad, out)
		}
		spark := []rune(Sparkline(s, 0, 40*time.Second, 40))
		if len(spark) != 40 || spark[17] != ' ' || spark[0] != '▁' || spark[39] != '█' {
			t.Fatalf("sparkline with one %v sample = %q", bad, string(spark))
		}

		only := history.NewSeries(8)
		only.Append(time.Second, bad)
		if got := Chart(only, 0, 10*time.Second, 20, 5); got != "(no data)\n" {
			t.Fatalf("chart of nothing finite = %q", got)
		}
		if got := Sparkline(only, 0, 10*time.Second, 10); got != " " {
			t.Fatalf("sparkline of nothing finite = %q", got)
		}
	}
	// A range the float64 difference cannot hold, and an empty window.
	wide := history.NewSeries(8)
	wide.Append(1*time.Second, -math.MaxFloat64)
	wide.Append(5*time.Second, math.MaxFloat64)
	if out := Chart(wide, 0, 10*time.Second, 20, 5); !strings.Contains(out, "*") {
		t.Fatalf("chart across the whole float64 range:\n%s", out)
	}
	Sparkline(wide, 0, 10*time.Second, 10)
	if got := Chart(wide, 5*time.Second, 5*time.Second, 20, 5); got != "(no data)\n" {
		t.Fatalf("chart of an empty window = %q", got)
	}
}
