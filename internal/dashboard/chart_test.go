package dashboard

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"clusterworx/internal/history"
)

// chartFmt is Chart as it was drawn through fmt: a heap grid of rows, a
// map of plotted columns sorted for the strokes, fmt's %.4g labels and
// Duration strings on the time axis. AppendChart must draw it byte for
// byte.
func chartFmt(s *history.Series, t0, t1 time.Duration, width, height int) string {
	if width < 8 {
		width = 8
	}
	if height < 3 {
		height = 3
	}
	pts := s.Downsample(nil, t0, t1, width)
	lo, hi, ok := finiteRange(pts)
	if !ok {
		return "(no data)\n"
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	col := make(map[int]int, len(pts))
	span := t1 - t0
	for _, p := range pts {
		if !finite(p.V) {
			continue
		}
		c := min(max(int(float64(p.T-t0)/float64(span)*float64(width)), 0), width-1)
		row := height - 1 - level(p.V, lo, hi, height)
		grid[row][c] = '*'
		col[c] = row
	}
	cols := make([]int, 0, len(col))
	for c := range col {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	for i := 1; i < len(cols); i++ {
		a, b := cols[i-1], cols[i]
		ra, rb := col[a], col[b]
		if ra == rb {
			continue
		}
		step := 1
		if rb < ra {
			step = -1
		}
		for r := ra + step; r != rb; r += step {
			if grid[r][b] == ' ' {
				grid[r][b] = '|'
			}
		}
	}
	fmtT := func(d time.Duration) string { return d.Round(time.Second).String() }
	var out strings.Builder
	label0 := fmt.Sprintf("%.4g", hi)
	label1 := fmt.Sprintf("%.4g", lo)
	pad := max(len(label0), len(label1))
	for r := 0; r < height; r++ {
		switch r {
		case 0:
			fmt.Fprintf(&out, "%*s |", pad, label0)
		case height - 1:
			fmt.Fprintf(&out, "%*s |", pad, label1)
		default:
			fmt.Fprintf(&out, "%*s |", pad, "")
		}
		out.Write(grid[r])
		out.WriteByte('\n')
	}
	fmt.Fprintf(&out, "%*s +%s\n", pad, "", strings.Repeat("-", width))
	fmt.Fprintf(&out, "%*s  %-*s%s\n", pad, "", width-len(fmtT(t1)), fmtT(t0), fmtT(t1))
	return out.String()
}

// sparkFmt is Sparkline as it was written: a rune table and a Builder.
func sparkFmt(s *history.Series, t0, t1 time.Duration, width int) string {
	levels := []rune("▁▂▃▄▅▆▇█")
	pts := s.Downsample(nil, t0, t1, width)
	lo, hi, _ := finiteRange(pts)
	var out strings.Builder
	for _, p := range pts {
		if finite(p.V) {
			out.WriteRune(levels[level(p.V, lo, hi, len(levels))])
		} else {
			out.WriteByte(' ')
		}
	}
	return out.String()
}

var (
	chartFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.125, 2.675, 99.95, -99.95, 12345.678, -0.000123456,
		1e21, -1e21, 1e300, -1e300, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	chartDurations = []time.Duration{
		0, 1, 499 * time.Millisecond, 500 * time.Millisecond, -500 * time.Millisecond, 1500 * time.Millisecond,
		time.Second, -time.Second, 59 * time.Second, 61 * time.Second, 59*time.Minute + 59*time.Second + 500*time.Millisecond,
		time.Hour, -time.Hour, 3*time.Hour + 2*time.Minute + 1*time.Second, 26 * time.Hour, 100000 * time.Hour,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 400*time.Millisecond, math.MinInt64 + 600*time.Millisecond,
	}
)

// checkChartCells asserts the chart's hand-rendered cells against fmt:
// a %.4g label for v and the time axis' Duration string for d.
func checkChartCells(t *testing.T, v float64, d time.Duration) {
	t.Helper()
	const prefix = "x "
	if got, want := string(strconv.AppendFloat([]byte(prefix), v, 'g', 4, 64)), prefix+fmt.Sprintf("%.4g", v); got != want {
		t.Fatalf("label of %v = %q, fmt gives %q", v, got, want)
	}
	if got, want := string(appendSeconds([]byte(prefix), d)), prefix+d.Round(time.Second).String(); got != want {
		t.Fatalf("appendSeconds(%d) = %q, Duration gives %q", int64(d), got, want)
	}
}

// checkChart asserts Chart and Sparkline against their fmt drawings for
// one series and window at a few sizes, the ctl's own among them.
func checkChart(t *testing.T, s *history.Series, t0, t1 time.Duration) {
	t.Helper()
	for _, dims := range [][2]int{{60, 12}, {40, 8}, {1, 1}, {8, 3}, {20, 5}, {130, 20}} {
		if got, want := Chart(s, t0, t1, dims[0], dims[1]), chartFmt(s, t0, t1, dims[0], dims[1]); got != want {
			t.Fatalf("Chart(%v..%v, %dx%d):\n%s\nfmt draws:\n%s", t0, t1, dims[0], dims[1], got, want)
		}
	}
	for _, w := range []int{40, 8, 1, 200} {
		if got, want := Sparkline(s, t0, t1, w), sparkFmt(s, t0, t1, w); got != want {
			t.Fatalf("Sparkline(%v..%v, %d) = %q, fmt draws %q", t0, t1, w, got, want)
		}
	}
}

func TestChartMatchesFmt(t *testing.T) {
	for _, v := range chartFloats {
		for _, d := range chartDurations {
			checkChartCells(t, v, d)
		}
	}
	// One series per reading shape, each charted over windows from
	// seconds to hours, with the chart's t0 before, at and after the data.
	for k, v := range chartFloats {
		s := history.NewSeries(256)
		for i := 0; i < 90; i++ {
			x := v
			switch i % 7 {
			case 1:
				x = v * float64(i%5)
			case 3:
				x = chartFloats[(k+i)%len(chartFloats)]
			case 5:
				x = -v + float64(i)
			}
			s.Append(time.Duration(i)*37*time.Second, x)
		}
		for _, w := range [][2]time.Duration{
			{0, 90 * 37 * time.Second}, {0, time.Minute}, {-time.Hour, 2 * time.Hour},
			{30 * time.Minute, 26 * time.Hour}, {10 * time.Second, 10 * time.Second}, {0, 59*time.Minute + 30*time.Second},
		} {
			checkChart(t, s, w[0], w[1])
		}
	}
	flat := history.NewSeries(8)
	for i := 0; i < 5; i++ {
		flat.Append(time.Duration(i)*time.Second, 3)
	}
	checkChart(t, flat, 0, 5*time.Second)
	checkChart(t, history.NewSeries(8), 0, time.Minute)
}

// FuzzChartMatchesFmt: any two readings and window end, charted as a
// three-point series, draw what fmt drew, and any reading's label and
// any duration's axis text match fmt and Duration.String.
func FuzzChartMatchesFmt(f *testing.F) {
	for k, v := range chartFloats {
		d := chartDurations[k%len(chartDurations)]
		f.Add(v, chartFloats[(k+3)%len(chartFloats)], int64(d), k%4)
	}
	f.Fuzz(func(t *testing.T, v1, v2 float64, end int64, shape int) {
		checkChartCells(t, v1, time.Duration(end))
		checkChartCells(t, v2, time.Duration(end))
		t1 := time.Duration(end)
		if t1 <= 0 || t1 > 1000*time.Hour {
			return // a window must end after its start, and points are placed inside it
		}
		s := history.NewSeries(8)
		s.Append(0, v1)
		s.Append(t1/3, v2)
		s.Append(t1/3*2+time.Duration(shape&3), v1+v2)
		checkChart(t, s, 0, t1)
	})
}
