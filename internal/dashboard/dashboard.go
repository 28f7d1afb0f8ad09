// Package dashboard renders the ClusterWorX GUI's views as text: the main
// monitoring screen and the historical graphs (§5.1 — "historical graphing
// allows the administrator to chart monitoring values over time ...
// analyze the relationships between monitored values, or compare
// performance between nodes"). The original product drew these in a Java
// client; the terminal client renders the same data as aligned tables and
// braille-free ASCII charts, keeping the server API identical.
package dashboard

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"clusterworx/internal/history"
)

// Chart renders a time series as an ASCII line chart of the given
// dimensions (columns × rows of plot area, plus axes). Points are
// bucket-averaged to the width.
func Chart(s *history.Series, t0, t1 time.Duration, width, height int) string {
	return string(AppendChart(nil, s, t0, t1, width, height))
}

// A chart is drawn on the stack up to chartStackCols columns and
// chartStackCells cells of plot area (the ctl chart is 60 × 12); a larger
// one draws into the heap.
const (
	chartStackCols  = 128
	chartStackCells = 2048
)

// AppendChart appends Chart's rendering to b. The plot area is one flat
// grid of cells and each column's plotted row sits in a slice indexed by
// column, so drawing allocates nothing beside what b grows by.
func AppendChart(b []byte, s *history.Series, t0, t1 time.Duration, width, height int) []byte {
	if width < 8 {
		width = 8
	}
	if height < 3 {
		height = 3
	}
	var ptsStack [chartStackCols]history.Point
	pts := s.Downsample(ptsStack[:0], t0, t1, width)
	lo, hi, ok := finiteRange(pts)
	if !ok {
		return append(b, "(no data)\n"...)
	}
	if hi == lo {
		hi = lo + 1 // flat line: give it one row of headroom
	}

	var cellStack [chartStackCells]byte
	var rowStack [chartStackCols]int
	grid, rowOf := cellStack[:0], rowStack[:0]
	if width*height > len(cellStack) {
		grid = make([]byte, 0, width*height)
	}
	if width > len(rowStack) {
		rowOf = make([]int, 0, width)
	}
	for range width * height {
		grid = append(grid, ' ')
	}
	for range width {
		rowOf = append(rowOf, -1) // column -> row, for connecting strokes
	}
	span := t1 - t0
	for _, p := range pts {
		if !finite(p.V) {
			continue
		}
		c := min(max(int(float64(p.T-t0)/float64(span)*float64(width)), 0), width-1)
		row := height - 1 - level(p.V, lo, hi, height)
		grid[row*width+c] = '*'
		rowOf[c] = row
	}
	// Vertical strokes between adjacent plotted columns.
	for a, c := -1, 0; c < width; c++ {
		rb := rowOf[c]
		if rb < 0 {
			continue
		}
		if a >= 0 && rowOf[a] != rb {
			step := 1
			if rb < rowOf[a] {
				step = -1
			}
			for r := rowOf[a] + step; r != rb; r += step {
				if grid[r*width+c] == ' ' {
					grid[r*width+c] = '|'
				}
			}
		}
		a = c
	}

	// The labels are %.4g and the axis times Duration strings, rendered
	// by hand: TestChartMatchesFmt, FuzzChartMatchesFmt.
	var hiBuf, loBuf, t1Buf [32]byte
	label0 := strconv.AppendFloat(hiBuf[:0], hi, 'g', 4, 64)
	label1 := strconv.AppendFloat(loBuf[:0], lo, 'g', 4, 64)
	lw := max(len(label0), len(label1))
	for r := 0; r < height; r++ {
		var label []byte
		switch r {
		case 0:
			label = label0
		case height - 1:
			label = label1
		}
		b = pad(append(b, label...), len(b), lw)
		b = append(append(b, " |"...), grid[r*width:(r+1)*width]...)
		b = append(b, '\n')
	}
	b = append(pad(b, len(b), lw), " +"...)
	for range width {
		b = append(b, '-')
	}
	b = append(b, '\n')
	b = append(pad(b, len(b), lw), "  "...)
	end := appendSeconds(t1Buf[:0], t1)
	w := width - len(end) // %-*s: a negative width pads on the right too
	if w < 0 {
		w = -w
	}
	b = pad(appendSeconds(b, t0), len(b), -w)
	return append(append(b, end...), '\n')
}

// Sparkline renders a compact one-line view of a series using eight block
// levels, for the status screen.
func Sparkline(s *history.Series, t0, t1 time.Duration, width int) string {
	return string(AppendSparkline(nil, s, t0, t1, width))
}

// sparkLevels are the eight block levels, three UTF-8 bytes each.
const sparkLevels = "▁▂▃▄▅▆▇█"

// AppendSparkline appends Sparkline's rendering to b.
func AppendSparkline(b []byte, s *history.Series, t0, t1 time.Duration, width int) []byte {
	var ptsStack [chartStackCols]history.Point
	pts := s.Downsample(ptsStack[:0], t0, t1, width)
	lo, hi, _ := finiteRange(pts)
	for _, p := range pts {
		if finite(p.V) {
			l := 3 * level(p.V, lo, hi, len(sparkLevels)/3)
			b = append(b, sparkLevels[l:l+3]...)
		} else {
			b = append(b, ' ')
		}
	}
	return b
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// finiteRange returns the bounds of the finite values among pts; ok is
// false when there are none. The wire carries NaN and ±Inf faithfully
// from any agent, and a scale folded over one makes every index int(NaN).
func finiteRange(pts []history.Point) (lo, hi float64, ok bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		if finite(p.V) {
			lo, hi = math.Min(lo, p.V), math.Max(hi, p.V)
		}
	}
	return lo, hi, lo <= hi
}

// level maps a finite v in [lo, hi] onto 0..n-1. The comparisons are
// written so that a NaN quotient (hi-lo overflowing) lands on 0.
func level(v, lo, hi float64, n int) int {
	f := (v - lo) / (hi - lo) * float64(n-1)
	if !(f > 0) {
		return 0
	}
	return min(int(f), n-1)
}

// View is a CompareNodes or EfficiencyReport table kept between
// renderings, so that drawing it again costs what changed: the previous
// rendering is the row cache. A draw brings the history.Comparison up to
// date, copies every row whose node it left unchanged out of the previous
// text and formats the rest; what it keeps is that comparison and each
// row's place in the text, not a second copy of it. The zero value has no
// predecessor and formats every row. A View stays with one table, metric
// and t0 and is not safe for concurrent use; the text it returns is.
//
// The text is head, then '\n'-separated lines with no trailing newline —
// a ctl response.
type View struct {
	text  string // the last rendering; "" with none to copy from, or after a draw that did not finish
	cmp   history.Comparison
	rows  []span  // rows[i]: node i's row in text, its leading '\n' included
	order []int32 // EfficiencyReport: node indices by rank
	max   float64 // CompareNodes: what the bars are scaled to
	buf   []byte  // row scratch
}

type span struct{ off, n int32 }

// begin brings the comparison up to date and returns the previous text
// to copy unchanged rows from.
func (v *View) begin(sb *strings.Builder, head string, store *history.Store, metric string, t0, t1 time.Duration) (old string) {
	old, v.text = v.text, ""
	store.Compare(&v.cmp, metric, t0, t1)
	if len(v.rows) != len(v.cmp.Nodes) { // a new roster: Compare marked every node Fresh
		v.rows = make([]span, len(v.cmp.Nodes))
	}
	sb.Grow(max(len(old)+len(old)/16, len(v.rows)*48) + 128)
	sb.WriteString(head)
	return old
}

// draw appends node i's row to sb: copied from old while the node is
// unchanged, formatted by row otherwise.
func (v *View) draw(sb *strings.Builder, old string, i int, row func(b []byte, n *history.NodeStats) []byte) {
	n, sp := &v.cmp.Nodes[i], &v.rows[i]
	off := int32(sb.Len())
	if n.Fresh || old == "" {
		v.buf = row(v.buf[:0], n)
		sb.Write(v.buf)
		sp.n = int32(len(v.buf))
	} else {
		sb.WriteString(old[sp.off : sp.off+sp.n])
	}
	sp.off = off
}

// CompareNodes renders the §5.1 "compare performance between nodes" view:
// per-node min/mean/max of one metric over a range, with a mean bar.
//
// Diffable-view contract: each output line leads with a stable key (the
// node name; "node" for the header) and surviving keys keep their
// relative order between renderings — rows are name-sorted. The serving
// plane's watch streams rely on this to push change-only line diffs
// (serve.Diff); reordering or re-keying these lines breaks them.
func CompareNodes(store *history.Store, metric string, t0, t1 time.Duration, barWidth int) string {
	var v View
	return v.CompareNodes("", store, metric, t0, t1, barWidth) + "\n"
}

// compareHead is CompareNodes' header line up to the metric name.
var compareHead = fmt.Sprintf("%-12s %8s %8s %8s  ", "node", "min", "mean", "max")

// CompareNodes draws the view of that name. Every bar is scaled to the
// largest maximum: a draw in which that moved formats every row.
func (v *View) CompareNodes(head string, store *history.Store, metric string, t0, t1 time.Duration, barWidth int) string {
	var sb strings.Builder
	old := v.begin(&sb, head, store, metric, t0, t1)
	nodes := v.cmp.Nodes
	if len(nodes) == 0 {
		return head + "(no data)"
	}
	globalMax := 0.0
	for i := range nodes {
		if nodes[i].N > 0 {
			globalMax = math.Max(globalMax, nodes[i].Max)
		}
	}
	if globalMax == 0 {
		globalMax = 1
	}
	if math.Float64bits(globalMax) != math.Float64bits(v.max) {
		old, v.max = "", globalMax
	}
	sb.WriteString(compareHead)
	sb.WriteString(metric)
	row := func(b []byte, n *history.NodeStats) []byte {
		if n.N == 0 {
			return b
		}
		b = AppendStr(append(b, '\n'), n.Node, -12)
		b = AppendFloat(append(b, ' '), n.Min, 8, 2)
		b = AppendFloat(append(b, ' '), n.Mean, 8, 2)
		b = AppendFloat(append(b, ' '), n.Max, 8, 2)
		return AppendBar(append(b, ' ', ' '), n.Mean/globalMax*float64(barWidth), barWidth)
	}
	for i := range nodes {
		v.draw(&sb, old, i, row)
	}
	v.text = sb.String()
	return v.text
}

// Correlate renders the §5.1 "analyze the relationships between monitored
// values" view: the Pearson correlation of two metrics on one node over
// aligned buckets.
func Correlate(store *history.Store, nodeName, metricA, metricB string, t0, t1 time.Duration) (float64, error) {
	sa := store.Series(nodeName, metricA)
	sb := store.Series(nodeName, metricB)
	if sa == nil || sb == nil {
		return 0, fmt.Errorf("dashboard: missing history for %s/%s on %s", metricA, metricB, nodeName)
	}
	const buckets = 64
	pa := sa.Downsample(nil, t0, t1, buckets)
	pb := sb.Downsample(nil, t0, t1, buckets)
	// Align on bucket timestamps present in both.
	bv := make(map[time.Duration]float64, len(pb))
	for _, p := range pb {
		bv[p.T] = p.V
	}
	var xs, ys []float64
	for _, p := range pa {
		if v, ok := bv[p.T]; ok {
			xs = append(xs, p.V)
			ys = append(ys, v)
		}
	}
	if len(xs) < 3 {
		return 0, fmt.Errorf("dashboard: only %d aligned samples", len(xs))
	}
	return pearson(xs, ys)
}

func pearson(xs, ys []float64) (float64, error) {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("dashboard: a series is constant; correlation undefined")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// appendSeconds appends d.Round(time.Second).String(): h, m and s fields,
// the leading zero ones left out, as Duration.String prints a whole
// number of seconds.
func appendSeconds(b []byte, d time.Duration) []byte {
	d = d.Round(time.Second)
	if d%time.Second != 0 { // Round saturated at the int64 range: a fraction is left to print
		return append(b, d.String()...)
	}
	if d == 0 {
		return append(b, "0s"...)
	}
	sec := uint64(d / time.Second)
	if d < 0 {
		b, sec = append(b, '-'), -sec
	}
	if sec >= 3600 {
		b = append(strconv.AppendUint(b, sec/3600, 10), 'h')
	}
	if sec >= 60 {
		b = append(strconv.AppendUint(b, sec/60%60, 10), 'm')
	}
	return append(strconv.AppendUint(b, sec%60, 10), 's')
}

// HistoryFootprint renders the history engine's memory ledger: per-series
// point counts, compressed bytes, and bytes/sample, largest first, with a
// cluster total line that states the compression ratio against the naive
// 16 bytes/sample ring the engine replaced. This is the administrator's
// answer to "what does keeping N days of history actually cost".
func HistoryFootprint(store *history.Store, maxRows int) string {
	type row struct {
		node, metric string
		points       int
		bytes        int64
	}
	var rows []row
	var totalPoints int
	var totalBytes int64
	for _, nodeName := range store.Nodes() {
		for _, metric := range store.Metrics(nodeName) {
			s := store.Series(nodeName, metric)
			if s == nil {
				continue
			}
			r := row{node: nodeName, metric: metric, points: s.Len(), bytes: s.Bytes()}
			rows = append(rows, r)
			totalPoints += r.points
			totalBytes += r.bytes
		}
	}
	if len(rows) == 0 {
		return "(no data)\n"
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].bytes != rows[j].bytes {
			return rows[i].bytes > rows[j].bytes
		}
		if rows[i].node != rows[j].node {
			return rows[i].node < rows[j].node
		}
		return rows[i].metric < rows[j].metric
	})
	shown := rows
	if maxRows > 0 && len(shown) > maxRows {
		shown = shown[:maxRows]
	}
	var out strings.Builder
	fmt.Fprintf(&out, "%-12s %-20s %8s %10s %9s\n", "node", "metric", "points", "bytes", "B/sample")
	for _, r := range shown {
		per := 0.0
		if r.points > 0 {
			per = float64(r.bytes) / float64(r.points)
		}
		fmt.Fprintf(&out, "%-12s %-20s %8d %10d %9.2f\n", r.node, r.metric, r.points, r.bytes, per)
	}
	if len(shown) < len(rows) {
		fmt.Fprintf(&out, "... and %d more series\n", len(rows)-len(shown))
	}
	if totalPoints > 0 {
		per := float64(totalBytes) / float64(totalPoints)
		naive := float64(totalPoints) * 16
		ratio := 1.0
		if totalBytes > 0 {
			ratio = naive / float64(totalBytes)
		}
		fmt.Fprintf(&out, "total: %d series, %d points, %d bytes (%.2f B/sample, %.1fx vs raw ring)\n",
			len(rows), totalPoints, totalBytes, per, ratio)
	}
	return out.String()
}

// efficiency is a node's utilization over a window: 100 − mean(idle%),
// floored at 0.
func efficiency(n *history.NodeStats) float64 {
	return max(100-n.Mean, 0)
}

// EfficiencyReport renders cluster utilization over a window — the
// paper's introduction lists "cluster efficiency" first among the
// administrator's concerns — derived from each node's cpu.idle.pct
// history: the cluster's efficiency is the mean over nodes with data,
// followed by a per-node bar list, busiest first.
func EfficiencyReport(store *history.Store, t0, t1 time.Duration, barWidth int) string {
	var v View
	return v.EfficiencyReport("", store, t0, t1, barWidth) + "\n"
}

// EfficiencyReport draws the view of that name.
func (v *View) EfficiencyReport(head string, store *history.Store, t0, t1 time.Duration, barWidth int) string {
	var sb strings.Builder
	old := v.begin(&sb, head, store, "cpu.idle.pct", t0, t1)
	nodes := v.cmp.Nodes
	var sum float64 // in name order: the same nodes always give the same sum
	live := 0
	for i := range nodes {
		if nodes[i].N > 0 {
			sum += efficiency(&nodes[i])
			live++
		}
	}
	if live == 0 {
		return head + "(no data)"
	}
	// The last ranking is nearly this one — the sort below is linear on it
	// — as long as it still lists exactly the nodes with data.
	rank := v.order[:0]
	for _, i := range v.order {
		if int(i) < len(nodes) && nodes[i].N > 0 {
			rank = append(rank, i)
		}
	}
	if len(rank) != live {
		rank = rank[:0]
		for i := range nodes {
			if nodes[i].N > 0 {
				rank = append(rank, int32(i))
			}
		}
	}
	v.order = rank
	// Ranked by efficiency (NaN last), not by name: this view is
	// deliberately NOT key-stable between renderings, so watch streams push
	// it wholesale (REFRESH) instead of as line diffs.
	slices.SortFunc(v.order, func(i, j int32) int {
		a, b := efficiency(&nodes[i]), efficiency(&nodes[j])
		switch {
		case a > b || math.IsNaN(b) && !math.IsNaN(a):
			return -1
		case b > a || math.IsNaN(a) && !math.IsNaN(b):
			return 1
		}
		return cmp.Compare(i, j)
	})
	var line [96]byte
	h := AppendFloat(append(line[:0], "cluster efficiency: "...), sum/float64(live), 0, 1)
	h = appendSeconds(append(h, "% over "...), t0)
	sb.Write(appendSeconds(append(h, ".."...), t1))
	row := func(b []byte, n *history.NodeStats) []byte {
		eff := efficiency(n)
		b = AppendStr(append(b, '\n'), n.Node, -12)
		b = AppendFloat(append(b, ' '), eff, 5, 1)
		return AppendBar(append(b, '%', ' ', ' '), eff/100*float64(barWidth), barWidth)
	}
	for _, i := range v.order {
		v.draw(&sb, old, int(i), row)
	}
	v.text = sb.String()
	return v.text
}
