package dashboard

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"clusterworx/internal/history"
)

// checkRow asserts every row helper against fmt.Sprintf of the verb it
// replaces, for one value of each kind at one width and precision. The
// helpers append: a non-empty prefix must come through untouched.
func checkRow(t *testing.T, s string, f float64, i int64, w, prec int) {
	t.Helper()
	const prefix = "x "
	check := func(what string, got []byte, want string) {
		t.Helper()
		if string(got) != prefix+want {
			t.Fatalf("%s (w=%d prec=%d) = %q, fmt gives %q", what, w, prec, got[len(prefix):], want)
		}
	}
	b := []byte(prefix)
	check("AppendStr", AppendStr(b, s, w), fmt.Sprintf("%*s", w, s))
	check("AppendFloat", AppendFloat(b, f, w, prec), fmt.Sprintf("%*.*f", w, prec, f))
	check("AppendInt", AppendInt(b, i, w), fmt.Sprintf("%*d", w, i))
	check("AppendUint", AppendUint(b, uint64(i), w), fmt.Sprintf("%*d", w, uint64(i)))
	// The verbs ctl.go spells with strconv directly.
	check("%g", strconv.AppendFloat(b, f, 'g', -1, 64), fmt.Sprintf("%g", f))
	// The bar is strings.Repeat wherever that did not panic or overrun.
	if cells := f; cells >= 0 && cells <= 64 {
		check("AppendBar", AppendBar(b, cells, 64), strings.Repeat("#", int(cells)))
	}
	if n := len(AppendBar(nil, f, 30)); n < 0 || n > 30 || math.IsNaN(f) && n != 0 {
		t.Fatalf("AppendBar(%v, 30) drew %d cells", f, n)
	}
}

var (
	rowFloats = []float64{
		0, math.Copysign(0, -1), 0.125, 2.675, 99.95, -99.95, 0.005, 1e300, -1e300, 5e-324,
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1), 1e12, 29.999999999999996, 30, 64,
	}
	rowStrings = []string{
		"", "up", "node0001", "a-node-name-longer-than-the-pad", "nœud-α", "日本語ノード",
		"bad\xffutf8\xc0", "\xe2\x82", "tab\tname",
	}
	rowInts   = []int64{0, 1, -1, 55, 999, 1000, math.MaxInt64, math.MinInt64}
	rowWidths = []int{0, 1, -1, 3, -3, 5, 8, -12, -28, 40}
)

func TestRowMatchesFmt(t *testing.T) {
	for _, w := range rowWidths {
		for prec := 0; prec <= 3; prec++ {
			for k, f := range rowFloats {
				checkRow(t, rowStrings[k%len(rowStrings)], f, rowInts[k%len(rowInts)], w, prec)
			}
		}
		for k, s := range rowStrings {
			checkRow(t, s, rowFloats[k], rowInts[k%len(rowInts)], w, 2)
		}
		for k, i := range rowInts {
			checkRow(t, rowStrings[k], rowFloats[k], i, w, 1)
		}
	}
}

func FuzzRowMatchesFmt(f *testing.F) {
	for k, v := range rowFloats {
		f.Add(rowStrings[k%len(rowStrings)], v, rowInts[k%len(rowInts)], rowWidths[k%len(rowWidths)], k%4)
	}
	f.Fuzz(func(t *testing.T, s string, v float64, i int64, w, prec int) {
		if w < -64 || w > 64 || prec < 0 || prec > 12 {
			t.Skip() // the views use widths to 28 and precisions to 3
		}
		checkRow(t, s, v, i, w, prec)
	})
}

// TestCompareNegativeNaNInf: means that are negative, NaN or infinite used
// to make strings.Repeat panic ("negative Repeat count") and take the
// daemon down from a read; they now draw a clamped bar.
func TestCompareNegativeNaNInf(t *testing.T) {
	cases := []struct {
		name   string
		values map[string]float64
		want   string
	}{
		{"negative", map[string]float64{"a": -3, "b": 6}, "" +
			"node              min     mean      max  m\n" +
			"a               -3.00    -3.00    -3.00  \n" +
			"b                6.00     6.00     6.00  ##########\n"},
		{"all negative", map[string]float64{"a": -3}, "" +
			"node              min     mean      max  m\n" +
			"a               -3.00    -3.00    -3.00  \n"},
		{"nan", map[string]float64{"a": math.NaN(), "b": 6}, "" +
			"node              min     mean      max  m\n" +
			"a                 NaN      NaN      NaN  \n" +
			"b                6.00     6.00     6.00  \n"},
		{"+inf", map[string]float64{"a": math.Inf(1), "b": 6}, "" +
			"node              min     mean      max  m\n" +
			"a                +Inf     +Inf     +Inf  \n" +
			"b                6.00     6.00     6.00  \n"},
		{"-inf", map[string]float64{"a": math.Inf(-1), "b": 6}, "" +
			"node              min     mean      max  m\n" +
			"a                -Inf     -Inf     -Inf  \n" +
			"b                6.00     6.00     6.00  ##########\n"},
	}
	for _, c := range cases {
		store := history.NewStore(8)
		for node, v := range c.values {
			store.Append(node, "m", time.Second, v)
		}
		if got := CompareNodes(store, "m", 0, time.Minute, 10); got != c.want {
			t.Errorf("%s:\n%s\nwant:\n%s", c.name, got, c.want)
		}
	}
}

// TestEfficiencyNaN: one NaN idle sample used to panic the report the
// same way; it now ranks last with an empty bar, and an idle reading
// below zero cannot draw a bar past the width.
func TestEfficiencyNaN(t *testing.T) {
	store := history.NewStore(8)
	store.Append("a", "cpu.idle.pct", time.Second, math.NaN())
	store.Append("b", "cpu.idle.pct", time.Second, 50)
	store.Append("c", "cpu.idle.pct", time.Second, -40)
	want := "cluster efficiency: NaN% over 0s..1m0s\n" +
		"c            140.0%  ##########\n" +
		"b             50.0%  #####\n" +
		"a              NaN%  \n"
	if got := EfficiencyReport(store, 0, time.Minute, 10); got != want {
		t.Fatalf("report:\n%s\nwant:\n%s", got, want)
	}
}

// TestViewMatchesFromScratch: a View drawn again and again over a
// changing store — the incremental path — renders exactly what a fresh
// View does. Nodes appear mid-run on both sides of the existing names,
// one longer than the name column; values go negative and NaN; the
// largest maximum rises and falls as the short series evict it.
func TestViewMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	store := history.NewStore(6)
	names := []string{"node003", "node001", "node007"}
	late := []string{"node000", "node005", "zz-a-node-name-longer-than-the-pad", "node009"}
	var cmpView, effView View
	for step := 1; step <= 400; step++ {
		now := time.Duration(step) * time.Second
		if step%80 == 0 && len(late) > 0 {
			names, late = append(names, late[0]), late[1:]
		}
		for _, n := range names {
			if rng.Intn(3) != 0 {
				continue
			}
			v := rng.Float64() * 10
			switch rng.Intn(12) {
			case 0:
				v = -v
			case 1:
				v = math.NaN()
			case 2:
				v *= 1e11 // a new largest maximum, until it evicts
			}
			store.Append(n, "load.1", now, v)
			if rng.Intn(4) != 0 { // some nodes lack one of the metrics for a while
				store.Append(n, "cpu.idle.pct", now, v*10)
			}
		}
		if got, want := cmpView.CompareNodes("OK\n", store, "load.1", 0, now, 30)+"\n", "OK\n"+CompareNodes(store, "load.1", 0, now, 30); got != want {
			t.Fatalf("step %d: compare redrawn:\n%s\nfrom scratch:\n%s", step, got, want)
		}
		if got, want := effView.EfficiencyReport("OK\n", store, 0, now, 30)+"\n", "OK\n"+EfficiencyReport(store, 0, now, 30); got != want {
			t.Fatalf("step %d: efficiency redrawn:\n%s\nfrom scratch:\n%s", step, got, want)
		}
	}
	if len(late) != 0 {
		t.Fatal("the late nodes never registered")
	}
}
