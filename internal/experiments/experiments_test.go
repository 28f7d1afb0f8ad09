package experiments

import (
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"clusterworx/internal/image"
)

// quick is a short timing window: shape checks need ordering, not
// precision.
const quick = 25 * time.Millisecond

func cell(t *Table, row, col int) string { return t.Rows[row][col] }

func num(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.Fields(s)[0], "x")
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

// Verdicts on wall-clock rates are ones a loaded host cannot flip: after
// the printed run, the experiment is re-run over rounds rounds of one
// timing batch a row (64 calls, ≈0.3 ms for an optimised E1 rung), and
// each comparison is judged by its median over the rounds of the ratio
// within a round. Rows timed back to back share the host's load, so the
// ratio holds where the rates swing; a round that lost the CPU mid-batch
// is outvoted. Each round starts from a collected heap, so a collection's
// mark phase cannot land on the same row round after round.
const rounds = 40

// Each compared pair must be apart by its margin in the median. E1's
// optimised rungs sit ≈+35 % and more apart; E2's small files cost a
// third of the large ones or less; E3's generic parsers cost ≈3× and
// ≈12× the a-priori ones, and ≈1.6× and ≈7.7× under the race detector.
const (
	e1Margin = 1.10
	e2Margin = 1.5
	e3Margin = 1.25
)

// roundMedians re-runs run rounds times and returns, for each ratio that
// ratios reads off one round's table, its median over the rounds.
func roundMedians(t *testing.T, run func(time.Duration) (*Table, error), ratios func(*Table) []float64) []float64 {
	t.Helper()
	var per [][]float64
	for k := 0; k < rounds; k++ {
		runtime.GC()
		tab, err := run(0)
		if err != nil {
			t.Fatal(err)
		}
		r := ratios(tab)
		if per == nil {
			per = make([][]float64, len(r))
		}
		for i, v := range r {
			per[i] = append(per[i], v)
		}
	}
	med := make([]float64, len(per))
	for i := range per {
		sort.Float64s(per[i])
		med[i] = per[i][len(per[i])/2]
	}
	return med
}

func TestE1LadderShape(t *testing.T) {
	tab, err := E1GatherLadder(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// med[i] for i ≥ 1 is rung i's rate over rung i-1's; med[0] is the
	// full ladder, keep-open over naive.
	med := roundMedians(t, E1GatherLadder, func(round *Table) []float64 {
		var rate [4]float64
		for i := range rate {
			rate[i] = num(t, cell(round, i, 1))
		}
		return []float64{rate[3] / rate[0], rate[1] / rate[0], rate[2] / rate[1], rate[3] / rate[2]}
	})
	t.Logf("median of %d rounds: steps %.2fx %.2fx %.2fx, full ladder %.1fx", rounds, med[1], med[2], med[3], med[0])
	if med[1] < 5 {
		t.Fatalf("buffered step only %.1fx over naive; paper step is ~49x", med[1])
	}
	if raceEnabled {
		// The detector charges every memory access the same whichever
		// strategy runs: the three optimised rungs land within noise of
		// each other (≈27 k/s each, against 300 k / 450 k / 740 k
		// without it), so only the first step is a stable claim here.
		return
	}
	// Ordering: naive << buffered < apriori < keepopen, each of the last
	// two steps by the margin.
	for i := 2; i < len(med); i++ {
		if med[i] < e1Margin {
			t.Fatalf("ladder step %d only %.2fx (< %.2fx); steps %.2f", i, med[i], e1Margin, med[1:])
		}
	}
	if med[0] < 20 {
		t.Fatalf("full ladder only %.1fx; paper is ~400x", med[0])
	}
}

func TestE2PerFileShape(t *testing.T) {
	tab, err := E2PerFileCosts(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	// Paper ordering: uptime < loadavg < net/dev, meminfo ≈ stat are the
	// expensive pair. Each pair is expensive over cheap.
	pairs := [][2]string{{"meminfo", "uptime"}, {"meminfo", "loadavg"}, {"stat", "uptime"}, {"netdev", "loadavg"}}
	med := roundMedians(t, E2PerFileCosts, func(round *Table) []float64 {
		cost := map[string]float64{}
		for i, name := range []string{"meminfo", "stat", "loadavg", "uptime", "netdev"} {
			cost[name] = num(t, cell(round, i, 1))
		}
		out := make([]float64, len(pairs))
		for i, p := range pairs {
			out[i] = cost[p[0]] / cost[p[1]]
		}
		return out
	})
	t.Logf("median of %d rounds: %v = %.2f", rounds, pairs, med)
	for i, p := range pairs {
		if med[i] < e2Margin {
			t.Fatalf("%s costs only %.2fx %s (< %.2fx); ordering off", p[0], med[i], p[1], e2Margin)
		}
	}
}

func TestE3ParserShape(t *testing.T) {
	tab, err := E3ParserComparison(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	med := roundMedians(t, E3ParserComparison, func(round *Table) []float64 {
		return []float64{num(t, cell(round, 1, 2)), num(t, cell(round, 3, 2))}
	})
	t.Logf("median of %d rounds: generic over a-priori, meminfo %.2fx, stat %.2fx", rounds, med[0], med[1])
	for i, file := range []string{"meminfo", "stat"} {
		if med[i] < e3Margin {
			t.Fatalf("%s generic parser only %.2fx the optimized one (< %.2fx)", file, med[i], e3Margin)
		}
		if med[i] > 60 {
			t.Fatalf("%s parser gap implausibly large: %.2fx", file, med[i])
		}
	}
}

func TestE4BudgetShape(t *testing.T) {
	tab, err := E4OverheadBudget(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	perHour := num(t, cell(tab, 1, 1))
	if perHour > 60 {
		t.Fatalf("monitoring costs %v s/hour; paper's point is a few seconds", perHour)
	}
}

func TestE5ConsolidationShape(t *testing.T) {
	tab, err := E5Consolidation(120)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	reduction := num(t, cell(tab, 5, 1))
	if reduction < 30 {
		t.Fatalf("change-only transmission saved only %.1f%%", reduction)
	}
	if hits := num(t, cell(tab, 6, 1)); hits == 0 {
		t.Fatal("request cache never hit")
	}
}

func TestE6CompressionShape(t *testing.T) {
	tab, err := E6Compression()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	for i := range tab.Rows {
		if ratio := num(t, cell(tab, i, 3)); ratio < 2 {
			t.Fatalf("row %d compresses only %.1fx; text should deflate well", i, ratio)
		}
	}
}

func TestE7CloneScalingShape(t *testing.T) {
	img := image.New("bench-os", "1.0", image.BootDisk, 24<<20)
	tab, err := E7CloneScaling([]int{5, 20, 60}, img, 20)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	mc5 := durCell(t, cell(tab, 0, 1))
	mc60 := durCell(t, cell(tab, 2, 1))
	if float64(mc60) > 2*float64(mc5) {
		t.Fatalf("multicast not flat: 5 nodes %v, 60 nodes %v", mc5, mc60)
	}
	if ratio := num(t, cell(tab, 1, 4)); ratio < 2 {
		t.Fatalf("unicast only %.1fx slower at 20 nodes", ratio)
	}
}

func TestE8CloneLossShape(t *testing.T) {
	img := image.New("bench-os", "1.0", image.BootDisk, 8<<20)
	tab, err := E8CloneLoss([]float64{0.01, 0.05, 0.15}, 8, img)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	r1 := num(t, cell(tab, 0, 2))
	r3 := num(t, cell(tab, 2, 2))
	if r3 <= r1 {
		t.Fatalf("repair chunks did not grow with loss: %v -> %v", r1, r3)
	}
	if mult := num(t, cell(tab, 2, 5)); mult > 4 {
		t.Fatalf("15%% loss inflated traffic %.1fx", mult)
	}
}

func TestE9BootShape(t *testing.T) {
	tab, err := E9BootTimes()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	// Row 2: LinuxBIOS 1GB disk; row 8: Legacy 1GB disk.
	var lb, legacy time.Duration
	for _, row := range tab.Rows {
		if row[1] != "1024 MB" || row[2] != "disk" {
			continue
		}
		d := durCell(t, row[3])
		if row[0] == "LinuxBIOS" {
			lb = d
		} else {
			legacy = d
		}
	}
	if lb < 1500*time.Millisecond || lb > 4*time.Second {
		t.Fatalf("LinuxBIOS 1GB boot = %v, want ~3s", lb)
	}
	if legacy < 25*time.Second || legacy > 60*time.Second {
		t.Fatalf("legacy 1GB boot = %v, want 30-60s", legacy)
	}
	if float64(legacy)/float64(lb) < 8 {
		t.Fatalf("boot ratio %.1f too small", float64(legacy)/float64(lb))
	}
}

func TestE10NotificationShape(t *testing.T) {
	tab, err := E10Notification(40)
	if err != nil {
		t.Fatalf("%v\n%s", err, tab)
	}
	t.Log("\n" + tab.String())
}

func TestE11ThermalShape(t *testing.T) {
	tab, err := E11ThermalRunaway()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	// Without the rule the CPU burns; with it the node survives.
	if cell(tab, 0, 3) != "true" {
		t.Fatalf("control arm did not burn: %v", tab.Rows[0])
	}
	if cell(tab, 1, 3) != "false" {
		t.Fatalf("event engine failed to save the node: %v", tab.Rows[1])
	}
	if cell(tab, 1, 4) != "off" {
		t.Fatalf("protected node final state = %v", tab.Rows[1])
	}
}

func TestE12SequencingShape(t *testing.T) {
	tab, err := E12PowerSequencing()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	if cell(tab, 0, 1) != "true" {
		t.Fatal("simultaneous power-up did not trip the breaker")
	}
	if cell(tab, 1, 1) != "false" || cell(tab, 1, 3) != "10/10" {
		t.Fatalf("sequenced power-up failed: %v", tab.Rows[1])
	}
}

func TestE13ConsoleShape(t *testing.T) {
	tab, err := E13Console()
	if err != nil {
		t.Fatalf("%v\n%s", err, tab)
	}
	t.Log("\n" + tab.String())
}

func TestE14SlurmShape(t *testing.T) {
	tab, err := E14Slurm()
	if err != nil {
		t.Fatalf("%v\n%s", err, tab)
	}
	t.Log("\n" + tab.String())
}

func durCell(t *testing.T, s string) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(strings.Fields(s)[0])
	if err != nil {
		t.Fatalf("cell %q not a duration: %v", s, err)
	}
	return d
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"wide-cell-content", "1"}},
		Notes:  []string{"a note"},
	}
	out := tab.String()
	for _, want := range []string{"== X: demo ==", "long-header", "wide-cell-content", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestE15UpdateShape(t *testing.T) {
	tab, err := E15Update(10)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	fullBytes := num(t, cell(tab, 0, 1))
	updBytes := num(t, cell(tab, 1, 1))
	if updBytes*4 > fullBytes {
		t.Fatalf("incremental update moved %v MB of %v MB; delta not exploited", updBytes, fullBytes)
	}
	fullTime := durCell(t, cell(tab, 0, 2))
	updTime := durCell(t, cell(tab, 1, 2))
	if updTime >= fullTime {
		t.Fatalf("update (%v) not faster than reclone (%v)", updTime, fullTime)
	}
}

func TestE16SchedulerShape(t *testing.T) {
	tab, err := E16Schedulers(8, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	fifoSpan := durCell(t, cell(tab, 0, 1))
	bfSpan := durCell(t, cell(tab, 1, 1))
	if bfSpan > fifoSpan {
		t.Fatalf("backfill makespan %v worse than FIFO %v", bfSpan, fifoSpan)
	}
	fifoUtil := num(t, cell(tab, 0, 3))
	bfUtil := num(t, cell(tab, 1, 3))
	if bfUtil < fifoUtil {
		t.Fatalf("backfill utilization %.0f%% below FIFO %.0f%%", bfUtil, fifoUtil)
	}
}
