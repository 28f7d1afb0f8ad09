package history

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

func TestAppendAndLast(t *testing.T) {
	s := NewSeries(8)
	if _, ok := s.Last(); ok {
		t.Fatal("empty series has Last")
	}
	s.Append(sec(1), 10)
	s.Append(sec(2), 20)
	p, ok := s.Last()
	if !ok || p.T != sec(2) || p.V != 20 {
		t.Fatalf("Last = %+v", p)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestRingEviction(t *testing.T) {
	s := NewSeries(4)
	for i := 1; i <= 10; i++ {
		s.Append(sec(i), float64(i))
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	pts := s.Range(0, sec(100))
	if len(pts) != 4 || pts[0].V != 7 || pts[3].V != 10 {
		t.Fatalf("Range = %v", pts)
	}
}

func TestOutOfOrderDropped(t *testing.T) {
	s := NewSeries(8)
	s.Append(sec(5), 1)
	s.Append(sec(3), 2) // clock skew: dropped
	s.Append(sec(6), 3)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestRangeBounds(t *testing.T) {
	s := NewSeries(16)
	for i := 1; i <= 10; i++ {
		s.Append(sec(i), float64(i))
	}
	pts := s.Range(sec(3), sec(7))
	if len(pts) != 5 || pts[0].T != sec(3) || pts[4].T != sec(7) {
		t.Fatalf("Range = %v", pts)
	}
	if len(s.Range(sec(20), sec(30))) != 0 {
		t.Fatal("empty range returned points")
	}
}

func TestStats(t *testing.T) {
	s := NewSeries(16)
	for i, v := range []float64{5, 1, 9, 3} {
		s.Append(sec(i+1), v)
	}
	st := s.Stats(sec(1), sec(4))
	if st.N != 4 || st.Min != 1 || st.Max != 9 || st.Mean != 4.5 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.First.V != 5 || st.LastPoint.V != 3 {
		t.Fatalf("First/Last = %+v", st)
	}
	if empty := s.Stats(sec(100), sec(200)); empty.N != 0 {
		t.Fatalf("empty Stats = %+v", empty)
	}
}

func TestTrend(t *testing.T) {
	s := NewSeries(64)
	// Value climbs 1 unit per minute = 60/hour.
	for i := 0; i <= 30; i++ {
		s.Append(time.Duration(i)*time.Minute, float64(i))
	}
	slope, ok := s.Trend(0, time.Hour)
	if !ok || math.Abs(slope-60) > 0.001 {
		t.Fatalf("Trend = %v, %v; want 60/hour", slope, ok)
	}
	// Too few points.
	s2 := NewSeries(4)
	s2.Append(sec(1), 1)
	if _, ok := s2.Trend(0, sec(10)); ok {
		t.Fatal("Trend with one point succeeded")
	}
	// Zero time spread.
	s3 := NewSeries(4)
	s3.Append(sec(1), 1)
	s3.Append(sec(1), 2)
	if _, ok := s3.Trend(0, sec(10)); ok {
		t.Fatal("Trend with zero spread succeeded")
	}
}

func TestDownsample(t *testing.T) {
	s := NewSeries(256)
	for i := 0; i < 100; i++ {
		s.Append(time.Duration(i)*time.Second, float64(i%10))
	}
	pts := s.Downsample(nil, 0, sec(100), 10)
	if len(pts) != 10 {
		t.Fatalf("Downsample returned %d buckets", len(pts))
	}
	for _, p := range pts {
		if math.Abs(p.V-4.5) > 0.001 {
			t.Fatalf("bucket mean = %v, want 4.5", p.V)
		}
	}
	if s.Downsample(nil, 0, sec(100), 0) != nil {
		t.Fatal("zero buckets not rejected")
	}
	if s.Downsample(nil, sec(5), sec(5), 4) != nil {
		t.Fatal("empty interval not rejected")
	}
}

func TestDownsampleSparse(t *testing.T) {
	s := NewSeries(16)
	s.Append(sec(1), 10)
	s.Append(sec(99), 20)
	pts := s.Downsample(nil, 0, sec(100), 10)
	if len(pts) != 2 {
		t.Fatalf("sparse downsample = %v", pts)
	}
}

func TestStore(t *testing.T) {
	st := NewStore(16)
	st.Append("n1", "load.1", sec(1), 0.5)
	st.Append("n1", "load.1", sec(2), 0.7)
	st.Append("n1", "mem.free.kb", sec(1), 1000)
	st.Append("n2", "load.1", sec(1), 2.5)

	if s := st.Series("n1", "load.1"); s == nil || s.Len() != 2 {
		t.Fatal("Series lookup failed")
	}
	if st.Series("ghost", "load.1") != nil {
		t.Fatal("ghost series not nil")
	}
	nodes := st.Nodes()
	if len(nodes) != 2 || nodes[0] != "n1" || nodes[1] != "n2" {
		t.Fatalf("Nodes = %v", nodes)
	}
	metrics := st.Metrics("n1")
	if len(metrics) != 2 || metrics[0] != "load.1" {
		t.Fatalf("Metrics = %v", metrics)
	}
	var cmp Comparison
	st.Compare(&cmp, "load.1", 0, sec(10))
	if n := cmp.Nodes; len(n) != 2 || n[0].Node != "n1" || n[1].Node != "n2" || n[1].Mean != 2.5 || !n[1].Fresh {
		t.Fatalf("Compare = %+v", cmp)
	}
}

// TestCompareKeepsUnchanged pins the row cache: a Comparison brought up
// to date aggregates again exactly the series that changed — by an
// append, or by a window that no longer reaches the series' newest point
// — re-reads its roster when a series appears, and always equals a
// Comparison built from nothing.
func TestCompareKeepsUnchanged(t *testing.T) {
	st := NewStore(4)
	for i, n := range []string{"n2", "n1", "n3"} {
		st.Append(n, "load.1", sec(1), float64(i))
	}
	var c Comparison
	check := func(t1 time.Duration, fresh ...string) {
		t.Helper()
		st.Compare(&c, "load.1", 0, t1)
		var want Comparison
		st.Compare(&want, "load.1", 0, t1)
		var got []string
		for i, n := range c.Nodes {
			if w := want.Nodes[i]; n.Node != w.Node || n.Stats != w.Stats {
				t.Fatalf("row %d = %+v, from scratch %+v", i, n, w)
			}
			if n.Fresh {
				got = append(got, n.Node)
			}
		}
		if len(c.Nodes) != len(want.Nodes) || !slices.Equal(got, fresh) {
			t.Fatalf("fresh = %v of %d rows, want %v of %d", got, len(c.Nodes), fresh, len(want.Nodes))
		}
	}
	check(sec(1), "n1", "n2", "n3")
	check(sec(1))
	check(sec(9)) // a later window end over unchanged series
	st.Append("n2", "load.1", sec(5), 7)
	check(sec(9), "n2")
	check(sec(3), "n2") // the window now cuts n2's newest point off
	check(sec(9), "n2") // and a cut-off row is never kept
	check(sec(9))
	for i := 0; i < 6; i++ { // evict n1's oldest points
		st.Append("n1", "load.1", sec(10+i), 1)
	}
	check(sec(20), "n1")
	st.Append("n0", "other", sec(20), 1) // a series elsewhere in the store: roster re-read
	check(sec(20), "n1", "n2", "n3")
	st.Append("n0", "load.1", sec(20), 1)
	check(sec(20), "n0", "n1", "n2", "n3")
}

// TestHeadGrowthSteps pins the open block's buffer ladder: it starts at
// 64 B and doubles up to 4 096 as the points' codes need it — by bytes, so
// a cheap stream climbs later than a costly one and a series retaining a
// handful of points never leaves the first steps — closing only at
// blockPoints points or when the top step is full; the buffer is reused
// across closes and the accounted bytes follow. grows is the number of
// buffers a series' first 513 appends allocate beyond its first.
func TestHeadGrowthSteps(t *testing.T) {
	bufCap := func(s *Series) int { return cap(s.open.buf) }
	// A fixed cadence and a small integer ramp: ≈1.4 B a point.
	cheap := func(i int) (time.Duration, float64) { return sec(i), float64(i % 17) }
	// Jittered wall-clock stamps and wide floats: ≈13 B a point, the
	// regime where a block closes on bytes before it holds blockPoints.
	rng := rand.New(rand.NewSource(7))
	now := time.Duration(0)
	costly := func(int) (time.Duration, float64) {
		now += time.Second + time.Duration(rng.Intn(1e9))
		return now, rng.NormFloat64() * 1e6
	}
	cases := []struct {
		name     string
		capacity int
		point    func(int) (time.Duration, float64)
		steps    []int // buffer size after appends 1, 9, 33, 129, 513
		grows    int
	}{
		{"cap1", 1, cheap, []int{64, 64, 64, 64, 64}, 0},
		{"cap7/costly", 7, costly, []int{64, 128, 128, 128, 128}, 1},
		{"cheap", DefaultCapacity, cheap, []int{64, 64, 64, 256, 1024}, 4},
		{"costly", DefaultCapacity, costly, []int{64, 256, 512, 2048, 4096}, 6},
	}
	for _, c := range cases {
		s := NewSeries(c.capacity)
		n, grows := 0, 0
		for i, at := range []int{1, 9, 33, 129, 513} {
			for ; n < at; n++ {
				before := bufCap(s)
				s.Append(c.point(n))
				if bufCap(s) != before {
					grows++
				}
				if want := seriesFootprint(s); s.Bytes() != want {
					t.Fatalf("%s after %d appends: Bytes = %d, want %d", c.name, n+1, s.Bytes(), want)
				}
			}
			if bufCap(s) != c.steps[i] {
				t.Fatalf("%s after %d appends: buffer %d B, want %d", c.name, at, bufCap(s), c.steps[i])
			}
		}
		if s.Len() != min(c.capacity, 513) || grows != c.grows {
			t.Fatalf("%s: Len = %d, the buffer grew %d times, want %d", c.name, s.Len(), grows, c.grows)
		}
		for _, b := range testBlocks(s) {
			if b.sum.count > blockPoints || len(b.data) > bufMax {
				t.Fatalf("%s: a closed block holds %d points in %d B", c.name, b.sum.count, len(b.data))
			}
		}
	}
	// The cheap default series closed exactly once, on the 513th append,
	// and the block holds the buffer's exact bytes, not its capacity.
	s := NewSeries(DefaultCapacity)
	for n := 0; n < 513; n++ {
		if len(testBlocks(s)) != 0 {
			t.Fatalf("closed after %d appends, before the block was full", n)
		}
		s.Append(cheap(n))
	}
	if len(testBlocks(s)) != 1 || testBlocks(s)[0].sum.count != blockPoints || int(s.open.count) != 1 {
		t.Fatalf("after 513 appends: %d blocks, open block %d points", len(testBlocks(s)), int(s.open.count))
	}
	if b := testBlocks(s)[0]; cap(b.data) > len(b.data)+1 || len(b.data) >= bufCap(s) {
		t.Fatalf("closed block: %d B in a %d B slice, buffer %d B", len(b.data), cap(b.data), bufCap(s))
	}
}

// TestSeriesSize pins the per-series slab slot: a root holds one per
// (node, metric) pair, 32 k of them per thousand nodes, and a node's 32
// of them are one allocation. At 104 B they are 3 328 B, inside the
// 3 456 B size class; 105 B would cost the next one, 4 096 B.
func TestSeriesSize(t *testing.T) {
	if size := unsafe.Sizeof(Series{}); size > 104 {
		t.Fatalf("Series is %d B, want <= 104 (32 of them fill a 3 456 B size class)", size)
	}
}

// testBlocks returns a series' closed blocks.
func testBlocks(s *Series) []*block {
	s.node.mu.Lock()
	defer s.node.mu.Unlock()
	blocks, _ := s.chainLocked()
	return blocks
}

// seriesFootprint recomputes a series' footprint from what it holds.
func seriesFootprint(s *Series) int64 {
	n := int64(cap(s.open.buf))
	for _, b := range testBlocks(s) {
		n += int64(len(b.data)) + blockOverheadBytes
	}
	return n
}

// TestBytesAccounting checks the three views of the footprint against
// each other and against the structures themselves after a mix of buffer
// growth, closes and evictions: Store.Bytes, the cwx_history_bytes gauge's
// movement, and the sum of Series.Bytes.
func TestBytesAccounting(t *testing.T) {
	gauge0 := storeBytes.Load()
	st := NewStore(700) // a block's worth plus change: closes, then evicts
	tiny := NewStore(5) // block capped by retention; every 5th append closes
	fill := map[string]int{"young": 3, "grown": 40, "full": 512, "sealed": 600, "evicting": 2000}
	for node, n := range fill {
		for i := 0; i < n; i++ {
			st.Append(node, "m", sec(i), float64(i%13))
			st.Append(node, "m2", sec(i), 1)
		}
	}
	for i := 0; i < 23; i++ {
		tiny.Append("tiny", "m", sec(i), float64(i%13))
		tiny.Append("tiny", "m2", sec(i), 1)
	}
	var sum, want int64
	add := func(st *Store, node string) {
		for _, m := range st.Metrics(node) {
			s := st.Series(node, m)
			sum += s.Bytes()
			want += seriesFootprint(s)
		}
	}
	for node := range fill {
		add(st, node)
	}
	add(tiny, "tiny")
	if sum != want {
		t.Fatalf("sum of Series.Bytes = %d, structures hold %d", sum, want)
	}
	if got := st.Bytes() + tiny.Bytes(); got != sum {
		t.Fatalf("Store.Bytes = %d, sum of Series.Bytes = %d", got, sum)
	}
	if got := storeBytes.Load() - gauge0; got != sum {
		t.Fatalf("cwx_history_bytes moved by %d, sum of Series.Bytes = %d", got, sum)
	}
	if ev := st.Series("evicting", "m"); ev.Len() != 700 || len(testBlocks(ev)) > 2 {
		t.Fatalf("evicting series: Len %d, %d blocks (expired blocks not released)", ev.Len(), len(testBlocks(ev)))
	}
}

// Property: Range returns exactly the points within bounds, in order, for
// any append sequence (monotone timestamps).
func TestPropertyRangeCorrect(t *testing.T) {
	f := func(vals []uint8, loSel, hiSel uint8) bool {
		s := NewSeries(32)
		for i, v := range vals {
			s.Append(sec(i), float64(v))
		}
		total := len(vals)
		kept := total
		if kept > 32 {
			kept = 32
		}
		lo := int(loSel) % (total + 1)
		hi := lo + int(hiSel)%(total+1-lo)
		pts := s.Range(sec(lo), sec(hi))
		// Recompute expectation from the retained suffix.
		first := total - kept
		want := 0
		for i := first; i < total; i++ {
			if i >= lo && i <= hi {
				want++
			}
		}
		if len(pts) != want {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].T < pts[i-1].T {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Stats.Mean is always within [Min, Max].
func TestPropertyStatsBounds(t *testing.T) {
	f := func(vals []int8) bool {
		s := NewSeries(64)
		for i, v := range vals {
			s.Append(sec(i), float64(v))
		}
		st := s.Stats(0, sec(len(vals)+1))
		if st.N == 0 {
			return len(vals) == 0 || len(vals) > 64
		}
		return st.Min <= st.Mean && st.Mean <= st.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConcurrentReadsDuringAppend hammers Append against the full
// read-side API (Compare, Series queries, Nodes/Metrics, SaveTo) from
// concurrent goroutines. Under -race this pins the store's contract that
// readers never race appends to the same series — the exact shape of the
// dashboard's Compare running against live agent ingest.
func TestStoreConcurrentReadsDuringAppend(t *testing.T) {
	st := NewStore(256)
	const (
		writers = 8
		readers = 8
		nodes   = 32
		iters   = 500
	)
	nodeName := func(i int) string { return fmt.Sprintf("n%02d", i%nodes) }

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				st.Append(nodeName(w*7+i), "load.1", sec(i), float64(i))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0:
					var c Comparison
					st.Compare(&c, "load.1", 0, sec(iters))
				case 1:
					if s := st.Series(nodeName(r*5+i), "load.1"); s != nil {
						s.Range(0, sec(iters))
						s.Downsample(nil, 0, sec(iters), 8)
						s.Last()
						s.Trend(0, sec(iters))
					}
				case 2:
					st.Nodes()
					st.Metrics(nodeName(i))
				case 3:
					st.SaveTo(io.Discard)
				}
			}
		}(r)
	}
	wg.Wait()

	var cmp Comparison
	st.Compare(&cmp, "load.1", 0, sec(iters))
	if len(cmp.Nodes) == 0 {
		t.Fatal("Compare returned no nodes after concurrent appends")
	}
	for _, n := range cmp.Nodes {
		if n.N == 0 {
			t.Fatalf("node %s has empty stats", n.Node)
		}
	}
}
