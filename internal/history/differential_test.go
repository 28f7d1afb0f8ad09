package history

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// refRing is the naive reference model: the pre-block-engine
// implementation, a raw []Point ring with O(points) scans. The
// differential test drives random append/query sequences through both
// engines and asserts the block engine is observationally identical.
type refRing struct {
	buf   []Point
	start int
	size  int
}

func newRefRing(capacity int) *refRing { return &refRing{buf: make([]Point, capacity)} }

func (r *refRing) at(i int) Point { return r.buf[(r.start+i)%len(r.buf)] }

func (r *refRing) append(t time.Duration, v float64) {
	if r.size > 0 && t < r.at(r.size-1).T {
		return // out of order: dropped
	}
	if r.size < len(r.buf) {
		r.buf[(r.start+r.size)%len(r.buf)] = Point{T: t, V: v}
		r.size++
		return
	}
	r.buf[r.start] = Point{T: t, V: v}
	r.start = (r.start + 1) % len(r.buf)
}

func (r *refRing) rng(t0, t1 time.Duration) []Point {
	var out []Point
	for i := 0; i < r.size; i++ {
		p := r.at(i)
		if p.T >= t0 && p.T <= t1 {
			out = append(out, p)
		}
	}
	return out
}

func (r *refRing) stats(t0, t1 time.Duration) Stats {
	var st Stats
	for i := 0; i < r.size; i++ {
		p := r.at(i)
		if p.T < t0 || p.T > t1 {
			continue
		}
		if st.N == 0 {
			st.Min, st.Max, st.First = p.V, p.V, p
		}
		if p.V < st.Min {
			st.Min = p.V
		}
		if p.V > st.Max {
			st.Max = p.V
		}
		st.Mean += p.V
		st.LastPoint = p
		st.N++
	}
	if st.N > 0 {
		st.Mean /= float64(st.N)
	}
	return st
}

func (r *refRing) trend(t0, t1 time.Duration) (float64, bool) {
	pts := r.rng(t0, t1)
	if len(pts) < 2 {
		return 0, false
	}
	var sumX, sumY, sumXY, sumXX float64
	for _, p := range pts {
		x := p.T.Hours()
		sumX += x
		sumY += p.V
		sumXY += x * p.V
		sumXX += x * x
	}
	n := float64(len(pts))
	den := n*sumXX - sumX*sumX
	if den == 0 {
		return 0, false
	}
	return (n*sumXY - sumX*sumY) / den, true
}

func (r *refRing) downsample(t0, t1 time.Duration, n int) []Point {
	if n <= 0 || t1 <= t0 {
		return nil
	}
	width := (t1 - t0) / time.Duration(n)
	if width <= 0 {
		return nil
	}
	sums := make([]float64, n)
	counts := make([]int, n)
	for _, p := range r.rng(t0, t1) {
		b := int((p.T - t0) / width)
		if b >= n {
			b = n - 1
		}
		sums[b] += p.V
		counts[b]++
	}
	var out []Point
	for b := 0; b < n; b++ {
		if counts[b] == 0 {
			continue
		}
		out = append(out, Point{T: t0 + width*time.Duration(b) + width/2, V: sums[b] / float64(counts[b])})
	}
	return out
}

// eqVal reports observational equality of two sample values: NaN matches
// NaN, everything else compares exactly (±Inf included).
func eqVal(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

// samePoint reports whether two stored points are the same bit for bit:
// what Range, Tail, Last and a save/load round trip owe the reference (a
// NaN keeps its payload, −0 stays −0).
func samePoint(a, b Point) bool {
	return a.T == b.T && math.Float64bits(a.V) == math.Float64bits(b.V)
}

// approxVal allows the tiny reassociation drift of summary-merged sums
// (block and head subtotals are grouped, the naive scan is flat).
func approxVal(a, b float64) bool {
	if eqVal(a, b) {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*scale
}

// cancels reports whether grouping, not the values, decides a window's
// sum: it holds a finite value near ±MaxFloat64 and one as large (or
// infinite) of the opposite sign. Summed flat, the first of the pair
// absorbs every ordinary value up to the second (or overflows before
// it); as block and head subtotals the two can meet first and cancel to
// 0. Neither mean is the right one, so such a window's Mean is not
// compared — the only carve-out from approxVal.
func cancels(pts []Point) bool {
	var posFinite, negFinite, pos, neg bool
	for _, p := range pts {
		switch finite := !math.IsInf(p.V, 0); {
		case math.IsNaN(p.V):
			return false // NaN in any grouping
		case p.V >= 1e300:
			pos, posFinite = true, posFinite || finite
		case p.V <= -1e300:
			neg, negFinite = true, negFinite || finite
		}
	}
	return posFinite && neg || negFinite && pos
}

// diffTally counts the windows whose Mean was compared, the ones cancels
// carved out, and the Trend mismatches excused as ill-conditioned, so no
// carve-out can quietly become the norm.
type diffTally struct{ compared, cancelled, illFit int }

// tameValues are the edge-case float64s no sum is sensitive to;
// specialValues adds the adversarial ones: NaN, ±Inf and ±MaxFloat64
// make most long windows' Mean NaN, infinite or cancelling.
var (
	tameValues = []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, math.SmallestNonzeroFloat64,
	}
	specialValues = append([]float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	}, tameValues...)
)

// diffStream is one shape of input: how far the clock moves between
// appends — from now, the newest stamp so far — and what value comes next.
type diffStream struct {
	name  string
	step  func(rng *rand.Rand, now time.Duration) time.Duration
	value func(rng *rand.Rand, prev float64) float64
	spot  bool // run at spotCapacities only: the suite runs under -race
}

// jitteredStep is a mostly monotone clock with jittered cadence, some
// equal timestamps and the occasional step back (dropped by both engines).
func jitteredStep(rng *rand.Rand, _ time.Duration) time.Duration {
	switch rng.Intn(10) {
	case 0:
		return 0 // equal timestamp: allowed
	case 1:
		return -time.Duration(rng.Intn(5000)+1) * time.Millisecond // out of order: dropped
	default:
		return time.Duration(rng.Intn(2000)+1) * time.Millisecond
	}
}

// irregularStep spans every timestamp code: nanoseconds to hours, with
// runs of a fixed cadence between the jumps.
func irregularStep(rng *rand.Rand, _ time.Duration) time.Duration {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return time.Duration(rng.Intn(100) + 1)
	case 2:
		return time.Duration(rng.Intn(1000)+1) * time.Microsecond
	case 3:
		return time.Duration(rng.Intn(3)+1) * time.Hour
	case 4:
		return -time.Duration(rng.Intn(90)+1) * time.Second
	case 5:
		return time.Minute + time.Duration(rng.Intn(1_000_000))
	default:
		return time.Second
	}
}

// gridStep is a stepped clock's stream, what the stamp code's exponent is
// for: stamps on a 1 ms, a 100 ms or a 1 s grid (the grid changes every
// twenty minutes of stream time), as a 1 Hz cadence, as change-suppressed
// gaps of 1–80 steps, as runs of equal stamps — a loader outrunning the
// clock's step — and now and then as an excursion: a stamp off the grid,
// the next one back on it. Once, the stream jumps more than 2^32 seconds —
// past the 32-bit tier at the largest exponent — to just under 2^62 ns.
func gridStep(rng *rand.Rand, now time.Duration) time.Duration {
	grid := [...]time.Duration{time.Millisecond, 100 * time.Millisecond, time.Second}[now/(20*time.Minute)%3]
	toGrid := (grid - now%grid) % grid // 0 on the grid
	switch r := rng.Intn(64); {
	case r < 12:
		return 0
	case r < 15:
		return toGrid + time.Duration(rng.Intn(8))*grid + time.Duration(rng.Int63n(int64(grid)-1)+1)
	case r == 15:
		return -time.Duration(rng.Intn(5)+1) * grid // out of order: dropped
	case r == 16 && now < 1<<61 && rng.Intn(60) == 0:
		return (1<<62 - now).Truncate(time.Second) - time.Duration(rng.Intn(1000))*time.Second
	case r < 44:
		return toGrid + time.Second
	default:
		return toGrid + time.Duration(rng.Intn(80)+1)*grid
	}
}

// quantized mixes half-unit monitor readings with wide floats and the
// given special values.
func quantized(specials []float64) func(*rand.Rand, float64) float64 {
	return func(rng *rand.Rand, _ float64) float64 {
		switch rng.Intn(8) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return rng.NormFloat64() * 1e6
		default:
			return 40 + float64(rng.Intn(64))*0.5
		}
	}
}

// twoDecimals is a "%.2f" monitor — /proc/loadavg, a percentage — so one
// reading in ten lands on a shorter decimal (0.50, 3.00) and the value
// code's sticky exponent is crossed both ways; NaN, ±Inf and −0 break the
// decimal run now and then.
func twoDecimals(rng *rand.Rand, _ float64) float64 {
	if rng.Intn(40) == 0 {
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[rng.Intn(4)]
	}
	return math.Round(rng.Float64()*600) / 100
}

// counter is an integer counter: it dwells, climbs by small and large
// strides, wraps to zero, and sometimes sits at the edge of the integers a
// float64 holds exactly.
func counter(rng *rand.Rand, prev float64) float64 {
	if math.IsNaN(prev) || math.IsInf(prev, 0) {
		prev = 0
	}
	switch rng.Intn(50) {
	case 0:
		return 0
	case 1:
		return 1<<53 - float64(rng.Intn(3))
	case 2, 3, 4, 5, 6, 7, 8, 9:
		return prev
	case 10:
		return math.Trunc(prev) + float64(rng.Intn(1<<30))
	default:
		return math.Trunc(prev) + float64(rng.Intn(1500))
	}
}

var diffStreams = []diffStream{
	{"adversarial", jitteredStep, quantized(specialValues), false},
	{"tame", jitteredStep, quantized(tameValues), false},
	{"decimal", jitteredStep, twoDecimals, true},
	{"counter", jitteredStep, counter, true},
	{"irregular", irregularStep, twoDecimals, true},
	{"grid", gridStep, twoDecimals, true},
}

// spotCapacities are one point, a handful, a part of a block, and a
// block and a bit with and without room for a second close.
var spotCapacities = []int{1, 9, 100, 513, 600}

// TestDifferentialEngineVsNaiveRing drives random append/query sequences
// against the block engine and the naive reference ring, asserting
// identical Range/Tail/Stats/Downsample/Trend/Len/Last results and an
// identical save/load round trip — including across block closes,
// point-exact eviction, out-of-order drops, and NaN/±Inf/denormal values.
// Stored points must match bit for bit; Mean and Trend tolerate the
// reassociation drift inherent to O(blocks) summary merging. The
// capacities run from one point, where every append closes a block, over
// both sides of the blockPoints close to many blocks; the streams are the
// shapes the value code tells apart (diffStreams), the adversarial one
// beside a tame twin whose every Mean is finite, so long windows check
// the merged sums and not just NaN against NaN.
func TestDifferentialEngineVsNaiveRing(t *testing.T) {
	capacities := []int{1, 5, 7, 8, 9, 10, 31, 32, 33, 100, 511, 513, 600, 1500, 4096}
	for _, capacity := range capacities {
		for _, stream := range diffStreams {
			if stream.spot && !slices.Contains(spotCapacities, capacity) {
				continue
			}
			t.Run(fmt.Sprintf("cap%d/%s", capacity, stream.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(0xC0FFEE + capacity)))
				st := NewStore(capacity)
				ref := newRefRing(capacity)
				now := time.Duration(0)
				appends := 0
				var v float64
				var tally diffTally
				for round := 0; round < 40; round++ {
					burst := rng.Intn(3*blockPoints/2) + 1
					for i := 0; i < burst; i++ {
						step := stream.step(rng, now)
						ts := now + step
						if step > 0 {
							now = ts
						}
						v = stream.value(rng, v)
						st.Append("n", "m", ts, v)
						ref.append(ts, v)
						appends++
					}
					checkDifferential(t, st.Series("n", "m"), ref, rng, now, &tally)
				}
				if appends <= capacity {
					t.Fatalf("generator never exercised eviction (appends=%d cap=%d)", appends, capacity)
				}
				if stream.name == "grid" && now < 1<<61 {
					t.Fatalf("the grid stream never took its 2^32 s gap (now=%v)", now)
				}
				// The carve-outs stay the exception: no Mean but on the
				// adversarial stream and under a fifth of its, and a Trend
				// in a hundred.
				if tally.cancelled*5 > tally.compared || stream.name != "adversarial" && tally.cancelled > 0 ||
					tally.illFit*100 > tally.compared {
					t.Fatalf("carve-outs are not the exception: %+v", tally)
				}
				// What is saved is what is stored: the chain, the front
				// trim and the open block come back as the same points.
				var buf bytes.Buffer
				if err := st.SaveTo(&buf); err != nil {
					t.Fatal(err)
				}
				back := NewStore(capacity)
				if err := back.LoadFrom(&buf); err != nil {
					t.Fatal(err)
				}
				got := back.Series("n", "m").Range(math.MinInt64, math.MaxInt64)
				if len(got) != ref.size {
					t.Fatalf("loaded %d points, ref %d", len(got), ref.size)
				}
				for i, p := range got {
					if !samePoint(p, ref.at(i)) {
						t.Fatalf("loaded point %d = %v, ref %v", i, p, ref.at(i))
					}
				}
			})
		}
	}
}

func checkDifferential(t *testing.T, s *Series, ref *refRing, rng *rand.Rand, now time.Duration, tally *diffTally) {
	t.Helper()
	if s.Len() != ref.size {
		t.Fatalf("Len = %d, ref %d", s.Len(), ref.size)
	}
	gotLast, gotOK := s.Last()
	if ref.size == 0 {
		if gotOK {
			t.Fatal("Last ok on empty series")
		}
	} else {
		wantLast := ref.at(ref.size - 1)
		if !gotOK || !samePoint(gotLast, wantLast) {
			t.Fatalf("Last = %v,%v want %v", gotLast, gotOK, wantLast)
		}
	}
	// Tail: the newest n points, for n inside the open block, across
	// closed blocks, at the trimmed front and past everything stored.
	for _, n := range []int{0, 1, rng.Intn(blockPoints) + 1, rng.Intn(ref.size+1) + 1, ref.size, ref.size + 3} {
		got := s.Tail(nil, n)
		if want := min(n, ref.size); len(got) != want {
			t.Fatalf("Tail(%d) len %d, want %d", n, len(got), want)
		}
		for i, p := range got {
			if w := ref.at(ref.size - len(got) + i); !samePoint(p, w) {
				t.Fatalf("Tail(%d)[%d] = %v, ref %v", n, i, p, w)
			}
		}
	}
	windows := headWindows(s)
	for q := 0; q < 6; q++ {
		t0, t1 := randWindow(rng, now)
		windows = append(windows, [2]time.Duration{t0, t1})
	}
	for _, w := range windows {
		t0, t1 := w[0], w[1]
		gotR, wantR := s.Range(t0, t1), ref.rng(t0, t1)
		if len(gotR) != len(wantR) {
			t.Fatalf("Range(%v,%v) len %d, ref %d", t0, t1, len(gotR), len(wantR))
		}
		for i := range gotR {
			if !samePoint(gotR[i], wantR[i]) {
				t.Fatalf("Range(%v,%v)[%d] = %v, ref %v", t0, t1, i, gotR[i], wantR[i])
			}
		}

		gotS, wantS := s.Stats(t0, t1), ref.stats(t0, t1)
		if gotS.N != wantS.N ||
			!eqVal(gotS.Min, wantS.Min) || !eqVal(gotS.Max, wantS.Max) ||
			gotS.First != wantS.First && !(gotS.First.T == wantS.First.T && eqVal(gotS.First.V, wantS.First.V)) ||
			gotS.LastPoint.T != wantS.LastPoint.T || !eqVal(gotS.LastPoint.V, wantS.LastPoint.V) {
			t.Fatalf("Stats(%v,%v) = %+v, ref %+v", t0, t1, gotS, wantS)
		}
		if cancels(wantR) {
			tally.cancelled++
		} else if tally.compared++; !approxVal(gotS.Mean, wantS.Mean) {
			t.Fatalf("Stats(%v,%v).Mean = %v, ref %v", t0, t1, gotS.Mean, wantS.Mean)
		}

		n := rng.Intn(64) + 1
		gotD, wantD := s.Downsample(nil, t0, t1, n), ref.downsample(t0, t1, n)
		if len(gotD) != len(wantD) {
			t.Fatalf("Downsample(%v,%v,%d) len %d, ref %d", t0, t1, n, len(gotD), len(wantD))
		}
		for i := range gotD {
			if gotD[i].T != wantD[i].T || !eqVal(gotD[i].V, wantD[i].V) {
				t.Fatalf("Downsample(%v,%v,%d)[%d] = %v, ref %v", t0, t1, n, i, gotD[i], wantD[i])
			}
		}

		// Trend: only assert when the window has two distinct timestamps —
		// with all-identical x the determinant is an exact fp zero for the
		// flat scan but may round to ±ε when merged from block moments.
		if distinctTimestamps(wantR) >= 2 {
			gotTr, gotOK := s.Trend(t0, t1)
			wantTr, wantOK := ref.trend(t0, t1)
			if gotOK != wantOK {
				t.Fatalf("Trend(%v,%v) ok = %v, ref %v", t0, t1, gotOK, wantOK)
			}
			if gotOK && !eqVal(gotTr, wantTr) && !trendClose(gotTr, wantTr) {
				// The flat scan's own slope carries ~ε·condition of rounding
				// noise: past 1e9 it is no oracle at trendClose's tolerance.
				if fitCondition(wantR) < 1e9 {
					t.Fatalf("Trend(%v,%v) = %v, ref %v", t0, t1, gotTr, wantTr)
				}
				tally.illFit++
			}
		}
	}
}

// headWindows returns query windows placed against the series' open
// block, whose running summary answers Stats only when the window holds
// all of it: windows that contain it (exactly, and with the closed
// chain), cut it at either end, and miss it on either side.
func headWindows(s *Series) [][2]time.Duration {
	s.node.mu.Lock()
	n := s.open.count
	var firstT int64
	if n > 0 {
		firstT, _ = s.open.first()
	}
	first, last := time.Duration(firstT), time.Duration(s.open.ts.Prev)
	s.node.mu.Unlock()
	if n == 0 {
		return nil
	}
	mid := first + (last-first)/2
	return [][2]time.Duration{
		{first, last}, {0, last + time.Hour},
		{mid, last + time.Hour}, {0, mid}, {first + 1, last}, {first, last - 1},
		{0, first - 1}, {last + 1, last + time.Hour},
	}
}

// TestDifferentialHeadNaN pins the open block's running summary against
// the scan for the NaN placements that decide Min/Max initialization:
// NaN as its first value, its only value, and every value — on a young
// series with no closed block and behind one.
func TestDifferentialHeadNaN(t *testing.T) {
	nan := math.NaN()
	heads := map[string][]float64{
		"first": {nan, 3, 1, 2},
		"only":  {nan},
		"every": {nan, nan, nan},
		"mid":   {2, nan, 5, nan},
	}
	for _, sealed := range []int{0, blockPoints} {
		for name, head := range heads {
			t.Run(fmt.Sprintf("sealed%d/%s", sealed, name), func(t *testing.T) {
				s := NewSeries(DefaultCapacity)
				ref := newRefRing(DefaultCapacity)
				now := time.Duration(0)
				put := func(v float64) {
					now += time.Second
					s.Append(now, v)
					ref.append(now, v)
				}
				for i := 0; i < sealed; i++ {
					put(float64(i % 7))
				}
				for _, v := range head {
					put(v) // the first of these closes the full block
				}
				if int(s.open.count) != len(head) || len(testBlocks(s)) != sealed/blockPoints {
					t.Fatalf("open block holds %d points behind %d blocks, want %d behind %d",
						int(s.open.count), len(testBlocks(s)), len(head), sealed/blockPoints)
				}
				checkDifferential(t, s, ref, rand.New(rand.NewSource(1)), now, &diffTally{})
			})
		}
	}
}

func randWindow(rng *rand.Rand, now time.Duration) (time.Duration, time.Duration) {
	switch rng.Intn(8) {
	case 0:
		return 0, now + time.Hour // everything
	case 1:
		hi := time.Duration(rng.Int63n(int64(now) + 1))
		return hi + time.Second, hi // inverted: empty
	default:
		a := time.Duration(rng.Int63n(int64(now) + 1))
		b := time.Duration(rng.Int63n(int64(now) + 1))
		if a > b {
			a, b = b, a
		}
		return a, b
	}
}

func distinctTimestamps(pts []Point) int {
	n := 0
	for i, p := range pts {
		if i == 0 || p.T != pts[i-1].T {
			n++
		}
	}
	return n
}

// fitCondition is the condition number of a least-squares fit's
// determinant n·Σx² − (Σx)²: how much the subtraction amplifies the
// sums' rounding. It explodes when the window's time spread is tiny
// against its offset from zero.
func fitCondition(pts []Point) float64 {
	var sumX, sumXX float64
	for _, p := range pts {
		x := p.T.Hours()
		sumX += x
		sumXX += x * x
	}
	n := float64(len(pts))
	return n * sumXX / math.Abs(n*sumXX-sumX*sumX)
}

// trendClose tolerates least-squares cancellation amplified by moment
// merging: slopes must agree to 1e-6 relative (or absolutely when tiny).
func trendClose(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-6*scale || math.Abs(a-b) <= 1e-9
}

// TestSummaryFastPath pins the acceptance criterion that Stats over a
// long series is answered from summaries: a full-range query must decode
// zero blocks and — the open block answering from its running summary
// like a closed one — allocate nothing, and a narrow window must decode
// at most the two straddling blocks (plus the trimmed front block when
// eviction has started). Trend merges the closed blocks' moments the same
// way and decodes the open block, which has none until it closes.
func TestSummaryFastPath(t *testing.T) {
	const capacity = 16 * blockPoints
	s := NewSeries(capacity)
	for i := 0; i < capacity; i++ {
		s.Append(time.Duration(i)*time.Second, float64(i%17))
	}
	full := time.Duration(capacity) * time.Second

	d0, h0 := mDecodes.Load(), mSummaryHits.Load()
	st := s.Stats(0, full)
	if st.N != capacity {
		t.Fatalf("Stats.N = %d, want %d", st.N, capacity)
	}
	if dec := mDecodes.Load() - d0; dec != 0 {
		t.Fatalf("full-range Stats decoded %d blocks, want 0 (summary path)", dec)
	}
	// 15 closed blocks, and the final blockPoints points still in the
	// open block: its summary merges like a 16th block's.
	if hits := mSummaryHits.Load() - h0; hits != 16 {
		t.Fatalf("full-range Stats summary hits = %d, want 16", hits)
	}

	// A window straddling two blocks: exactly those two decode.
	d0 = mDecodes.Load()
	mid := time.Duration(blockPoints) * time.Second
	s.Stats(mid-10*time.Second, mid+10*time.Second)
	if dec := mDecodes.Load() - d0; dec != 2 {
		t.Fatalf("straddling Stats decoded %d blocks, want 2", dec)
	}

	// Trend rides the closed blocks' moments: full range decodes the open
	// block only, and a window that ends before it nothing.
	d0 = mDecodes.Load()
	if _, ok := s.Trend(0, full); !ok {
		t.Fatal("Trend not ok")
	}
	if dec := mDecodes.Load() - d0; dec != 1 {
		t.Fatalf("full-range Trend decoded %d blocks, want 1 (the open block)", dec)
	}
	d0 = mDecodes.Load()
	if _, ok := s.Trend(0, time.Duration(15*blockPoints-1)*time.Second); !ok {
		t.Fatal("Trend not ok")
	}
	if dec := mDecodes.Load() - d0; dec != 0 {
		t.Fatalf("closed-chain Trend decoded %d blocks, want 0", dec)
	}

	// Stats never copies the open block when it is wholly inside the
	// window, and Trend copies it into stack scratch: both queries are
	// allocation-free.
	if allocs := testing.AllocsPerRun(100, func() { s.Stats(0, full) }); allocs != 0 {
		t.Fatalf("full-range Stats allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Trend(0, full) }); allocs != 0 {
		t.Fatalf("full-range Trend allocates %.1f times, want 0 (the open block's copy is on the stack)", allocs)
	}
	// Tail and Downsample append to the caller's slice: with room in it,
	// a chart's or the history verb's read allocates nothing either.
	pts := make([]Point, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() { pts = s.Tail(pts[:0], 50) }); allocs != 0 || len(pts) != 50 {
		t.Fatalf("Tail(50) into room allocates %.1f times and returns %d points, want 0 and 50", allocs, len(pts))
	}
	if allocs := testing.AllocsPerRun(100, func() { pts = s.Downsample(pts[:0], 0, full, 60) }); allocs != 0 || len(pts) != 60 {
		t.Fatalf("Downsample(60) into room allocates %.1f times and returns %d buckets, want 0 and 60", allocs, len(pts))
	}

	// Once eviction trims the front block, it is the only extra decode.
	s.Append(time.Duration(capacity)*time.Second, 1)
	d0 = mDecodes.Load()
	s.Stats(0, full+time.Hour)
	if dec := mDecodes.Load() - d0; dec != 1 {
		t.Fatalf("trimmed-front Stats decoded %d blocks, want 1", dec)
	}
}

// TestConcurrentReaderAcrossClose races every point query against a
// writer that crosses two block closes and starts evicting. The values
// are a function of the timestamp, so whatever instant a reader catches —
// mid-append, a block just closed, the buffer just rewound — its points
// must be a run of consecutive seconds ending at a point the writer had
// appended, each with its own value. Under -race this is the reader
// snapshot rule's test: nothing decodes the live buffer.
func TestConcurrentReaderAcrossClose(t *testing.T) {
	const capacity, appends = blockPoints + 100, 3 * blockPoints
	st := NewStore(capacity)
	val := func(i int) float64 { return float64(i%600) / 100 }
	st.Append("n", "m", 0, val(0))
	s := st.Series("n", "m")
	closes0 := mSealed.Load()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			check := func(what string, pts []Point) {
				for i, p := range pts {
					sec := int(p.T / time.Second)
					if p.V != val(sec) || i > 0 && p.T != pts[i-1].T+time.Second {
						t.Errorf("%s[%d] = %v after %v", what, i, p, pts[max(i-1, 0)])
						return
					}
				}
			}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch (i + r) % 4 {
				case 0:
					pts := s.Range(math.MinInt64, math.MaxInt64)
					if len(pts) == 0 || len(pts) > capacity {
						t.Errorf("Range holds %d points", len(pts))
					}
					check("Range", pts)
				case 1:
					check("Tail", s.Tail(nil, blockPoints/2+i%blockPoints))
				case 2:
					s.Trend(0, time.Duration(appends)*time.Second)
					s.Downsample(nil, 0, time.Duration(appends)*time.Second, 16)
				case 3:
					var buf bytes.Buffer
					back := NewStore(capacity)
					if err := st.SaveTo(&buf); err != nil {
						t.Error(err)
					} else if err := back.LoadFrom(&buf); err != nil {
						t.Error(err)
					} else {
						check("SaveTo", back.Series("n", "m").Range(math.MinInt64, math.MaxInt64))
					}
				}
			}
		}(r)
	}
	for i := 1; i < appends; i++ {
		s.Append(time.Duration(i)*time.Second, val(i))
	}
	close(done)
	wg.Wait()
	if closes := mSealed.Load() - closes0; closes < 2 || s.Len() != capacity {
		t.Fatalf("writer crossed %d closes and holds %d points, want >= 2 and %d", closes, s.Len(), capacity)
	}
}
