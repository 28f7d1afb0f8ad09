package history

import (
	"fmt"
	"math"
	"math/rand"
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

// TestDifferentialEngineVsNaiveRing drives random append/query sequences
// against the compressed block engine and the naive reference ring,
// asserting identical Range/Stats/Downsample/Trend/Len/Last results —
// including across seal boundaries, point-exact eviction, out-of-order
// drops, and NaN/±Inf/denormal values. Mean and Trend tolerate the
// reassociation drift inherent to O(blocks) summary merging; everything
// else must match exactly. The capacities sit on both sides of every
// head growth step (8, 32, 128, 512), where the head's full size is set
// by retention rather than by headCapacity. Each runs twice: the
// adversarial stream, and a tame one whose every Mean is finite, so long
// windows check the merged sums and not just NaN against NaN.
func TestDifferentialEngineVsNaiveRing(t *testing.T) {
	capacities := []int{1, 5, 7, 8, 9, 10, 31, 32, 33, 100, 511, 513, 600, 1500, 4096}
	streams := []struct {
		name     string
		specials []float64
	}{{"adversarial", specialValues}, {"tame", tameValues}}
	for _, capacity := range capacities {
		for _, stream := range streams {
			t.Run(fmt.Sprintf("cap%d/%s", capacity, stream.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(0xC0FFEE + capacity)))
				s := NewSeries(capacity)
				ref := newRefRing(capacity)
				now := time.Duration(0)
				appends := 0
				var tally diffTally
				for round := 0; round < 40; round++ {
					// A burst of appends: mostly monotone with jittered
					// cadence, some equal timestamps, occasional out-of-order
					// (dropped by both), values quantized with specials mixed in.
					burst := rng.Intn(3*headCapacity/2) + 1
					for i := 0; i < burst; i++ {
						var step time.Duration
						switch rng.Intn(10) {
						case 0:
							step = 0 // equal timestamp: allowed
						case 1:
							step = -time.Duration(rng.Intn(5000)+1) * time.Millisecond // out of order: dropped
						default:
							step = time.Duration(rng.Intn(2000)+1) * time.Millisecond
						}
						ts := now + step
						if step > 0 {
							now = ts
						}
						var v float64
						switch rng.Intn(8) {
						case 0:
							v = stream.specials[rng.Intn(len(stream.specials))]
						case 1:
							v = rng.NormFloat64() * 1e6
						default:
							v = 40 + float64(rng.Intn(64))*0.5 // quantized monitor reading
						}
						s.Append(ts, v)
						ref.append(ts, v)
						appends++
					}
					checkDifferential(t, s, ref, rng, now, &tally)
				}
				if appends <= capacity {
					t.Fatalf("generator never exercised eviction (appends=%d cap=%d)", appends, capacity)
				}
				// The carve-outs stay the exception: no Mean on the tame
				// stream and under a fifth of the adversarial one's, and
				// a Trend in a hundred.
				if tally.cancelled*5 > tally.compared || stream.name == "tame" && tally.cancelled > 0 ||
					tally.illFit*100 > tally.compared {
					t.Fatalf("carve-outs are not the exception: %+v", tally)
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
		if !gotOK || gotLast.T != wantLast.T || !eqVal(gotLast.V, wantLast.V) {
			t.Fatalf("Last = %v,%v want %v", gotLast, gotOK, wantLast)
		}
	}
	// Tail: the newest n points, for n inside the head, across sealed
	// blocks, at the trimmed front and past everything stored.
	for _, n := range []int{0, 1, rng.Intn(headCapacity) + 1, rng.Intn(ref.size+1) + 1, ref.size, ref.size + 3} {
		got := s.Tail(n)
		if want := min(n, ref.size); len(got) != want {
			t.Fatalf("Tail(%d) len %d, want %d", n, len(got), want)
		}
		for i, p := range got {
			if w := ref.at(ref.size - len(got) + i); p.T != w.T || !eqVal(p.V, w.V) {
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
			if gotR[i].T != wantR[i].T || !eqVal(gotR[i].V, wantR[i].V) {
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
		gotD, wantD := s.Downsample(t0, t1, n), ref.downsample(t0, t1, n)
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

// headWindows returns query windows placed against the series' mutable
// head, whose running summary answers Stats/Trend only when the window
// holds all of it: windows that contain it (exactly, and with the sealed
// chain), cut it at either end, and miss it on either side.
func headWindows(s *Series) [][2]time.Duration {
	s.mu.Lock()
	n := s.headLen
	first, last := time.Duration(s.headSum.firstT), time.Duration(s.headSum.lastT)
	s.mu.Unlock()
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

// TestDifferentialHeadNaN pins the running head summary against the
// scan for the NaN placements that decide Min/Max initialization: NaN
// as the head's first value, its only value, and every value — on a
// young series with no sealed block and behind a sealed one.
func TestDifferentialHeadNaN(t *testing.T) {
	nan := math.NaN()
	heads := map[string][]float64{
		"first": {nan, 3, 1, 2},
		"only":  {nan},
		"every": {nan, nan, nan},
		"mid":   {2, nan, 5, nan},
	}
	for _, sealed := range []int{0, headCapacity} {
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
					put(v) // the first of these seals the full head
				}
				if s.headLen != len(head) || len(s.blocks) != sealed/headCapacity {
					t.Fatalf("head holds %d points behind %d blocks, want %d behind %d",
						s.headLen, len(s.blocks), len(head), sealed/headCapacity)
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
// zero blocks and — the head answering from its running summary like a
// sealed block — allocate nothing, and a narrow window must decode at
// most the two straddling blocks (plus the trimmed front block when
// eviction has started).
func TestSummaryFastPath(t *testing.T) {
	const capacity = 16 * headCapacity
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
	// 15 sealed blocks, and the final headCapacity points still in the
	// mutable head: its summary merges like a 16th block's.
	if hits := mSummaryHits.Load() - h0; hits != 16 {
		t.Fatalf("full-range Stats summary hits = %d, want 16", hits)
	}

	// A window straddling two blocks: exactly those two decode.
	d0 = mDecodes.Load()
	mid := time.Duration(headCapacity) * time.Second
	s.Stats(mid-10*time.Second, mid+10*time.Second)
	if dec := mDecodes.Load() - d0; dec != 2 {
		t.Fatalf("straddling Stats decoded %d blocks, want 2", dec)
	}

	// Trend rides the same moments: full range decodes nothing.
	d0 = mDecodes.Load()
	if _, ok := s.Trend(0, full); !ok {
		t.Fatal("Trend not ok")
	}
	if dec := mDecodes.Load() - d0; dec != 0 {
		t.Fatalf("full-range Trend decoded %d blocks, want 0", dec)
	}

	// Neither copies the head: with it wholly inside the window the whole
	// query is allocation-free.
	if allocs := testing.AllocsPerRun(100, func() { s.Stats(0, full) }); allocs != 0 {
		t.Fatalf("full-range Stats allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Trend(0, full) }); allocs != 0 {
		t.Fatalf("full-range Trend allocates %.1f times, want 0", allocs)
	}

	// Once eviction trims the front block, it is the only extra decode.
	s.Append(time.Duration(capacity)*time.Second, 1)
	d0 = mDecodes.Load()
	s.Stats(0, full+time.Hour)
	if dec := mDecodes.Load() - d0; dec != 1 {
		t.Fatalf("trimmed-front Stats decoded %d blocks, want 1", dec)
	}
}
