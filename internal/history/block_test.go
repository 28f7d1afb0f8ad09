package history

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// encodePoints packs the pair of arrays the way a series' open block
// does, into a buffer big enough for any code, and returns the bytes a
// closed block would hold. Timestamps need not be monotone — the grammar
// round-trips any sequence; ordering is the Series' concern.
func encodePoints(ts []int64, vs []float64) []byte {
	o := openBlock{buf: make([]byte, 0, len(ts)*pointReserve)}
	for i := range ts {
		if !o.room() {
			panic("encodePoints: pointReserve is shorter than a point's code")
		}
		o.put(ts[i], vs[i])
	}
	return o.bytes()
}

// roundtrip encodes the pair of arrays and decodes them back, failing on
// any bit-level mismatch (values compare as raw bits, so NaN payloads
// and signed zeros count).
func roundtrip(t *testing.T, ts []int64, vs []float64) {
	t.Helper()
	data := encodePoints(ts, vs)
	it := newPointIter(data, len(ts))
	for i := range ts {
		gt, gv, ok := it.next()
		if !ok {
			t.Fatalf("decode stopped at point %d/%d", i, len(ts))
		}
		if gt != ts[i] {
			t.Fatalf("point %d: t = %d, want %d", i, gt, ts[i])
		}
		if math.Float64bits(gv) != math.Float64bits(vs[i]) {
			t.Fatalf("point %d: v = %x, want %x", i, math.Float64bits(gv), math.Float64bits(vs[i]))
		}
	}
	if _, _, ok := it.next(); ok {
		t.Fatal("decode produced extra points")
	}
	if it.failed() {
		t.Fatal("clean stream reported failure")
	}
}

func TestBlockCodecRoundtrip(t *testing.T) {
	sec := int64(time.Second)
	cases := []struct {
		name string
		ts   []int64
		vs   []float64
	}{
		{"single", []int64{42}, []float64{1.5}},
		{"fixed cadence repeated value", []int64{0, sec, 2 * sec, 3 * sec}, []float64{7, 7, 7, 7}},
		{"fixed cadence ramp", []int64{0, sec, 2 * sec, 3 * sec}, []float64{1, 2, 3, 4}},
		{"jittered cadence", []int64{0, sec + 17, 2*sec - 3000, 3*sec + 999999}, []float64{0.1, 0.2, 0.30000001, -5}},
		{"specials", []int64{0, 1, 2, 3, 4, 5, 6},
			[]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, math.MaxFloat64}},
		{"out of order timestamps", []int64{100, 5, -30, math.MaxInt64, math.MinInt64, 0}, []float64{1, 2, 3, 4, 5, 6}},
		{"equal timestamps", []int64{9, 9, 9}, []float64{1, 1, 2}},
		{"100 ms grid, an excursion, a whole second", []int64{0, 3 * sec / 10, 5 * sec / 10, 5*sec/10 + 17, 9 * sec / 10, 19 * sec / 10, 19 * sec / 10},
			[]float64{1, 2, 3, 4, 5, 6, 7}},
		{"grid stamps near ±2^62", []int64{-1 << 62, -1<<62 + sec, 1<<62 - sec, 1 << 62, 1<<62 - 5*sec, 0}, []float64{1, 2, 3, 4, 5, 6}},
		{"a gap past the 32-bit tier at e=9", []int64{0, sec, 2 * sec, 2*sec + 1<<33*sec, 3*sec + 1<<33*sec}, []float64{1, 1, 1, 1, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { roundtrip(t, c.ts, c.vs) })
	}
}

func TestBlockCodecLong(t *testing.T) {
	// A monitor-shaped stream: 1 s cadence with occasional jitter,
	// quantized values that dwell and step, plus special values mixed in.
	n := 4096
	ts := make([]int64, n)
	vs := make([]float64, n)
	cur := int64(0)
	for i := 0; i < n; i++ {
		cur += int64(time.Second)
		if i%97 == 0 {
			cur += int64(i%7) * int64(time.Millisecond)
		}
		ts[i] = cur
		switch {
		case i%503 == 0:
			vs[i] = math.NaN()
		case i%701 == 0:
			vs[i] = math.Inf(1)
		default:
			vs[i] = 40 + float64((i/64)%32)*0.5
		}
	}
	data := encodePoints(ts, vs)
	roundtrip(t, ts, vs)
	if perSample := float64(len(data)) / float64(n); perSample > 2.0 {
		t.Fatalf("monitor-shaped stream encodes at %.2f B/sample, want <= 2", perSample)
	}
}

func TestBlockIterTruncated(t *testing.T) {
	ts := []int64{0, int64(time.Second), 2 * int64(time.Second)}
	vs := []float64{1, 2, 3}
	data := encodePoints(ts, vs)
	for cut := 0; cut < len(data); cut++ {
		it := newPointIter(data[:cut], len(ts))
		n := 0
		for {
			_, _, ok := it.next()
			if !ok {
				break
			}
			n++
		}
		if n >= len(ts) && cut < len(data)-1 {
			t.Fatalf("cut %d still decoded %d points", cut, n)
		}
	}
}

// hostileStamp returns a block whose first stamp is the quotient q in its
// writeDoD tier behind an exponent-change field of e, then zeros: what no
// encoder writes when e is past maxStampExp or q·10^e is no int64.
func hostileStamp(q int64, e uint64) []byte {
	var w bitWriter
	writeDoD(&w, q)
	w.writeBits(e, 5)
	w.writeBits(0, 64)
	return w.bytes()
}

// TestBlockIterCorruptTerminates feeds garbage bytes with an inflated
// count: iteration must stop (error or exhaustion), never loop or panic.
// The stamps only a corrupt stream holds — an exponent field of 10 to 15,
// a quotient whose scaled product overflows — fail the reader at once.
func TestBlockIterCorruptTerminates(t *testing.T) {
	payloads := [][]byte{
		{},
		{0xFF},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A},
	}
	for _, p := range [][]byte{hostileStamp(5, 10), hostileStamp(5, 15), hostileStamp(1<<62, 9), hostileStamp(-1<<62, 1)} {
		it := newPointIter(p, 4)
		if _, _, ok := it.next(); ok || !it.failed() {
			t.Fatalf("hostile stamp % x decoded (ok=%v failed=%v)", p[:10], ok, it.failed())
		}
		payloads = append(payloads, p)
	}
	it := newPointIter(hostileStamp(math.MaxInt64/1_000_000_000, 9), 1)
	if _, _, ok := it.next(); !ok {
		t.Fatal("the largest quotient that fits at e=9 was refused")
	}
	for _, p := range payloads {
		it := newPointIter(p, 1<<16)
		n := 0
		for {
			if _, _, ok := it.next(); !ok {
				break
			}
			if n++; n > 1<<16 {
				t.Fatal("iterator exceeded its count bound")
			}
		}
	}
}

// stampBits encodes ts with the stamp code and returns the stream's
// length in bits, the exponent the encoder held after each stamp, and the
// stream.
func stampBits(ts []int64) (bits int, exps []uint8, data []byte) {
	var w bitWriter
	var s DoDState
	var exp uint8
	for _, t := range ts {
		writeStamp(&w, &s, &exp, t)
		exps = append(exps, exp)
	}
	bits = len(w.buf)*8 + int(w.nacc)
	return bits, exps, w.bytes()
}

// mixedStamps is a seeded stream that visits every regime of the stamp
// code: a grid of 10^g ns held for a while, fixed cadences and varying
// gaps on it, equal stamps, off-grid excursions, steps back, and jumps of
// any size up to the whole int64 range.
func mixedStamps(rng *rand.Rand, n int) []int64 {
	ts := make([]int64, n)
	now, grid := int64(0), int64(1)
	for i := range ts {
		if rng.Intn(50) == 0 {
			grid = stampPow10[rng.Intn(len(stampPow10))]
		}
		switch r := rng.Intn(20); {
		case r < 6:
			now += grid * 10
		case r < 12:
			now += grid * int64(rng.Intn(1000)+1)
		case r == 12:
			// an equal stamp
		case r == 13:
			now += rng.Int63n(1_000_000_000) // off every grid
		case r == 14:
			now -= now % grid // back onto it
		case r == 15:
			now -= grid * int64(rng.Intn(100))
		case r == 16 && rng.Intn(10) == 0:
			now = int64(rng.Uint64()) // anywhere at all
		default:
			now += grid << uint(rng.Intn(40))
		}
		ts[i] = now
	}
	return ts
}

// TestStampCodeProperties pins what the stamp code promises beyond
// round-tripping (TestBlockCodecRoundtrip, the differential grid stream).
func TestStampCodeProperties(t *testing.T) {
	// The longest point — a stamp in the 64-bit tier that its stream's
	// exponent does not divide, a value whose XOR needs a new 64-bit
	// window — is 73 + 78 bits, and behind 7 pending bits fills
	// pointReserve bytes to the last two bits: the reserve is enough, and
	// nothing shorter would be.
	o := openBlock{buf: make([]byte, 0, pointReserve), npend: 7, exp: maxStampExp}
	o.put(1<<62+1, math.Float64frombits(1<<63|1))
	if got := len(o.buf)*8 + int(o.npend); got != 7+73+78 || got > pointReserve*8 || got <= (pointReserve-1)*8 || o.exp != 0 {
		t.Fatalf("the longest point ends at bit %d (exponent %d), want 158 of the reserve's %d (exponent 0)", got, o.exp, pointReserve*8)
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 10_000; i++ {
		o := openBlock{buf: make([]byte, 0, pointReserve), npend: 7, exp: uint8(rng.Intn(maxStampExp + 1))}
		o.put(int64(rng.Uint64())>>uint(rng.Intn(64)), math.Float64frombits(rng.Uint64()))
		if got := len(o.bytes()); got > pointReserve {
			t.Fatalf("a point took %d B, pointReserve is %d", got, pointReserve)
		}
	}

	// A stream on no grid — no delta-of-delta a multiple of ten — stays at
	// exponent 0 and pays exactly the keep bit per non-zero dod over the
	// plain code.
	var plain BitWriter
	var ps DoDState
	offGrid := make([]int64, 5000)
	now, delta, nonZero := int64(0), int64(0), 0
	for i := range offGrid {
		if dod := rng.Int63n(1<<uint(rng.Intn(40)+1)) - 1<<20; dod%10 != 0 && rng.Intn(4) != 0 {
			delta += dod
			nonZero++
		}
		now += delta
		offGrid[i] = now
		plain.WriteDoD(&ps, now)
	}
	bits, exps, _ := stampBits(offGrid)
	if want := len(plain.w.buf)*8 + int(plain.w.nacc) + nonZero; bits != want || slices.Max(exps) != 0 {
		t.Fatalf("an off-grid stream of %d non-zero dods took %d bits at exponents up to %d, want %d (plain + 1 each) at 0",
			nonZero, bits, slices.Max(exps), want)
	}

	// A stream on a 100 ms grid that leaves it for one stamp: the three
	// dods the stray stamp touches go out at exponent 0, the next is back
	// at 8.
	const step = int64(100 * time.Millisecond)
	var grid []int64
	for i := int64(0); i < 12; i++ {
		grid = append(grid, i*i*step) // gaps that differ, so no dod is 0
	}
	grid[6] += 1234567
	_, exps, _ = stampBits(grid)
	if want := []uint8{8, 8, 8, 8, 8, 0, 0, 0, 8, 8, 8}; !slices.Equal(exps[1:], want) {
		t.Fatalf("exponents across an excursion at stamp 6: %v, want 0 at stamps 6 to 8 and 8 around them", exps)
	}

	// Over mixed streams the decoder ends every stamp at the exponent the
	// encoder did, and at its timestamp.
	for seed := int64(0); seed < 10_000; seed++ {
		ts := mixedStamps(rand.New(rand.NewSource(seed)), 64)
		_, exps, data := stampBits(ts)
		r := bitReader{data: data}
		var s DoDState
		var exp uint8
		for i, want := range ts {
			if got := readStamp(&r, &s, &exp); got != want || exp != exps[i] || r.err {
				t.Fatalf("seed %d stamp %d: decoded %d at exponent %d (failed=%v), encoded %d at %d", seed, i, got, exp, r.err, want, exps[i])
			}
		}
	}
}

// summarize folds a run of points (at most blockPoints) through the open
// block.
func summarize(ts []int64, vs []float64) summary {
	o := openBlock{buf: make([]byte, 0, len(ts)*pointReserve)}
	for i, t := range ts {
		o.put(t, vs[i])
	}
	return o.summary(o.first())
}

func TestSummarizeNaNSemantics(t *testing.T) {
	// minV/maxV skip NaN: a NaN mid-block must not poison the aggregate
	// (firstV carries the naive init semantics at query time).
	ts := []int64{1, 2, 3}
	s := summarize(ts, []float64{3, math.NaN(), 1})
	if s.minV != 1 || s.maxV != 3 {
		t.Fatalf("min/max = %v/%v, want 1/3", s.minV, s.maxV)
	}
	if !math.IsNaN(s.sumV) {
		t.Fatalf("sumV = %v, want NaN", s.sumV)
	}
	all := summarize(ts, []float64{math.NaN(), math.NaN(), math.NaN()})
	if !math.IsNaN(all.minV) || !math.IsNaN(all.maxV) {
		t.Fatalf("all-NaN block min/max = %v/%v, want NaN", all.minV, all.maxV)
	}
	if s.firstT != 1 || s.lastT != 3 || s.count != 3 {
		t.Fatalf("bounds = %+v", s)
	}
}
