package history

import (
	"math"
	"testing"
	"time"
)

// encodePoints packs the pair of arrays the way a series' open block
// does, into a buffer big enough for any code, and returns the bytes a
// closed block would hold. Timestamps need not be monotone — the grammar
// round-trips any sequence; ordering is the Series' concern.
func encodePoints(ts []int64, vs []float64) []byte {
	var o openBlock
	o.w.Reset(make([]byte, len(ts)*pointReserve))
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

// TestBlockIterCorruptTerminates feeds garbage bytes with an inflated
// count: iteration must stop (error or exhaustion), never loop or panic.
func TestBlockIterCorruptTerminates(t *testing.T) {
	payloads := [][]byte{
		{},
		{0xFF},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A},
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

// summarize folds a run of points the way the open block does.
func summarize(ts []int64, vs []float64) summary {
	var s summary
	for i, t := range ts {
		s.add(t, vs[i])
	}
	return s
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
