package history

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"testing"
	"unsafe"
)

// The root's batch decoder holds one ValueState per (node, metric) pair;
// growing it moves server_heap_mb.
func TestValueStateSize(t *testing.T) {
	if got := unsafe.Sizeof(ValueState{}); got != 16 {
		t.Fatalf("ValueState is %d bytes, want 16", got)
	}
}

// xorRef is the plain Gorilla XOR value stream the wire used before the
// decimal mode (and sealed blocks still use), reduced to its bit count:
// the reference the "never more than one bit worse" bound is checked
// against.
type xorRef struct {
	bits              uint64
	leading, trailing int
	hasWin            bool
}

func (s *xorRef) cost(cur uint64) int {
	xor := cur ^ s.bits
	s.bits = cur
	if xor == 0 {
		return 1
	}
	lz := min(bits.LeadingZeros64(xor), 31)
	tz := bits.TrailingZeros64(xor)
	if s.hasWin && lz >= s.leading && tz >= s.trailing {
		return 2 + 64 - s.leading - s.trailing
	}
	s.leading, s.trailing, s.hasWin = lz, tz, true
	return 2 + 5 + 6 + 64 - lz - tz
}

func (w *BitWriter) bitLen() int { return len(w.w.buf)*8 + int(w.w.nacc) }

// checkValueStream pushes the bit patterns through one encoder state and
// back through one decoder state, both starting from start, and checks
// the three properties the wire relies on: every pattern comes back bit
// for bit, both ends finish in the same state, and no value costs more
// than its plain XOR code plus the mode bit.
func checkValueStream(t *testing.T, start ValueState, stream []uint64) {
	t.Helper()
	var w BitWriter
	w.Reset(nil)
	enc := start
	ref := xorRef{bits: start.bits, leading: int(start.leading), trailing: int(start.trailing), hasWin: start.hasWin}
	for i, cur := range stream {
		before := w.bitLen()
		changed := cur != enc.bits
		w.WriteValue(&enc, math.Float64frombits(cur))
		got, old := w.bitLen()-before, ref.cost(cur)
		if !changed && got != 1 {
			t.Fatalf("value %d (%#x): unchanged value took %d bits", i, cur, got)
		}
		if got > old+1 {
			t.Fatalf("value %d (%#x): %d bits, plain XOR %d", i, cur, got, old)
		}
	}
	var r BitReader
	r.Reset(w.Bytes())
	dec := start
	for i, want := range stream {
		v, ok := r.ReadValue(&dec)
		if !ok {
			t.Fatalf("value %d (%#x): decode failed", i, want)
		}
		if got := math.Float64bits(v); got != want {
			t.Fatalf("value %d: got %#x (%v), want %#x (%v)", i, got, v, want, math.Float64frombits(want))
		}
	}
	if enc != dec {
		t.Fatalf("states diverged: encoder %+v, decoder %+v", enc, dec)
	}
}

func f64s(vs ...float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

func TestValueCodecRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name   string
		stream []uint64
	}{
		{"loadavg", f64s(0.42, 0.57, 0.57, 0.5, 1.03, 12.9, 0)},
		{"percent one decimal", f64s(99.9, 100, 0.1, 0.3, 55.5)},
		{"counters", f64s(1048576, 1048580, 1048580, 4294967296, 9007199254740992, 3)},
		{"2^53 edges", f64s(1<<53, 1<<53+2, -(1 << 53), -(1<<53 + 2), 1<<53-1, -(1<<53 - 1))},
		{"exponent up and down", f64s(1, 1.5, 1.25, 1.125, 1.0625, 2, 1e-7, 3e-7, 1e-8, 7)},
		{"not decimal", f64s(0.1+0.2, 0.3, 1.0/3, math.Pi, 0.30000000000000004, 0.3)},
		{"specials", f64s(math.NaN(), 1.5, math.Inf(1), 2.5, math.Inf(-1), negZero, 0, negZero, 5e-324, -5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64)},
		{"NaN payloads", []uint64{0x7ff8000000000001, 0x7ff0000000000001, 0xfff8dead0000beef, 0x7ff8000000000001, math.Float64bits(0.25), 0xffffffffffffffff}},
		{"mode switches", f64s(0.42, math.Pi, 0.43, math.E, math.E, 0.44, 1e300, 0.45, negZero, 0.46)},
		{"negative decimals", f64s(-0.01, 0.01, -273.15, -273.16, 40, -40)},
		{"large then small", f64s(123456789.25, 0.25, 123456789.25, 900719925474.0991, 0.01)},
	}
	// Each stream runs from the reset state and from states a previous
	// stream could have left behind, including a NaN predecessor (whose
	// decimal prediction is undefined and must fall back to zero).
	starts := []ValueState{
		{},
		{bits: math.Float64bits(0.57), exp: 2},
		{bits: math.Float64bits(math.NaN()), exp: 7, leading: 12, trailing: 40, hasWin: true},
		{bits: math.Float64bits(-1e300), exp: 3, leading: 0, trailing: 0, hasWin: true},
		{bits: math.Float64bits(negZero), exp: 1, leading: 31, trailing: 32, hasWin: true},
	}
	for _, tc := range cases {
		for i, st := range starts {
			t.Run(fmt.Sprintf("%s/start%d", tc.name, i), func(t *testing.T) {
				checkValueStream(t, st, tc.stream)
			})
		}
	}
}

// What the decimal mode is for: a changed two-decimal reading costs a
// couple of bytes, not the eight-plus its XOR code does.
func TestValueCodecDecimalIsShort(t *testing.T) {
	var w BitWriter
	w.Reset(nil)
	var s ValueState
	w.WriteValue(&s, 0.42)
	before := w.bitLen()
	w.WriteValue(&s, 0.57)
	if got := w.bitLen() - before; got > 16 {
		t.Fatalf("0.42 → 0.57 took %d bits, want ≤ 16", got)
	}
	if s.exp != 2 {
		t.Fatalf("stream exponent %d, want 2", s.exp)
	}
	// The exponent is sticky: 0.5 stays on the hundredths scale.
	before = w.bitLen()
	w.WriteValue(&s, 0.5)
	if got := w.bitLen() - before; got > 13 || s.exp != 2 {
		t.Fatalf("0.57 → 0.5 took %d bits at exponent %d, want ≤ 13 at 2", got, s.exp)
	}
}

// FuzzValueCodec drives the wire's value coder from both ends. The input
// is read as 9-byte records — a kind byte and 8 payload bytes — each
// yielding one float64 bit pattern: raw bits, or a decimal m/10^e so the
// decimal mode is reached as often as the XOR one — and the stream must
// round-trip within the size bound, each value against whatever state its
// predecessors left. The same bytes are then decoded as a hostile bit column, which must
// fail or finish without panicking.
func FuzzValueCodec(f *testing.F) {
	rec := func(kind byte, payload uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{kind}, payload)
	}
	seed := func(recs ...[]byte) {
		var b []byte
		for _, r := range recs {
			b = append(b, r...)
		}
		f.Add(b)
	}
	seed(rec(0, 0), rec(1|2<<2, 42), rec(1|2<<2, 57), rec(1|1<<2, 5), rec(0, math.Float64bits(math.Pi)))
	seed(rec(0, math.Float64bits(math.NaN())), rec(1, 1<<53), rec(1, ^uint64(0)), rec(0, 1<<63), rec(0, 1))
	seed(rec(0xff, 0x7ff8000000000001), rec(1|7<<2, 1), rec(1, 3), rec(0, math.Float64bits(math.Inf(-1))))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0xc0, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		var stream []uint64
		for recs := data; len(recs) >= 9 && len(stream) < 256; recs = recs[9:] {
			kind, payload := recs[0], binary.LittleEndian.Uint64(recs[1:])
			if kind&1 == 0 {
				stream = append(stream, payload)
				continue
			}
			m := int64(payload) >> (kind >> 5 * 8) // every magnitude, both signs
			stream = append(stream, math.Float64bits(float64(m)/pow10[kind>>2&7]))
		}
		checkValueStream(t, ValueState{}, stream)

		var r BitReader
		r.Reset(data)
		var s ValueState
		for i := 0; i < len(data)*8+1; i++ {
			if _, ok := r.ReadValue(&s); !ok {
				if !r.Failed() {
					t.Fatal("ReadValue reported failure without failing the reader")
				}
				return
			}
		}
		t.Fatal("decoder read more values than the input has bits")
	})
}
