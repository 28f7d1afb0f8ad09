package history

// The bit column of the v2 wire frames (internal/transmit), and since
// the open block the history store's own block grammar (block.go):
// exported, allocation-free bit I/O plus the two per-stream coders a
// timestamp and a value go through. Timestamps take the delta-of-delta
// code — on the wire as it is, in a block scaled to the clock's grid
// (block.go's stamp code, which reuses DoDState and the tiers). Values do
// not take Gorilla XOR as is: a frame — and a series — carries only
// *changed* values, which is exactly where XOR is weakest, so the coder
// adds a decimal mode beside it (see ValueState).
//
// The wire streams one point per metric per frame and a series one point
// per append, so the per-stream prediction state must live across calls.
// ValueState and DoDState are plain structs whose zero value means "no
// history yet — emit relative to zero"; both sides of a connection reset
// them in lockstep (the v2 chain-reset rule), keeping encoder and decoder
// bit-exact without any handshake payload, and a block starts from them,
// so it decodes on its own.

import (
	"math"
	"math/bits"
)

// BitWriter is an MSB-first bit appender over a reusable byte buffer.
type BitWriter struct{ w bitWriter }

// Reset discards state and re-arms the writer over buf[:0], reusing its
// capacity.
func (w *BitWriter) Reset(buf []byte) {
	w.w.buf = buf[:0]
	w.w.acc = 0
	w.w.nacc = 0
}

// Bytes flushes any partial byte (zero-padded) and returns the encoded
// buffer. The writer must be Reset before further use.
func (w *BitWriter) Bytes() []byte { return w.w.bytes() }

// WriteBits appends the low n bits of v, most significant first.
func (w *BitWriter) WriteBits(v uint64, n uint) { w.w.writeBits(v, n) }

// BitReader is the matching MSB-first bit consumer.
type BitReader struct{ r bitReader }

// Reset re-arms the reader over data.
func (r *BitReader) Reset(data []byte) { r.r = bitReader{data: data} }

// ReadBits returns the next n bits, MSB-first; past the end it sticks in
// the failed state and returns 0.
func (r *BitReader) ReadBits(n uint) uint64 { return r.r.readBits(n) }

// Failed reports whether any read ran past the end of the data.
func (r *BitReader) Failed() bool { return r.r.err }

// Fail forces the failed state, for callers that detect an impossible
// decoded value (e.g. a window-reuse code before any window existed).
func (r *BitReader) Fail() { r.r.err = true }

// DoDState is one timestamp stream's delta-of-delta predictor. The zero
// value predicts from t=0 with delta 0, so the first timestamp after a
// reset is carried as a (large) dod — self-contained, no raw first-point
// special case on the wire.
type DoDState struct {
	Prev  int64
	Delta int64
}

// WriteDoD appends t delta-of-delta coded against the stream state.
func (w *BitWriter) WriteDoD(s *DoDState, t int64) {
	delta := t - s.Prev
	writeDoD(&w.w, delta-s.Delta)
	s.Delta = delta
	s.Prev = t
}

// ReadDoD decodes the next timestamp, advancing the stream state.
func (r *BitReader) ReadDoD(s *DoDState) int64 {
	dod := readDoD(&r.r)
	s.Delta += dod
	s.Prev += s.Delta
	return s.Prev
}

// ValueState is one value stream's predictor: the previous bit pattern,
// the Gorilla leading/trailing-zeros window, and the decimal exponent the
// stream last used. The zero value predicts 0.0 with no window and
// exponent 0. It is 16 bytes and must stay so: the root's batch decoder
// holds one per (node, metric) pair, which is why the decimal predictor
// is recomputed from bits on both ends instead of being stored.
type ValueState struct {
	bits     uint64
	leading  uint8
	trailing uint8
	hasWin   bool
	exp      uint8
}

// The value code. Monitors report short decimals — /proc/loadavg to two
// places, percentages, temperatures, kB and packet counters — whose
// float64 mantissas share almost no bits from one reading to the next, so
// a Gorilla XOR of a *changed* value costs more than the 8 raw bytes. A
// decimal is cheap as what it is: the integer m with v == m/10^e, sent as
// a difference from the previous value on the same scale. Per value:
//
//	0                                  unchanged
//	1 0 0 <window bits>                XOR, previous window reused
//	1 0 1 <lz:5> <sig-1:6> <sig bits>  XOR, new window
//	1 1 <E> <len:6> <len-1 bits>       decimal: E is 1 (the stream's last
//	                                   exponent) or 0 <e:3>; the payload is
//	                                   zigzag(m − round(prev·10^e)), its
//	                                   top set bit implied by len
//
// The encoder writes whichever of the two codes is shorter, and both
// ends advance the XOR window on every changed value whichever code
// carried it, so the window evolves exactly as in a pure XOR stream: a
// changed value never costs more than its XOR code plus the mode bit.
// NaN, ±Inf, −0, denormals and non-decimals simply fail the decimal
// probe and take the XOR code.

const (
	maxDecimalExp = 7       // 3-bit field
	maxDecimalMag = 1 << 53 // integers up to here are exact in a float64
)

var pow10 = [maxDecimalExp + 1]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7}

// scaleDecimal returns round(v·10^e), or ok=false when that is not an
// exactly representable integer (NaN, ±Inf, out of range). It depends on
// v's bits alone, so encoder and decoder derive the same predictor from
// the previous value without storing it. RoundToEven of a single product
// leaves the compiler nothing to fuse: the result is the same on every
// architecture.
func scaleDecimal(v float64, e uint8) (m int64, ok bool) {
	x := math.RoundToEven(v * pow10[e])
	if !(math.Abs(x) <= maxDecimalMag) {
		return 0, false
	}
	return int64(x), true
}

// decimalAt reports whether float64(m)/10^e, m = round(v·10^e), is v bit
// for bit (cur is v's bits). Division by an exact power of ten is
// correctly rounded, which is how a decimal string parses, so every value
// read from a short decimal qualifies at its own scale.
func decimalAt(v float64, cur uint64, e uint8) (m int64, ok bool) {
	m, ok = scaleDecimal(v, e)
	return m, ok && math.Float64bits(float64(m)/pow10[e]) == cur
}

// decimalOf finds the scale to send v at. The stream's last exponent is
// tried first: a "%.2f" metric that lands on 0.50 keeps e=2 instead of
// paying two exponent changes, and the steady state is one probe.
// Otherwise the smallest exponent that works wins.
func decimalOf(v float64, cur uint64, hint uint8) (e uint8, m int64, ok bool) {
	if m, ok = decimalAt(v, cur, hint); ok {
		return hint, m, true
	}
	for e = 0; e <= maxDecimalExp; e++ {
		if e == hint {
			continue
		}
		if m, ok = decimalAt(v, cur, e); ok {
			return e, m, true
		}
	}
	return 0, 0, false
}

// advanceWindow moves the XOR window past one changed value (xor != 0)
// and reports whether the previous window still fit.
func (s *ValueState) advanceWindow(xor uint64) (reuse bool) {
	lz := bits.LeadingZeros64(xor)
	if lz > 31 {
		lz = 31 // 5-bit field
	}
	tz := bits.TrailingZeros64(xor)
	if s.hasWin && lz >= int(s.leading) && tz >= int(s.trailing) {
		return true
	}
	s.leading, s.trailing, s.hasWin = uint8(lz), uint8(tz), true
	return false
}

// WriteValue appends v coded against the stream state.
func (w *BitWriter) WriteValue(s *ValueState, v float64) {
	cur := math.Float64bits(v)
	xor := cur ^ s.bits
	if xor == 0 {
		w.w.writeBit(0)
		return
	}
	prev := math.Float64frombits(s.bits)
	s.bits = cur
	reuse := s.advanceWindow(xor)
	width := uint(64 - int(s.leading) - int(s.trailing))
	xorLen := 1 + width
	if !reuse {
		xorLen += 5 + 6
	}
	if e, m, ok := decimalOf(v, cur, s.exp); ok {
		pm, _ := scaleDecimal(prev, e)
		d := m - pm
		zz := uint64(d<<1) ^ uint64(d>>63)
		n := uint(bits.Len64(zz))
		mag := n // payload bits: the top set bit is implied by n
		if mag > 0 {
			mag--
		}
		decLen := 1 + 6 + mag
		if e != s.exp {
			decLen += 3
		}
		if decLen < xorLen {
			if e == s.exp {
				w.w.writeBits(0b111, 3)
			} else {
				w.w.writeBits(0b110<<3|uint64(e), 6)
				s.exp = e
			}
			w.w.writeBits(uint64(n), 6)
			w.w.writeBits(zz, mag)
			return
		}
	}
	if reuse {
		w.w.writeBits(0b100, 3)
	} else {
		w.w.writeBits(0b101, 3)
		w.w.writeBits(uint64(s.leading), 5)
		w.w.writeBits(uint64(width-1), 6)
	}
	w.w.writeBits(xor>>s.trailing, width)
}

// ReadValue decodes the next value, advancing the stream state. ok is
// false on a truncated or impossible bit stream (the reader is then in
// the failed state).
func (r *BitReader) ReadValue(s *ValueState) (v float64, ok bool) {
	if r.r.readBit() == 0 {
		return math.Float64frombits(s.bits), !r.r.err
	}
	if r.r.readBit() == 1 {
		if r.r.readBit() == 0 {
			s.exp = uint8(r.r.readBits(3))
		}
		var zz uint64
		if n := uint(r.r.readBits(6)); n > 0 {
			zz = 1<<(n-1) | r.r.readBits(n-1)
		}
		pm, _ := scaleDecimal(math.Float64frombits(s.bits), s.exp)
		m := pm + (int64(zz>>1) ^ -int64(zz&1))
		cur := math.Float64bits(float64(m) / pow10[s.exp])
		xor := cur ^ s.bits
		if xor == 0 || r.r.err {
			// The changed bit promised a different value: corrupt input.
			r.r.err = true
			return 0, false
		}
		s.bits = cur
		s.advanceWindow(xor)
		return math.Float64frombits(cur), true
	}
	if r.r.readBit() == 1 {
		leading := int(r.r.readBits(5))
		sig := int(r.r.readBits(6)) + 1
		trailing := 64 - leading - sig
		if trailing < 0 {
			r.r.err = true
			return 0, false
		}
		s.leading, s.trailing, s.hasWin = uint8(leading), uint8(trailing), true
	} else if !s.hasWin {
		// Window-reuse code with no window defined: corrupt input.
		r.r.err = true
		return 0, false
	}
	width := uint(64 - int(s.leading) - int(s.trailing))
	s.bits ^= r.r.readBits(width) << s.trailing
	if r.r.err {
		return 0, false
	}
	return math.Float64frombits(s.bits), true
}
