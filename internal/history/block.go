package history

// The block grammar: Gorilla-style bit packing (Facebook's "Gorilla: A
// Fast, Scalable, In-Memory Time Series Database", VLDB 2015) adapted to
// this store's shape. A block is a run of points, each a stamp code — a
// delta-of-delta on the power-of-ten grid the clock ticks on, so an agent
// reporting on a fixed cadence costs one bit per sample and a stamp off
// the cadence costs what the clock's resolution carries (see writeStamp) —
// followed by the wire's value code (wirecodec.go): one bit for an
// unchanged reading, a short decimal difference for the changed two-place
// decimals monitors report, Gorilla XOR for everything else. Both
// predictors start from zero, so a block needs no raw first point and
// decodes on its own.
//
// A series appends straight into its open block in this form and closes
// it by copying the exact bytes out; closed blocks are never mutated, so
// queries decode them without any lock. Every float64 bit pattern (NaN,
// ±Inf, denormals) round-trips exactly, and decoding untrusted bytes
// (the persistence loader, the fuzzer) terminates with an error instead
// of panicking.

import (
	"encoding/binary"
	"math"
	"time"
)

// blockOverheadBytes is the accounted per-closed-block bookkeeping cost:
// the summary, the slice header, and the pointer in the chain. Used by
// the bytes gauge and the E19 bytes/sample measurement so compression
// numbers include their own metadata.
const blockOverheadBytes = 136

// summary is the aggregate of a block's points: everything Stats and
// Compare need so a block fully inside the query window is answered
// without decoding it. A closed block carries one; the open block folds
// every append into the fields its predictors do not already hold and
// fills one in when a query or the close asks (openBlock.summary).
//
// minV/maxV skip NaN values (NaN only if every value is NaN); combined
// with firstV-initialization at query time this reproduces exactly the
// result of the naive "init from first point, then strict <,> folds"
// scan, for any NaN placement.
type summary struct {
	count  int
	minV   float64
	maxV   float64
	sumV   float64
	firstT int64
	lastT  int64
	firstV float64
	lastV  float64
}

// moments are the least-squares sums over x = T.Hours(), y = V (Σy is
// the summary's sumV), so Trend merges closed blocks in O(1). They are
// folded when a block closes, not per append: decode order is append
// order, so the sums are the ones a running fold would have produced.
type moments struct {
	sumX  float64
	sumXX float64
	sumXY float64
}

// add folds one point into the sums, in append order.
func (m *moments) add(t int64, v float64) {
	x := time.Duration(t).Hours()
	m.sumX += x
	m.sumXX += x * x
	m.sumXY += x * v
}

// block is one run of compressed points: closed and immutable in a
// series' chain, or a query's private copy of the open block.
type block struct {
	data []byte
	sum  summary
	mom  moments // closed blocks only
}

// bytes is a closed block's accounted footprint.
func (b *block) bytes() int64 { return int64(len(b.data)) + blockOverheadBytes }

// --- the open block -------------------------------------------------------------

// The open block's buffer climbs 64 B → 128 B → 256 B → … → 4 KiB. It
// doubles, so a buffer is on average a quarter empty, and a young series —
// most of a root's are young — holds the step its points need and not the
// next but one. Doubling is affordable because a point is cheap: at the
// ≈3 B a changed reading costs on a stepped clock's stamps a buffer lasts
// 20, 40, 80 … appends, so growth allocations stay a few per series' life
// and out of steady-state ingest. A block closes at blockPoints points, or
// earlier when the next point might not fit the top step: pointReserve is
// the longest point code — a 73-bit stamp (the 64-bit tier and an exponent
// change), a 78-bit value — behind up to 7 pending bits, 158 bits in all
// (TestStampCodeProperties builds it).
const (
	blockPoints  = 512
	bufInitial   = 64
	bufGrowth    = 2
	bufMax       = 4096
	pointReserve = 20
	openCopyMax  = bufMax + 1 // an open block's bytes and its pending bits
)

// openBlock is the block a series appends into: the bit stream so far,
// the two predictors that continue it, and the running aggregate. It
// holds nothing twice: the newest point is the predictors' state (ts.Prev,
// vbits), the first point is the stream's own first code (first), the
// stream's pending bits are one byte and a count, not a writer's 64-bit
// accumulator, and the value predictor's small fields sit flattened
// beside the block's, so they share one word — a root holds one of these
// per (node, metric) pair.
type openBlock struct {
	buf    []byte   // the stream's whole bytes; its capacity is the ladder step
	ts     DoDState // Prev is the newest timestamp
	vbits  uint64   // the value predictor's newest value (ValueState.bits)
	minV   float64  // as summary's, over the points so far
	maxV   float64
	sumV   float64
	count  uint16 // points so far, at most blockPoints
	pend   uint8  // the stream's last, partial byte, filled from the top bit
	npend  uint8  // bits of pend in use, at most 7
	exp    uint8  // the stamp code's sticky exponent
	vlead  uint8  // the value predictor's window: leading zeros, winSet once it has one
	vtrail uint8  // and trailing zeros
	vexp   uint8  // the value code's sticky exponent
}

// winSet marks vlead once the value predictor has an XOR window
// (ValueState.hasWin); the leading-zero count it sits beside is at most 31.
const winSet = 0x80

// room reports whether one more point is sure to fit the buffer as it is.
//
//cwx:hotpath
func (o *openBlock) room() bool { return cap(o.buf)-len(o.buf) >= pointReserve }

// put appends one point's code and folds the point into the aggregate;
// the caller has checked room, so the writer never grows the buffer.
//
//cwx:hotpath
func (o *openBlock) put(t int64, v float64) {
	// Field by field: a composite literal is built aside and copied in
	// with wide loads over its narrow stores, a store-forwarding stall
	// (≈10 ns) on every append.
	var w BitWriter
	w.w.buf, w.w.acc, w.w.nacc = o.buf, uint64(o.pend)<<56, uint(o.npend)
	writeStamp(&w.w, &o.ts, &o.exp, t)
	var vs ValueState
	vs.bits, vs.leading, vs.trailing, vs.hasWin, vs.exp = o.vbits, o.vlead&^winSet, o.vtrail, o.vlead&winSet != 0, o.vexp
	w.WriteValue(&vs, v)
	o.vbits, o.vlead, o.vtrail, o.vexp = vs.bits, vs.leading, vs.trailing, vs.exp
	if vs.hasWin {
		o.vlead |= winSet
	}
	o.buf, o.pend, o.npend = w.w.buf, uint8(w.w.acc>>56), uint8(w.w.nacc)
	if o.count == 0 {
		o.minV, o.maxV = math.NaN(), math.NaN()
	}
	o.count++
	o.sumV += v
	switch {
	case math.IsNaN(v):
	case math.IsNaN(o.minV): // first non-NaN value
		o.minV, o.maxV = v, v
	case v < o.minV:
		o.minV = v
	case v > o.maxV:
		o.maxV = v
	}
}

// first decodes the block's first point, which the stream's first code
// holds: at most pointReserve bytes of it, read in place, or from a stack
// copy with the pending bits after them while the stream is shorter. The
// block holds a point.
func (o *openBlock) first() (int64, float64) {
	data := o.buf
	var head [pointReserve + 1]byte
	if len(data) < pointReserve { // the first code may run into the pending bits
		n := copy(head[:], data)
		head[n] = o.pend
		data = head[:n+1]
	}
	it := newPointIter(data, 1)
	t, v, _ := it.next()
	return t, v
}

// summary returns the aggregate of the points so far, the newest point
// read off the predictors and the first one, which the caller decoded
// (first), passed in.
func (o *openBlock) summary(firstT int64, firstV float64) summary {
	return summary{
		count: int(o.count), minV: o.minV, maxV: o.maxV, sumV: o.sumV,
		firstT: firstT, lastT: o.ts.Prev,
		firstV: firstV, lastV: math.Float64frombits(o.vbits),
	}
}

// bytes returns a copy of the stream so far, the pending bits flushed
// into a zero-padded last byte: exactly what a closed block holds.
func (o *openBlock) bytes() []byte { return o.appendBytes(make([]byte, 0, len(o.buf)+1)) }

// appendBytes appends that copy to dst. At most openCopyMax bytes: a
// query's stack scratch of that size takes any open block.
func (o *openBlock) appendBytes(dst []byte) []byte {
	dst = append(dst, o.buf...)
	if o.npend > 0 {
		dst = append(dst, o.pend)
	}
	return dst
}

// rewind empties the block, keeping its buffer.
func (o *openBlock) rewind() { *o = openBlock{buf: o.buf[:0]} }

// --- bit-level writer -----------------------------------------------------------

type bitWriter struct {
	buf  []byte
	acc  uint64 // pending bits, MSB-first
	nacc uint   // bits pending in acc
}

// writeBits appends the low n bits of v, most significant first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	if n < 64 {
		v &= (1 << n) - 1
	}
	for n > 0 {
		free := 64 - w.nacc
		if n <= free {
			w.acc |= v << (free - n)
			w.nacc += n
			n = 0
		} else {
			w.acc |= v >> (n - free)
			w.nacc = 64
			n -= free
		}
		for w.nacc >= 8 {
			w.buf = append(w.buf, byte(w.acc>>56))
			w.acc <<= 8
			w.nacc -= 8
		}
	}
}

func (w *bitWriter) writeBit(b uint64) { w.writeBits(b, 1) }

// bytes flushes any partial byte (zero-padded) and returns the buffer.
func (w *bitWriter) bytes() []byte {
	if w.nacc > 0 {
		w.buf = append(w.buf, byte(w.acc>>56))
		w.acc = 0
		w.nacc = 0
	}
	return w.buf
}

// --- bit-level reader -----------------------------------------------------------

type bitReader struct {
	data []byte
	pos  uint // bit offset
	err  bool // ran past the end
}

// readBits returns the next n bits, MSB-first. Past the end it sets err
// and returns 0; callers check err once per decoded point. With eight
// bytes left from the current one, up to 56 bits are one big-endian load
// and two shifts, inlined into the caller; readBitsSlow takes the rest.
func (r *bitReader) readBits(n uint) uint64 {
	if at := r.pos >> 3; n <= 56 && at+8 <= uint(len(r.data)) {
		v := binary.BigEndian.Uint64(r.data[at:]) << (r.pos & 7) >> (64 - n)
		r.pos += n
		return v
	}
	return r.readBitsSlow(n)
}

// readBitsSlow is readBits byte by byte: the last seven bytes of the
// data, and fields wider than 56 bits.
func (r *bitReader) readBitsSlow(n uint) uint64 {
	var v uint64
	for n > 0 {
		byteIdx := r.pos >> 3
		if byteIdx >= uint(len(r.data)) {
			r.err = true
			return 0
		}
		bitOff := r.pos & 7
		avail := 8 - bitOff
		take := n
		if take > avail {
			take = avail
		}
		chunk := uint64(r.data[byteIdx]>>(avail-take)) & ((1 << take) - 1)
		v = v<<take | chunk
		r.pos += take
		n -= take
	}
	return v
}

// readBit returns the next bit; past the end it sets err and returns 0.
func (r *bitReader) readBit() uint64 {
	if at := r.pos >> 3; at < uint(len(r.data)) {
		b := uint64(r.data[at]>>(7-r.pos&7)) & 1
		r.pos++
		return b
	}
	r.err = true
	return 0
}

// --- timestamp delta-of-delta coding --------------------------------------------

// writeDoD encodes a zigzagged delta-of-delta with a four-tier prefix
// code: '0' (dod = 0, the fixed-cadence case), '10'+7 bits, '110'+16
// bits, '1110'+32 bits, '1111'+64 bits.
func writeDoD(w *bitWriter, dod int64) {
	z := uint64(dod<<1) ^ uint64(dod>>63) // zigzag: small magnitudes, small codes
	switch {
	case z == 0:
		w.writeBit(0)
	case z < 1<<7:
		w.writeBits(0b10, 2)
		w.writeBits(z, 7)
	case z < 1<<16:
		w.writeBits(0b110, 3)
		w.writeBits(z, 16)
	case z < 1<<32:
		w.writeBits(0b1110, 4)
		w.writeBits(z, 32)
	default:
		w.writeBits(0b1111, 4)
		w.writeBits(z, 64)
	}
}

func readDoD(r *bitReader) int64 {
	var z uint64
	switch {
	case r.readBit() == 0:
		z = 0
	case r.readBit() == 0:
		z = r.readBits(7)
	case r.readBit() == 0:
		z = r.readBits(16)
	case r.readBit() == 0:
		z = r.readBits(32)
	default:
		z = r.readBits(64)
	}
	return int64(z>>1) ^ -int64(z&1) // un-zigzag
}

// --- the stamp code ---------------------------------------------------------------

// A timestamp is coded as its delta-of-delta on a power-of-ten grid. A
// clock that ticks in steps — the server's ingest clock steps 100 ms at a
// time, an agent's a millisecond or a second — yields dods that are whole
// multiples of its step, and the nanoseconds below the step are zeros the
// plain code would spell out in its 32-bit tier. Per stamp:
//
//	0                   dod = 0: the fixed-cadence case
//	1 <tier> <E>        dod = q·10^e: q zigzagged in the wire's tiers
//	                    (writeDoD: 0+7, 10+16, 110+32 or 111+64 bits),
//	                    then E: 1 keeps the stream's exponent e, 0 <e:4>
//	                    changes it (e ≤ 9, the second)
//
// The exponent is sticky, as the value code's is, because a stream's grid
// is a property of its clock: on a 100 ms grid a dod that happens to be a
// whole second keeps e = 8 instead of paying five bits to reach 9 and five
// more to come back. The encoder keeps the hint while it divides the dod
// and the largest exponent that does would not reach a shorter tier (the
// tiers are 10 or more bits apart, the change costs 4); otherwise it moves
// to that largest exponent. So a stream on no grid stays at e = 0 and pays
// the one keep bit a point over the plain code, a stream on a grid finds
// it at its first non-zero dod, and one that leaves its grid for a point
// is back on it at the next non-zero dod the grid divides.

const maxStampExp = 9

var (
	stampPow10 = [maxStampExp + 1]int64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	// stampMaxQ[e] is the largest |q| whose product with 10^e is an int64.
	stampMaxQ = func() (m [maxStampExp + 1]int64) {
		for e, p := range stampPow10 {
			m[e] = math.MaxInt64 / p
		}
		return m
	}()
)

// stampTier is the writeDoD tier q's zigzag lands in, 0 the shortest.
func stampTier(q int64) int {
	switch z := uint64(q<<1) ^ uint64(q>>63); {
	case z < 1<<7:
		return 0
	case z < 1<<16:
		return 1
	case z < 1<<32:
		return 2
	}
	return 3
}

// scaleStamp picks the exponent a non-zero dod is sent at and returns it
// with the quotient: the hint while it divides dod and is in the tier of
// the largest exponent that does, that largest exponent otherwise.
func scaleStamp(dod int64, hint uint8) (e uint8, q int64) {
	q = dod
	divides := true
	if hint != 0 {
		p := stampPow10[hint]
		if quo := dod / p; quo*p == dod {
			e, q = hint, quo
		} else {
			divides = false
		}
	}
	tier := stampTier(q)
	if divides && tier == 0 {
		return e, q // already the shortest code there is
	}
	be, bq := e, q
	for be < maxStampExp && bq%10 == 0 {
		be, bq = be+1, bq/10
	}
	if be == e || divides && stampTier(bq) == tier {
		return e, q
	}
	return be, bq
}

// writeStamp appends t coded against the stream's predictor and exponent.
func writeStamp(w *bitWriter, s *DoDState, exp *uint8, t int64) {
	delta := t - s.Prev
	dod := delta - s.Delta
	s.Delta, s.Prev = delta, t
	if dod == 0 {
		w.writeBit(0)
		return
	}
	e, q := scaleStamp(dod, *exp)
	writeDoD(w, q)
	if e == *exp {
		w.writeBit(1)
	} else {
		w.writeBits(uint64(e), 5) // the change bit 0, then e in four
		*exp = e
	}
}

// readStamp decodes the next timestamp, advancing predictor and exponent.
// An exponent past maxStampExp, or a quotient whose product with 10^e is
// no int64, is corrupt input: the reader fails.
func readStamp(r *bitReader, s *DoDState, exp *uint8) int64 {
	if q := readDoD(r); q != 0 {
		if r.readBit() == 0 {
			*exp = uint8(r.readBits(4))
		}
		e := *exp
		if e > maxStampExp || e != 0 && (q > stampMaxQ[e] || q < -stampMaxQ[e]) {
			r.err = true
			return 0
		}
		s.Delta += q * stampPow10[e]
	}
	s.Prev += s.Delta
	return s.Prev
}

// --- block decode ---------------------------------------------------------------

// pointIter streams a block's points without materializing a slice.
// count bounds the iteration, so arbitrary (corrupt) bytes always
// terminate; after a short or impossible read next reports done and
// failed reports true.
type pointIter struct {
	r    BitReader
	ts   DoDState
	vs   ValueState
	exp  uint8
	left int
}

func newPointIter(data []byte, count int) pointIter {
	return pointIter{r: BitReader{bitReader{data: data}}, left: count}
}

// next returns the following point; ok is false at the end of the block
// or on a truncated/corrupt bit stream.
func (it *pointIter) next() (t int64, v float64, ok bool) {
	if it.left <= 0 || it.r.Failed() {
		return 0, 0, false
	}
	t = readStamp(&it.r.r, &it.ts, &it.exp)
	if v, ok = it.r.ReadValue(&it.vs); !ok {
		return 0, 0, false
	}
	it.left--
	return t, v, true
}

// failed reports whether iteration stopped because the bit stream was
// truncated or corrupt rather than cleanly exhausted.
func (it *pointIter) failed() bool { return it.r.Failed() }
