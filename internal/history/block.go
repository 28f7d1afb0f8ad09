package history

// The block grammar: Gorilla-style bit packing (Facebook's "Gorilla: A
// Fast, Scalable, In-Memory Time Series Database", VLDB 2015) adapted to
// this store's shape. A block is a run of points, each a delta-of-delta
// timestamp code — an agent reporting on a fixed cadence costs one bit
// per sample — followed by the wire's value code (wirecodec.go): one bit
// for an unchanged reading, a short decimal difference for the changed
// two-place decimals monitors report, Gorilla XOR for everything else.
// Both predictors start from zero, so a block needs no raw first point
// and decodes on its own.
//
// A series appends straight into its open block in this form and closes
// it by copying the exact bytes out; closed blocks are never mutated, so
// queries decode them without any lock. Every float64 bit pattern (NaN,
// ±Inf, denormals) round-trips exactly, and decoding untrusted bytes
// (the persistence loader, the fuzzer) terminates with an error instead
// of panicking.

import (
	"math"
	"time"
)

// blockOverheadBytes is the accounted per-closed-block bookkeeping cost:
// the summary, the slice header, and the pointer in the chain. Used by
// the bytes gauge and the E19 bytes/sample measurement so compression
// numbers include their own metadata.
const blockOverheadBytes = 136

// summary is the running aggregate of a block's points: everything
// Stats and Compare need so a block fully inside the query window is
// answered without decoding it. The open block folds every append into
// its own, so it is kept to the eight words an append needs.
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

// add folds one point into the aggregate, in append order.
//
//cwx:hotpath
func (s *summary) add(t int64, v float64) {
	if s.count == 0 {
		s.firstT, s.firstV = t, v
		s.minV, s.maxV = math.NaN(), math.NaN()
	}
	s.count++
	s.lastT, s.lastV = t, v
	s.sumV += v
	switch {
	case math.IsNaN(v):
	case math.IsNaN(s.minV): // first non-NaN value
		s.minV, s.maxV = v, v
	case v < s.minV:
		s.minV = v
	case v > s.maxV:
		s.maxV = v
	}
}

// --- the open block -------------------------------------------------------------

// The open block's buffer climbs 64 B → 256 B → 1 KiB → 4 KiB: the ×4
// ladder the raw head arrays had, at half the bytes, because a worst-case
// changed decimal with a jittered stamp costs ≈8 B where a raw point cost
// 16 — so a step is reached after about as many appends as before. The
// factor is deliberately coarse: every series of a tree loaded together
// grows at the same append, and ×4 keeps those bursts rare. A block
// closes at blockPoints points, or earlier when the next point might not
// fit the top step: pointReserve is the longest point code (a 68-bit
// timestamp, a 78-bit value) behind up to 7 pending bits.
const (
	blockPoints  = 512
	bufInitial   = 64
	bufGrowth    = 4
	bufMax       = 4096
	pointReserve = 20
)

// openBlock is the block a series appends into: the bit stream so far,
// the two predictors that continue it, and the running summary.
type openBlock struct {
	w   BitWriter
	ts  DoDState
	vs  ValueState
	sum summary
}

// room reports whether one more point is sure to fit the buffer as it is.
//
//cwx:hotpath
func (o *openBlock) room() bool { return cap(o.w.w.buf)-len(o.w.w.buf) >= pointReserve }

// put appends one point's code; the caller has checked room.
//
//cwx:hotpath
func (o *openBlock) put(t int64, v float64) {
	o.w.WriteDoD(&o.ts, t)
	o.w.WriteValue(&o.vs, v)
	o.sum.add(t, v)
}

// bytes returns a copy of the stream so far, the pending bits flushed
// into a zero-padded last byte: exactly what a closed block holds.
func (o *openBlock) bytes() []byte {
	w := &o.w.w
	data := make([]byte, len(w.buf), len(w.buf)+1)
	copy(data, w.buf)
	if w.nacc > 0 {
		data = append(data, byte(w.acc>>56))
	}
	return data
}

// rewind empties the block, keeping its buffer.
func (o *openBlock) rewind() {
	*o = openBlock{w: BitWriter{bitWriter{buf: o.w.w.buf[:0]}}}
}

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
// and returns 0; callers check err once per decoded point.
func (r *bitReader) readBits(n uint) uint64 {
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

func (r *bitReader) readBit() uint64 { return r.readBits(1) }

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

// --- block decode ---------------------------------------------------------------

// pointIter streams a block's points without materializing a slice.
// count bounds the iteration, so arbitrary (corrupt) bytes always
// terminate; after a short or impossible read next reports done and
// failed reports true.
type pointIter struct {
	r    BitReader
	ts   DoDState
	vs   ValueState
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
	t = it.r.ReadDoD(&it.ts)
	if v, ok = it.r.ReadValue(&it.vs); !ok {
		return 0, 0, false
	}
	it.left--
	return t, v, true
}

// failed reports whether iteration stopped because the bit stream was
// truncated or corrupt rather than cleanly exhausted.
func (it *pointIter) failed() bool { return it.r.Failed() }
