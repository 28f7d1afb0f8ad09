package history

// Sealed-block codec: Gorilla-style bit packing (Facebook's "Gorilla: A
// Fast, Scalable, In-Memory Time Series Database", VLDB 2015) adapted to
// this store's shape. Timestamps are delta-of-delta coded — an agent
// reporting on a fixed cadence costs one bit per sample — and values are
// XOR-coded against their predecessor, so the §5.3.2 change-suppressed
// monitor streams (long runs of repeated or near-equal readings) cost a
// bit or a handful of meaningful bits per sample instead of 16 bytes.
//
// A block is encoded once, at seal time, from the series' head arrays and
// never mutated afterwards: queries decode it without any lock. The codec
// is pure bit-shuffling over stdlib types; every float64 bit pattern
// (NaN, ±Inf, denormals) round-trips exactly, and decoding untrusted
// bytes (the persistence loader, the fuzzer) terminates with an error
// instead of panicking.

import (
	"math"
	"math/bits"
	"time"
)

// blockOverheadBytes is the accounted per-sealed-block bookkeeping cost:
// the summary, the slice header, and the pointer in the chain. Used by
// the bytes gauge and the E19 bytes/sample measurement so compression
// numbers include their own metadata.
const blockOverheadBytes = 136

// summary is the running aggregate of a run of points — a sealed
// block's, or the mutable head's: everything Stats, Compare and Trend
// need so a run fully inside the query window is answered without
// decoding or scanning it.
//
// minV/maxV skip NaN values (NaN only if every value is NaN); combined
// with firstV-initialization at query time this reproduces exactly the
// result of the naive "init from first point, then strict <,> folds"
// scan, for any NaN placement. sumX/sumXX/sumXY are the least-squares
// moments over x = T.Hours(), y = V, so Trend merges blocks in O(1).
type summary struct {
	count  int
	minV   float64
	maxV   float64
	sumV   float64
	firstT int64
	lastT  int64
	firstV float64
	lastV  float64
	sumX   float64
	sumXX  float64
	sumXY  float64
}

// block is one sealed, immutable run of compressed points.
type block struct {
	data []byte
	sum  summary
}

// add folds one point into the aggregate. The series' head calls it once
// per append, in append order, so at seal time the block inherits exactly
// the sums a scan of its points would produce — no separate pass.
//
//cwx:hotpath
func (s *summary) add(t int64, v float64) {
	if s.count == 0 {
		s.firstT, s.firstV = t, v
		s.minV, s.maxV = math.NaN(), math.NaN()
	}
	s.count++
	s.lastT, s.lastV = t, v
	x := time.Duration(t).Hours()
	s.sumV += v
	s.sumX += x
	s.sumXX += x * x
	s.sumXY += x * v
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

// --- block encode ---------------------------------------------------------------

// encodeBlock compresses parallel timestamp/value arrays into a sealed
// block's byte form. The first point is stored raw (64+64 bits); every
// later timestamp is delta-of-delta coded and every later value is
// XOR-coded with the Gorilla leading/meaningful-bits window scheme.
// Timestamps need not be monotone — the codec round-trips any sequence;
// ordering is the Series' concern.
func encodeBlock(ts []int64, vs []float64) []byte {
	w := bitWriter{buf: make([]byte, 0, 16+len(ts)*2)}
	w.writeBits(uint64(ts[0]), 64)
	prevV := math.Float64bits(vs[0])
	w.writeBits(prevV, 64)
	prevT := ts[0]
	var prevDelta int64
	leading, trailing := -1, -1 // no window yet
	for i := 1; i < len(ts); i++ {
		delta := ts[i] - prevT
		writeDoD(&w, delta-prevDelta)
		prevDelta = delta
		prevT = ts[i]

		cur := math.Float64bits(vs[i])
		xor := cur ^ prevV
		prevV = cur
		if xor == 0 {
			w.writeBit(0)
			continue
		}
		w.writeBit(1)
		lz := bits.LeadingZeros64(xor)
		if lz > 31 {
			lz = 31 // 5-bit field
		}
		tz := bits.TrailingZeros64(xor)
		if leading >= 0 && lz >= leading && tz >= trailing {
			// Meaningful bits fit the previous window: reuse it.
			w.writeBit(0)
			w.writeBits(xor>>uint(trailing), uint(64-leading-trailing))
		} else {
			leading, trailing = lz, tz
			sig := 64 - lz - tz
			w.writeBit(1)
			w.writeBits(uint64(lz), 5)
			w.writeBits(uint64(sig-1), 6)
			w.writeBits(xor>>uint(tz), uint(sig))
		}
	}
	return w.bytes()
}

// --- block decode ---------------------------------------------------------------

// blockIter streams a sealed block's points without materializing a
// slice. count bounds the iteration, so arbitrary (corrupt) bytes always
// terminate; after a short read next reports done and failed reports
// true.
type blockIter struct {
	r        bitReader
	count    int
	i        int
	t        int64
	delta    int64
	v        uint64
	leading  int
	trailing int
}

func newBlockIter(data []byte, count int) blockIter {
	return blockIter{r: bitReader{data: data}, count: count, leading: -1, trailing: -1}
}

// next returns the following point; ok is false at the end of the block
// or on a truncated/corrupt bit stream.
func (it *blockIter) next() (t int64, v float64, ok bool) {
	if it.i >= it.count || it.r.err {
		return 0, 0, false
	}
	if it.i == 0 {
		it.t = int64(it.r.readBits(64))
		it.v = it.r.readBits(64)
	} else {
		dod := readDoD(&it.r)
		it.delta += dod
		it.t += it.delta
		if it.r.readBit() == 1 {
			if it.r.readBit() == 1 {
				it.leading = int(it.r.readBits(5))
				sig := int(it.r.readBits(6)) + 1
				it.trailing = 64 - it.leading - sig
			}
			if it.trailing < 0 || it.leading < 0 {
				// Only reachable on corrupt input: a window-reuse code
				// before any window was defined, or sig overflowing it.
				it.r.err = true
				return 0, 0, false
			}
			width := uint(64 - it.leading - it.trailing)
			it.v ^= it.r.readBits(width) << uint(it.trailing)
		}
	}
	if it.r.err {
		return 0, 0, false
	}
	it.i++
	return it.t, math.Float64frombits(it.v), true
}

// failed reports whether iteration stopped because the bit stream was
// truncated or corrupt rather than cleanly exhausted.
func (it *blockIter) failed() bool { return it.r.err }
