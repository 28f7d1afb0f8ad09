package history

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// FuzzBlockCodec exercises the block grammar from both ends. The input
// bytes are interpreted as a raw point stream (16 bytes per point: int64
// timestamp, float64 bits) which must go through the open block's writer
// and the streaming iterator and come back bit-exactly; the same bytes
// are then fed to the iterator directly as a hostile block, which must
// terminate without panicking regardless of content.
func FuzzBlockCodec(f *testing.F) {
	seed := func(ts []int64, vs []float64) {
		b := make([]byte, 0, len(ts)*16)
		for i := range ts {
			b = binary.LittleEndian.AppendUint64(b, uint64(ts[i]))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(vs[i]))
		}
		f.Add(b)
	}
	sec := int64(time.Second)
	seed([]int64{0, sec, 2 * sec, 3 * sec}, []float64{7, 7, 7, 7})
	seed([]int64{0, 1, 2, 3, 4, 5},
		[]float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, math.Copysign(0, -1), math.MaxFloat64})
	seed([]int64{100, 5, -30, math.MaxInt64, math.MinInt64, 0}, []float64{1, 2, 3, 4, 5, 6})
	seed([]int64{9, 9, 9}, []float64{1e-310, -1e-310, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	// The stamp code's own corners: a 100 ms grid with an excursion and a
	// gap past the 32-bit tier; as hostile blocks, an exponent field past
	// maxStampExp and a quotient whose scaled product overflows.
	seed([]int64{0, sec / 10, 3 * sec / 10, 3*sec/10 + 17, sec, 1 << 33 * sec, 1<<33*sec + sec/10}, []float64{0.5, 0.75, 0.75, 3, 3.25, 1, 2})
	f.Add(hostileStamp(5, 12))
	f.Add(hostileStamp(1<<62, 9))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Roundtrip: any point stream, however adversarial its bit
		// patterns or timestamp ordering, must survive encode/decode.
		if n := len(data) / 16; n > 0 {
			ts := make([]int64, n)
			vs := make([]float64, n)
			for i := 0; i < n; i++ {
				ts[i] = int64(binary.LittleEndian.Uint64(data[i*16:]))
				vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*16+8:]))
			}
			it := newPointIter(encodePoints(ts, vs), n)
			for i := 0; i < n; i++ {
				gt, gv, ok := it.next()
				if !ok {
					t.Fatalf("decode stopped at %d/%d", i, n)
				}
				if gt != ts[i] || math.Float64bits(gv) != math.Float64bits(vs[i]) {
					t.Fatalf("point %d: got (%d, %x), want (%d, %x)",
						i, gt, math.Float64bits(gv), ts[i], math.Float64bits(vs[i]))
				}
			}
			if _, _, ok := it.next(); ok || it.failed() {
				t.Fatalf("clean stream: extra point or failure (failed=%v)", it.failed())
			}
		}

		// Hostile decode: arbitrary bytes with an inflated count must
		// terminate within the count bound and never panic.
		it := newPointIter(data, 1<<14)
		decoded := 0
		for {
			if _, _, ok := it.next(); !ok {
				break
			}
			if decoded++; decoded > 1<<14 {
				t.Fatal("decoder exceeded its count bound")
			}
		}
	})
}

// FuzzLoadFrom feeds the persistence loader arbitrary files, seeded from
// real saves in the format it reads and from older ones it rejects.
// Whatever the bytes, it must return (an error or not) without panicking,
// decode no block past maxPersistBlockPoints, and leave every series it
// touched time-ordered and within its capacity.
func FuzzLoadFrom(f *testing.F) {
	// Short seeds: the fuzzer minimizes what it finds interesting, and a
	// 20 KB file eats a smoke run's ten seconds doing it. From a save of
	// fixtureStore, the five-point series and the counter after it (one
	// block and a part).
	var fixture bytes.Buffer
	if err := fixtureStore().SaveTo(&fixture); err != nil {
		f.Fatal(err)
	}
	file := fixture.Bytes()
	n3, nodeA := bytes.Index(file, []byte("series \"n3\"")), bytes.Index(file, []byte("series \"node a\""))
	f.Add(file[:n3])
	small := NewStore(5) // a block every five points, the oldest trimmed
	for i := 0; i < 13; i++ {
		small.Append("a", "load.1", sec(i)+time.Duration(i%3)*time.Millisecond, float64(i%7)/4)
		small.Append("b", "up", sec(i/5), 1)
	}
	var v4 bytes.Buffer
	if err := small.SaveTo(&v4); err != nil {
		f.Fatal(err)
	}
	f.Add(v4.Bytes())
	f.Add([]byte("clusterworx-history v3\nseries \"n\" \"m\" 1\nblock 3 1 /////////////w==\n"))
	f.Add(append([]byte(persistHeaderV4+"\n"), file[n3:nodeA]...))
	f.Add([]byte("clusterworx-history v1\nseries \"n\" \"m\" 1\n1.0 2.0\n"))
	// A file that merges into the series the fuzz body pre-fills, around
	// its one point.
	merge := NewStore(5)
	for i := 0; i < 9; i++ {
		merge.Append("n", "m", time.Duration(3*i), float64(i))
	}
	var mb bytes.Buffer
	if err := merge.SaveTo(&mb); err != nil {
		f.Fatal(err)
	}
	f.Add(mb.Bytes())
	// v4 blocks no SaveTo writes: an exponent field of 12, a scaled
	// product past int64.
	for _, block := range [][]byte{hostileStamp(5, 12), hostileStamp(1<<62, 9)} {
		f.Add([]byte(persistHeaderV4 + "\nseries \"n\" \"m\" 1\nblock 2 0 " + base64.StdEncoding.EncodeToString(block) + "\n"))
	}

	f.Fuzz(func(t *testing.T, file []byte) {
		const capacity = 64
		st := NewStore(capacity)
		st.Append("n", "m", 5, 1) // loading merges into what is there
		_ = st.LoadFrom(bytes.NewReader(file))
		for _, node := range st.Nodes() {
			for _, metric := range st.Metrics(node) {
				pts := st.Series(node, metric).Range(math.MinInt64, math.MaxInt64)
				if len(pts) > capacity {
					t.Fatalf("%s/%s holds %d points, capacity %d", node, metric, len(pts), capacity)
				}
				for i := 1; i < len(pts); i++ {
					if pts[i].T < pts[i-1].T {
						t.Fatalf("%s/%s point %d: %v after %v", node, metric, i, pts[i], pts[i-1])
					}
				}
			}
		}
	})
}
