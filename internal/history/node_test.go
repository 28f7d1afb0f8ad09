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

// nodeMetrics is the name pool a node-level op stream draws from. The
// stream registers them in the store's metric table in a scrambled order
// first, so ids do not follow names and a chunk brought by a later frame
// interleaves the earlier chunks' ids.
var nodeMetrics = func() []string {
	names := make([]string, 12)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
	}
	return names
}()

// nodeSample is one value of a frame in a node-level op stream: a metric
// of the pool, or a text value (ok false) with nothing to record.
type nodeSample struct {
	metric int
	v      float64
	text   bool
}

// runNodeOps drives one node's history through AppendFrame and a naive
// reference ring per metric from an op stream, and checks every series —
// through the handle taken when the series was first seen, long before
// later chunks existed, and through a fresh lookup — against its ring
// after every query op. Each op is a byte, its arguments the bytes after:
//
//	0, 1 k: a frame of the node's active metrics picked by k's bits —
//	        with text values between them and, when k's top bit is set,
//	        the first metric twice — stamped step-wise from the byte after
//	2 k:    k%3+1 more metrics of the pool become active: the next frame
//	        brings them, and their series come in a chunk of their own
//	3:      the checks
//
// It returns how many chunks the node ended with.
func runNodeOps(t *testing.T, ops []byte, capacity int) int {
	t.Helper()
	st := NewStore(capacity)
	for _, i := range rand.New(rand.NewSource(int64(len(ops)))).Perm(len(nodeMetrics)) {
		st.MetricID(nodeMetrics[i])
	}
	ns := st.Node("n")
	refs := make([]*refRing, len(nodeMetrics))
	handles := make([]*Series, len(nodeMetrics))
	active := 2
	now := time.Duration(0)
	chunks, brought := 0, 0 // frames that brought new metrics; metrics they brought
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	var frame []nodeSample
	check := func() {
		for m, ref := range refs {
			if ref == nil {
				if st.Series("n", nodeMetrics[m]) != nil {
					t.Fatalf("%s has a series but never a sample", nodeMetrics[m])
				}
				continue
			}
			if s := st.Series("n", nodeMetrics[m]); s != handles[m] {
				t.Fatalf("%s: the store hands out %p, the handle taken first is %p", nodeMetrics[m], s, handles[m])
			}
			checkNodeSeries(t, nodeMetrics[m], handles[m], ref)
		}
	}
	for len(ops) > 0 {
		switch next() % 4 {
		case 0, 1:
			k, step := next(), next()
			frame = frame[:0]
			for m := 0; m < active; m++ {
				if k&(1<<(m%7)) != 0 || m >= active-1 {
					frame = append(frame, nodeSample{metric: m, v: float64(int(step)+m) / 4})
				}
				if m%3 == 1 {
					frame = append(frame, nodeSample{metric: m, text: true})
				}
			}
			if k&0x80 != 0 {
				frame = append(frame, nodeSample{metric: frame[0].metric, v: -1})
			}
			switch {
			case step%8 == 7:
				now -= time.Duration(step%5+1) * 100 * time.Millisecond // out of order: dropped
			case step%8 != 0:
				now += time.Duration(step%8) * 100 * time.Millisecond
			}
			fresh := 0
			for _, smp := range frame {
				if !smp.text && refs[smp.metric] == nil {
					refs[smp.metric] = newRefRing(capacity)
					fresh++
				}
			}
			if fresh > 0 {
				chunks++
				brought += fresh
			}
			ns.AppendFrame(now, len(frame), func(k int) (uint32, float64, bool) {
				smp := frame[k]
				return st.MetricID(nodeMetrics[smp.metric]), smp.v, !smp.text
			})
			for _, smp := range frame {
				if !smp.text {
					refs[smp.metric].append(now, smp.v)
					if handles[smp.metric] == nil {
						handles[smp.metric] = st.Series("n", nodeMetrics[smp.metric])
					}
				}
			}
		case 2:
			active = min(active+int(next()%3)+1, len(nodeMetrics))
		case 3:
			check()
		}
	}
	check()

	ns.mu.Lock()
	defer ns.mu.Unlock()
	held := 0
	for c, chunk := range ns.chunks {
		ids := ns.ids[held : held+len(chunk)]
		if !slices.IsSorted(ids) {
			t.Fatalf("chunk %d's ids %v are out of order", c, ids)
		}
		held += len(chunk)
	}
	if len(ns.chunks) != chunks || held != brought || len(ns.ids) != held {
		t.Fatalf("%d frames brought %d metrics; the node has %d chunks of %d series and %d ids",
			chunks, brought, len(ns.chunks), held, len(ns.ids))
	}
	return len(ns.chunks)
}

// checkNodeSeries compares one series with its reference ring: Len, Last,
// the newest points, every point, and the whole-history Stats.
func checkNodeSeries(t *testing.T, metric string, s *Series, ref *refRing) {
	t.Helper()
	if s.Len() != ref.size {
		t.Fatalf("%s: Len = %d, ref %d", metric, s.Len(), ref.size)
	}
	if last, ok := s.Last(); !ok || !samePoint(last, ref.at(ref.size-1)) {
		t.Fatalf("%s: Last = %v,%v, ref %v", metric, last, ok, ref.at(ref.size-1))
	}
	all, want := s.Range(math.MinInt64, math.MaxInt64), ref.rng(math.MinInt64, math.MaxInt64)
	if len(all) != len(want) {
		t.Fatalf("%s: Range holds %d points, ref %d", metric, len(all), len(want))
	}
	for i := range all {
		if !samePoint(all[i], want[i]) {
			t.Fatalf("%s: point %d = %v, ref %v", metric, i, all[i], want[i])
		}
	}
	tail := s.Tail(nil, 3)
	for i, p := range tail {
		if !samePoint(p, want[len(want)-len(tail)+i]) {
			t.Fatalf("%s: Tail(3)[%d] = %v, ref %v", metric, i, p, want[len(want)-len(tail)+i])
		}
	}
	got, exp := s.Stats(math.MinInt64, math.MaxInt64), ref.stats(math.MinInt64, math.MaxInt64)
	if got.N != exp.N || got.Min != exp.Min || got.Max != exp.Max || got.First != exp.First ||
		got.LastPoint != exp.LastPoint || !approxVal(got.Mean, exp.Mean) {
		t.Fatalf("%s: Stats = %+v, ref %+v", metric, got, exp)
	}
}

// TestDifferentialNodeSeries runs random node-level op streams — frames
// over a node's metrics, metrics arriving mid-stream in chunks of their
// own, queries through handles taken before those chunks existed —
// against a reference ring per metric, at capacities from one point to
// several blocks.
func TestDifferentialNodeSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	multi := 0
	for _, capacity := range []int{1, 7, 100, 600} {
		for run := 0; run < 4; run++ {
			ops := make([]byte, 600+rng.Intn(900))
			rng.Read(ops)
			if runNodeOps(t, ops, capacity) > 1 {
				multi++
			}
		}
	}
	if multi < 8 {
		t.Fatalf("only %d of 16 streams grew a second chunk", multi)
	}
}

// FuzzNodeSeries is TestDifferentialNodeSeries's op stream under the
// fuzzer: any bytes, any capacity up to two blocks.
func FuzzNodeSeries(f *testing.F) {
	f.Add(uint16(5), []byte{0, 0xff, 1, 3, 2, 1, 0, 0x83, 2, 3, 0, 7, 7, 3})
	f.Add(uint16(600), []byte{0, 3, 1, 2, 2, 3, 1, 0xff, 9, 2, 0, 0, 0x7f, 3, 3})
	f.Add(uint16(1), []byte{2, 9, 0, 0x55, 4, 1, 0xaa, 15, 3})
	f.Fuzz(func(t *testing.T, capacity uint16, ops []byte) {
		runNodeOps(t, ops, int(capacity%(2*blockPoints))+1)
	})
}

// TestNodeSeriesChunks pins the slab's shape: a node's first frame gives
// every numeric value's series one chunk of exactly that many, a frame
// that brings more metrics a second chunk of exactly those, and a node
// restored by LoadFrom holds its series in one chunk however many frames
// brought them.
func TestNodeSeriesChunks(t *testing.T) {
	st := NewStore(64)
	ns := st.Node("n")
	frame := func(t time.Duration, metrics ...string) {
		ns.AppendFrame(t, len(metrics), func(k int) (uint32, float64, bool) {
			return st.MetricID(metrics[k]), float64(k), metrics[k] != "text"
		})
	}
	shape := func(ns *NodeSeries) []int {
		ns.mu.Lock()
		defer ns.mu.Unlock()
		var lens []int
		for _, c := range ns.chunks {
			lens = append(lens, len(c), cap(c))
		}
		return append(lens, len(ns.ids), cap(ns.ids))
	}
	frame(sec(1), "d", "text", "b", "c", "a")
	early := st.Series("n", "c")
	frame(sec(2), "a", "b", "c", "d")
	if got, want := shape(ns), []int{4, 4, 4, 4}; !slices.Equal(got, want) {
		t.Fatalf("after a snapshot and a delta: chunk len, cap … ids len, cap = %v, want %v", got, want)
	}
	frame(sec(3), "b", "f", "a", "e", "e")
	if got, want := shape(ns), []int{4, 4, 2, 2, 6, 6}; !slices.Equal(got, want) {
		t.Fatalf("after new metrics: chunk len, cap … ids len, cap = %v, want %v", got, want)
	}
	if st.Series("n", "c") != early || early.Len() != 2 || st.Series("n", "e").Len() != 2 {
		t.Fatal("a series moved or lost points when a chunk was added")
	}
	if got := st.Metrics("n"); !slices.Equal(got, []string{"a", "b", "c", "d", "e", "f"}) {
		t.Fatalf("Metrics = %v", got)
	}

	var buf bytes.Buffer
	if err := st.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	back := NewStore(64)
	if err := back.LoadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := shape(back.Node("n")), []int{6, 6, 6, 6}; !slices.Equal(got, want) {
		t.Fatalf("restored: chunk len, cap … ids len, cap = %v, want %v", got, want)
	}
}

// TestNodeSeriesHammer races the read side — Compare, Range, Stats and
// Downsample (a chart's input) through handles, Metrics, Bytes — against
// frame appends that keep bringing new metrics to the same nodes, so
// chunks are added while readers walk the node and hold handles into its
// older chunks. Under -race this is the one-lock-per-node contract's test.
func TestNodeSeriesHammer(t *testing.T) {
	st := NewStore(blockPoints + 64)
	const nodes, writers, readers, frames = 4, 2, 4, 400
	names := make([]string, 24)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
	}
	var writing, reading sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < frames; i++ {
				ns := st.Node(fmt.Sprintf("n%d", (w+i)%nodes))
				metrics := names[:min(4+i/16, len(names))] // a new metric every 16 frames
				ns.AppendFrame(sec(i), len(metrics), func(k int) (uint32, float64, bool) {
					return st.MetricID(metrics[k]), float64(i%50) / 4, true
				})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			var c Comparison
			var pts []Point
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				node, metric := fmt.Sprintf("n%d", (r+i)%nodes), names[(r*7+i)%len(names)]
				switch i % 4 {
				case 0:
					st.Compare(&c, metric, 0, sec(frames))
				case 1:
					if s := st.Series(node, metric); s != nil {
						s.Range(0, sec(frames))
						s.Stats(0, sec(frames))
					}
				case 2:
					if s := st.Series(node, names[0]); s != nil {
						pts = s.Downsample(pts[:0], 0, sec(frames), 60)
						s.Tail(pts[:0], 16)
					}
				case 3:
					st.Metrics(node)
					st.Bytes()
				}
			}
		}(r)
	}
	writing.Wait()
	close(done)
	reading.Wait()
	for n := 0; n < nodes; n++ {
		if got := len(st.Metrics(fmt.Sprintf("n%d", n))); got != len(names) {
			t.Fatalf("n%d holds %d metrics, want %d", n, got, len(names))
		}
	}
}
