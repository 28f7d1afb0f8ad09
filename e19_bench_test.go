// E19 benchmarks: the compressed block-based history engine against a
// naive []Point ring ablation. Three claims are measured — append
// throughput (the head block must not cost more than the raw ring),
// bytes/sample on a monitor-shaped stream (the ≥8× compression claim),
// and aggregate-query latency (Stats/Compare answered from block
// summaries in O(blocks) instead of decoding every point).
package clusterworx

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"clusterworx/internal/history"
)

// e19Points is the working-set size: 16 full blocks' worth of samples,
// a realistic per-metric retention window.
const e19Points = 1 << 13

// e19Fill appends a monitor-shaped stream: 1 s cadence with occasional
// jitter, quantized values that dwell and step — the shape §5.3.2
// change suppression leaves behind.
func e19Fill(appendFn func(time.Duration, float64), n int) {
	ts := time.Duration(0)
	for i := 0; i < n; i++ {
		ts += time.Second
		if i%97 == 0 {
			ts += time.Duration(i%7) * time.Millisecond
		}
		appendFn(ts, 40+float64((i/64)%32)*0.5)
	}
}

// e19Ring is the pre-E19 engine: a raw []Point ring, 16 B/sample, with
// O(points) scans. Kept here as the ablation baseline.
type e19Ring struct {
	buf   []history.Point
	start int
	size  int
}

func newE19Ring(capacity int) *e19Ring { return &e19Ring{buf: make([]history.Point, capacity)} }

func (r *e19Ring) append(t time.Duration, v float64) {
	if r.size < len(r.buf) {
		r.buf[(r.start+r.size)%len(r.buf)] = history.Point{T: t, V: v}
		r.size++
		return
	}
	r.buf[r.start] = history.Point{T: t, V: v}
	r.start = (r.start + 1) % len(r.buf)
}

func (r *e19Ring) stats(t0, t1 time.Duration) history.Stats {
	var st history.Stats
	for i := 0; i < r.size; i++ {
		p := r.buf[(r.start+i)%len(r.buf)]
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

// --- append throughput ------------------------------------------------------------

func BenchmarkE19HistoryAppend(b *testing.B) {
	s := history.NewSeries(e19Points)
	ts := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts += time.Second
		s.Append(ts, 40+float64((i/64)%32)*0.5)
	}
}

func BenchmarkE19HistoryAppendNaiveRing(b *testing.B) {
	r := newE19Ring(e19Points)
	ts := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts += time.Second
		r.append(ts, 40+float64((i/64)%32)*0.5)
	}
}

// --- memory footprint -------------------------------------------------------------

// e19YoungPoints is a young series' length: what a node has reported a
// quarter of an hour after joining at a 1/min cadence, and what the
// cwxbench tree holds per series.
const e19YoungPoints = 16

// BenchmarkE19HistoryBytesPerSample reports the engine's measured
// bytes/sample on the monitor stream next to the ring's flat 16, and —
// the other end of a series' life — the accounted bytes of a series
// holding e19YoungPoints points, which is all head.
func BenchmarkE19HistoryBytesPerSample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := history.NewSeries(e19Points)
		e19Fill(s.Append, e19Points)
		b.ReportMetric(float64(s.Bytes())/float64(s.Len()), "B/sample")
		b.ReportMetric(16, "naive_B/sample")
		young := history.NewSeries(e19Points)
		e19Fill(young.Append, e19YoungPoints)
		b.ReportMetric(float64(young.Bytes()), "B/16pt-series")
	}
}

// BenchmarkE19HistoryYoungStore builds the young tree of the cwxbench fed
// and query workloads — 1 024 nodes × 32 series × 16 points — and reports
// what one series costs the allocator while it gets there: the heap
// bytes and objects allocated per series, store maps included.
func BenchmarkE19HistoryYoungStore(b *testing.B) {
	const nodes, metrics = 1024, 32
	names, metricNames := make([]string, nodes), make([]string, metrics)
	for i := range names {
		names[i] = fmt.Sprintf("n%04d", i)
	}
	for i := range metricNames {
		metricNames[i] = fmt.Sprintf("metric.%02d", i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := history.NewStore(0)
		for p := 1; p <= e19YoungPoints; p++ {
			for _, n := range names {
				for m, name := range metricNames {
					st.Append(n, name, time.Duration(p)*time.Second, float64(p+m))
				}
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	series := float64(b.N * nodes * metrics)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/series, "B/series")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/series, "allocs/series")
}

// --- aggregate queries ------------------------------------------------------------

func BenchmarkE19HistoryStatsFull(b *testing.B) {
	s := history.NewSeries(e19Points)
	e19Fill(s.Append, e19Points)
	span := time.Duration(e19Points+64) * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := s.Stats(0, span); st.N != e19Points {
			b.Fatalf("Stats.N = %d", st.N)
		}
	}
}

func BenchmarkE19HistoryStatsFullNaiveRing(b *testing.B) {
	r := newE19Ring(e19Points)
	e19Fill(r.append, e19Points)
	span := time.Duration(e19Points+64) * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := r.stats(0, span); st.N != e19Points {
			b.Fatalf("stats.N = %d", st.N)
		}
	}
}

// --- Compare across a cluster -----------------------------------------------------

const e19CompareNodes = 64

func e19Store(b *testing.B) *history.Store {
	b.Helper()
	st := history.NewStore(e19Points)
	names := make([]string, e19CompareNodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%04d", i)
	}
	ts := time.Duration(0)
	for i := 0; i < e19Points; i++ {
		ts += time.Second
		v := 40 + float64((i/64)%32)*0.5
		for _, n := range names {
			st.Append(n, "load.1", ts, v)
		}
	}
	return st
}

// BenchmarkE19HistoryCompare measures the §5.1 compare-nodes view over
// a 64-node cluster: per-node Stats from block summaries, aggregated
// outside the stripe lock.
func BenchmarkE19HistoryCompare(b *testing.B) {
	st := e19Store(b)
	span := time.Duration(e19Points+64) * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c history.Comparison // from scratch: every node aggregated
		if st.Compare(&c, "load.1", 0, span); len(c.Nodes) != e19CompareNodes {
			b.Fatalf("Compare returned %d nodes", len(c.Nodes))
		}
	}
}

func BenchmarkE19HistoryCompareNaiveRing(b *testing.B) {
	rings := make([]*e19Ring, e19CompareNodes)
	for i := range rings {
		rings[i] = newE19Ring(e19Points)
		e19Fill(rings[i].append, e19Points)
	}
	span := time.Duration(e19Points+64) * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rings {
			if st := r.stats(0, span); st.N != e19Points {
				b.Fatalf("stats.N = %d", st.N)
			}
		}
	}
}
