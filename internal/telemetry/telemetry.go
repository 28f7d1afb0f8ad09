// Package telemetry is the management stack's self-monitoring core: a
// dependency-free set of atomic counters, gauges and fixed-bucket
// histograms with snapshot-on-read. It holds aggregates only: what one
// sampled frame did at each pipeline stage is recorded once, in the
// flight journal (internal/flight), and a histogram's exemplar names
// such a frame by its trace id.
//
// Production monitoring stacks instrument themselves — a monitor that
// cannot quantify its own intrusiveness cannot keep the promise that it
// is cheap — so every hot path of this reproduction (gathering,
// consolidation, transmission, server ingest, event evaluation,
// notification, history) records into this package. The recording side
// is allocation-free and lock-free: counters and histogram cells are
// cache-line-striped atomics, so concurrent agents never serialize on a
// metric, and readers assemble snapshots without stopping writers. A
// snapshot taken while writers race is internally consistent per atomic
// cell but may be a few updates skewed across cells — diagnostic-grade,
// exactly what an exposition scrape needs.
//
// The whole layer sits behind one switch (SetEnabled): with telemetry
// off, every recording call is a single atomic load and branch, which is
// what the instrumented-vs-stripped ablation benchmark measures.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled gates every hot-path recording call.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// On reports whether telemetry recording is enabled. Hot paths that pay
// setup cost beyond the recording calls themselves (a clock read, a
// timing split) check it once up front.
func On() bool { return enabled.Load() }

// SetEnabled switches recording on or off process-wide and returns the
// previous state. Metric values freeze while disabled; they are not
// reset.
func SetEnabled(on bool) (prev bool) { return enabled.Swap(on) }

// Stripes is the cell count of striped metrics, a power of two. Hot
// callers spread concurrent writers across cache lines by passing a
// stripe hint (the server passes its shard index); the zero-argument
// methods use stripe 0.
const Stripes = 8

// cell is one padded counter stripe: the padding keeps two stripes from
// sharing a cache line, so concurrent writers on different stripes never
// bounce ownership.
type cell struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing striped atomic counter.
type Counter struct {
	cells [Stripes]cell
}

// Inc adds one on stripe 0.
func (c *Counter) Inc() { c.AddAt(0, 1) }

// Add adds n on stripe 0.
func (c *Counter) Add(n int64) { c.AddAt(0, n) }

// IncAt adds one on the given stripe (folded with a mask).
func (c *Counter) IncAt(stripe int) { c.AddAt(stripe, 1) }

// AddAt adds n on the given stripe (folded with a mask).
//
//cwx:hotpath
func (c *Counter) AddAt(stripe int, n int64) {
	if !enabled.Load() {
		return
	}
	c.cells[stripe&(Stripes-1)].n.Add(n)
}

// Load sums the stripes.
func (c *Counter) Load() int64 {
	var sum int64
	for i := range c.cells {
		sum += c.cells[i].n.Load()
	}
	return sum
}

// Gauge is a last-value-wins float64, stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
//
//cwx:hotpath
func (g *Gauge) Set(v float64) {
	if !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// NumBuckets is the fixed bucket count of every histogram. Buckets are
// powers of two: bucket 0 holds v ≤ 0, bucket i (0 < i < NumBuckets-1)
// holds v in [2^(i-1), 2^i), and the last bucket is unbounded. One
// layout serves both latencies (nanoseconds up to ~4.5 minutes at full
// resolution) and sizes (values/bytes up to 2^38).
const NumBuckets = 40

// histStripe is one stripe of a histogram. Stripes are not padded
// individually — the bucket array is already larger than a cache line,
// so only same-stripe writers share lines, and those are spread by the
// caller's stripe hint.
type histStripe struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// Histogram is a fixed-bucket striped atomic histogram. It also keeps
// one exemplar: the flight trace id attached to the largest traced
// observation seen so far, so a p99 in the rendered output links to the
// exact frame that caused it (ObserveTraceAt / Exemplar).
type Histogram struct {
	stripes [Stripes]histStripe
	exVal   atomic.Int64
	exTrace atomic.Uint64
}

// Observe records v on stripe 0.
func (h *Histogram) Observe(v int64) { h.ObserveAt(0, v) }

// ObserveAt records v on the given stripe (folded with a mask).
//
//cwx:hotpath
func (h *Histogram) ObserveAt(stripe int, v int64) {
	if !enabled.Load() {
		return
	}
	s := &h.stripes[stripe&(Stripes-1)]
	s.buckets[bucketOf(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
}

// ObserveTraceAt is ObserveAt plus exemplar maintenance: when trace is
// nonzero and v is the largest traced observation yet, the (v, trace)
// pair is retained. The max is a CAS loop on the value; the trace store
// after a won CAS is not paired atomically with it, so under a race two
// near-simultaneous maxima may cross value and trace — both were worst
// observations to within one sample, which is all an exemplar promises.
//
//cwx:hotpath
func (h *Histogram) ObserveTraceAt(stripe int, v int64, trace uint64) {
	h.ObserveAt(stripe, v)
	if trace == 0 || !enabled.Load() {
		return
	}
	for {
		cur := h.exVal.Load()
		if v < cur {
			return
		}
		if h.exVal.CompareAndSwap(cur, v) {
			h.exTrace.Store(trace)
			return
		}
	}
}

// Exemplar returns the largest traced observation and its flight trace
// id; trace is 0 when nothing traced was ever observed.
func (h *Histogram) Exemplar() (v int64, trace uint64) {
	return h.exVal.Load(), h.exTrace.Load()
}

// bucketOf maps a value to its bucket index with one bit-length
// instruction — no branches per bucket, no allocation.
//
//cwx:hotpath
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b > NumBuckets-2 {
		return NumBuckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper bound of bucket i. The last
// bucket is unbounded and reports math.MaxInt64.
func BucketBound(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= NumBuckets-1:
		return math.MaxInt64
	default:
		return int64(1)<<uint(i) - 1
	}
}

// HistSnapshot is a point-in-time copy of a histogram, merged across
// stripes. Taken with atomic loads while writers continue; cross-cell
// skew of a few in-flight updates is possible and acceptable.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Buckets [NumBuckets]int64
}

// Snapshot merges the stripes into a read-only copy.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.stripes {
		st := &h.stripes[i]
		s.Count += st.count.Load()
		s.Sum += st.sum.Load()
		for b := range st.buckets {
			s.Buckets[b] += st.buckets[b].Load()
		}
	}
	return s
}

// Mean returns the arithmetic mean of all observations.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the approximate q-quantile (q in [0,1]) as the upper
// bound of the bucket where the cumulative count crosses q — accurate to
// one power of two, which is all a regression alarm needs. An empty
// histogram reports 0; a quantile landing in the unbounded overflow
// bucket reports the next power of two past the largest finite bound.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(q*float64(s.Count) + 0.5)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		if cum >= target {
			if i == NumBuckets-1 {
				break
			}
			return float64(BucketBound(i))
		}
	}
	return float64(int64(1) << uint(NumBuckets-1))
}

// --- registry ---------------------------------------------------------------------

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// metric is one registered entry; exactly one payload field is set,
// selected by kind.
type metric struct {
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
	cf   func() int64
	gf   func() float64
}

// Registry names metrics and renders them. Registration takes the
// registry lock and may allocate; it happens at package/agent setup, not
// on hot paths — the returned handles record with atomics only.
type Registry struct {
	mu     sync.Mutex //cwx:lockrank registry 57
	byName map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// std is the process-wide default registry every instrumented package
// records into, mirroring how the monitored nodes share one /proc.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// get returns the entry for name, creating it with mk if absent. A name
// re-registered as a different kind is a programming error and panics.
func (r *Registry) get(name string, kind metricKind, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s already registered with a different kind", name))
		}
		return m
	}
	m := mk()
	r.byName[name] = m
	return m
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	return r.get(name, kindCounter, func() *metric { return &metric{kind: kindCounter, c: &Counter{}} }).c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	return r.get(name, kindGauge, func() *metric { return &metric{kind: kindGauge, g: &Gauge{}} }).g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	return r.get(name, kindHistogram, func() *metric { return &metric{kind: kindHistogram, h: &Histogram{}} }).h
}

// CounterFunc registers (or replaces) a counter read through fn at
// exposition time — for values an instance already maintains elsewhere.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.mu.Lock()
	r.byName[name] = &metric{kind: kindCounterFunc, cf: fn}
	r.mu.Unlock()
}

// GaugeFunc registers (or replaces) a gauge read through fn at
// exposition time.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	r.byName[name] = &metric{kind: kindGaugeFunc, gf: fn}
	r.mu.Unlock()
}

type namedMetric struct {
	name string
	m    *metric
}

// list snapshots the registered metrics sorted by name, so expositions
// and walks are stable across calls.
func (r *Registry) list() []namedMetric {
	r.mu.Lock()
	out := make([]namedMetric, 0, len(r.byName))
	for name, m := range r.byName {
		out = append(out, namedMetric{name, m})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// histograms as cumulative le-buckets plus _sum and _count. Empty
// buckets are elided (any subset of cumulative buckets is valid), the
// +Inf bucket always present.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, nm := range r.list() {
		var err error
		switch nm.m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", nm.name, nm.name, nm.m.c.Load())
		case kindCounterFunc:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", nm.name, nm.name, nm.m.cf())
		case kindGauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", nm.name, nm.name, nm.m.g.Load())
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", nm.name, nm.name, nm.m.gf())
		case kindHistogram:
			err = writeHistogram(w, nm.name, nm.m.h.Snapshot())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, s HistSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum int64
	for i := 0; i < NumBuckets-1; i++ {
		if s.Buckets[i] == 0 {
			continue
		}
		cum += s.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, BucketBound(i), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		name, s.Count, name, s.Sum, name, s.Count)
	return err
}

// Walk calls fn with a flattened scalar view of every metric, sorted by
// name: counters and gauges report their value under their own name;
// histograms contribute <name>_count, <name>_mean, <name>_p50 and
// <name>_p99. This is the feed the meta-monitor turns back into monitor
// values, so the event engine can set thresholds on the stack's own
// health.
func (r *Registry) Walk(fn func(name string, v float64)) {
	for _, nm := range r.list() {
		switch nm.m.kind {
		case kindCounter:
			fn(nm.name, float64(nm.m.c.Load()))
		case kindCounterFunc:
			fn(nm.name, float64(nm.m.cf()))
		case kindGauge:
			fn(nm.name, nm.m.g.Load())
		case kindGaugeFunc:
			fn(nm.name, nm.m.gf())
		case kindHistogram:
			s := nm.m.h.Snapshot()
			fn(nm.name+"_count", float64(s.Count))
			fn(nm.name+"_mean", s.Mean())
			fn(nm.name+"_p50", s.Quantile(0.50))
			fn(nm.name+"_p99", s.Quantile(0.99))
		}
	}
}
