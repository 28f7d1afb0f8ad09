// Package history stores monitor values over time for the paper's §5.1
// historical graphing: "the administrator can chart monitoring values over
// time ... view cluster use and performance trends over a selected time
// interval, analyze the relationships between monitored values, or compare
// performance between nodes."
//
// Each (node, metric) pair owns one chain of compressed blocks in one
// grammar (block.go), the last of them open: an append bit-packs the
// point straight into the open block's buffer — a delta-of-delta stamp on
// the clock's own power-of-ten grid, the wire's decimal-aware value code —
// allocation-free in steady state, and folds it into the block's running
// aggregate (count, min, max, sum, first; the newest point is the
// predictors' state). There is no raw head, so memory follows information at
// every age: a young series pays for the bytes its points code to. A
// full block closes by copying its exact bytes out, and the same buffer
// starts the next one. Aggregate queries — Stats, Compare, Trend — merge
// summaries, the open block's included, in O(blocks) and decode only the
// at-most-two blocks straddling the query boundaries; Range and
// Downsample prune non-overlapping blocks by summary and stream-decode
// the rest without materializing intermediate slices. Closed blocks are
// immutable, so queries run on a snapshot taken under the series lock —
// the chain plus, when its points are needed, a copy of the open block's
// bytes — and do all decoding with no lock held: a dashboard scan never
// stalls agent ingest.
//
// Retention is point-exact: a series holds the last `capacity` points,
// logically trimming the oldest closed block one point at a time (the
// block's bytes go away when its last point expires), so the engine is
// observationally identical to a plain ring of `capacity` points.
package history

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clusterworx/internal/telemetry"
)

// Self-monitoring series for the history store. Appends ride the store's
// node-name hash as their counter stripe, so 64 concurrent agents do not
// serialize on one counter cache line. The seal/decode counters make the
// summary fast path observable: a healthy dashboard workload shows
// summary hits growing much faster than block decodes.
var (
	mAppends     = telemetry.Default().Counter("cwx_history_appends_total")
	mDropped     = telemetry.Default().Counter("cwx_history_dropped_total")
	mDownsample  = telemetry.Default().Counter("cwx_history_downsample_total")
	mSealed      = telemetry.Default().Counter("cwx_history_blocks_sealed_total")
	mSummaryHits = telemetry.Default().Counter("cwx_history_summary_hits_total")
	mDecodes     = telemetry.Default().Counter("cwx_history_block_decodes_total")
)

// storeBytes tracks the process-wide history footprint (open-block
// buffers plus closed blocks), exposed as the cwx_history_bytes gauge so
// the meta-monitor charts its own retention cost.
var storeBytes atomic.Int64

func init() {
	telemetry.Default().GaugeFunc("cwx_history_bytes", func() float64 {
		return float64(storeBytes.Load())
	})
}

// Point is one sample.
type Point struct {
	T time.Duration // virtual or wall offset, monotone per series
	V float64
}

// DefaultCapacity is the per-series retained point count.
const DefaultCapacity = 4096

// Series is a bounded time-ordered sample store, safe for concurrent
// use: appends mutate only the open block under the series lock, and
// queries snapshot the closed-block chain (immutable) plus the open
// block's summary — or, when they need its points, a copy of its bytes —
// under that lock, then decode and aggregate with no lock held.
type Series struct {
	// gen counts accepted appends: the serving plane's chart/spark
	// caches tag their renderings with it and short-circuit while it
	// holds (a dropped out-of-order append changes nothing, so it does
	// not bump). Atomic so cache validity checks never take the series
	// lock.
	gen atomic.Uint64

	mu sync.Mutex //cwx:lockrank series 30

	// The open block. It is closed by the append that finds it full, so
	// once a series holds a point it is never empty and its stamp
	// predictor's Prev is the series' newest timestamp.
	open openBlock

	// Closed immutable blocks, oldest first. trim is the count of
	// logically expired points at the front of blocks[0], fewer than a
	// block's blockPoints.
	blocks []*block

	capacity uint32 // retained points (the ring's size, not a block's)
	total    uint32 // stored points across blocks (minus trim) and the open block
	trim     uint16
}

// NewSeries returns a series retaining the last capacity points (at most
// math.MaxInt32 of them).
func NewSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	s := &Series{capacity: uint32(min(capacity, math.MaxInt32))}
	s.open.buf = make([]byte, 0, bufInitial)
	storeBytes.Add(bufInitial)
	return s
}

// Append adds a point. Out-of-order appends (clock skew after an agent
// restart) are dropped rather than corrupting the series' ordering. The
// steady-state path packs the point's code into the open block and folds
// it into the summary; a block out of room is grown, or at its full size
// closed (once per blockPoints appends).
//
//cwx:hotpath
func (s *Series) Append(t time.Duration, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.total > 0 && int64(t) < s.open.ts.Prev {
		mDropped.Inc()
		return
	}
	if uint32(s.open.count) == min(s.capacity, blockPoints) || !s.open.room() {
		s.makeRoomLocked()
	}
	s.open.put(int64(t), v)
	s.total++
	if s.total > s.capacity {
		s.evictOneLocked()
	}
	s.gen.Add(1)
}

// Gen returns the series' append generation: it moves exactly when the
// stored data does, so a rendering tagged with it is valid until the
// series accepts another point.
//
//cwx:hotpath
func (s *Series) Gen() uint64 { return s.gen.Load() }

// makeRoomLocked enlarges or closes an open block that cannot take the
// next point: short of blockPoints points (or of capacity, so the open
// block alone never outgrows the ring) and of the top step, the buffer
// grows by bufGrowth; otherwise the block closes. Kept out of line (it is
// too big to inline) so Append's own body never allocates. Caller holds
// s.mu.
func (s *Series) makeRoomLocked() {
	o := &s.open
	if uint32(o.count) == min(s.capacity, blockPoints) || cap(o.buf) == bufMax {
		s.closeLocked()
		return
	}
	storeBytes.Add(int64(cap(o.buf)) * (bufGrowth - 1))
	o.buf = append(make([]byte, 0, cap(o.buf)*bufGrowth), o.buf...)
}

// closeLocked copies the open block's bytes into an immutable block,
// which takes over its summary and gets its trend moments folded, and
// rewinds the buffer — kept at the size it reached — for the next block.
// Caller holds s.mu.
func (s *Series) closeLocked() {
	b := &block{data: s.open.bytes(), sum: s.open.summary()}
	for it := newPointIter(b.data, b.sum.count); ; {
		t, v, ok := it.next()
		if !ok {
			break
		}
		b.mom.add(t, v)
	}
	s.blocks = append(s.blocks, b)
	s.open.rewind()
	storeBytes.Add(b.bytes())
	mSealed.Inc()
}

// evictOneLocked expires the oldest stored point: the front block's trim
// advances, and when every point in it has expired the block's bytes are
// released. Caller holds s.mu; blocks is never empty here because the
// open block alone holds at most capacity points.
func (s *Series) evictOneLocked() {
	b := s.blocks[0]
	s.trim++
	s.total--
	if int(s.trim) == b.sum.count {
		storeBytes.Add(-b.bytes())
		s.blocks = s.blocks[1:]
		s.trim = 0
	}
}

// Len returns the number of stored points.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.total)
}

// Bytes returns the series' accounted memory footprint: the open
// block's buffer at its current size plus every closed block's bytes and
// bookkeeping. It is counted from what the series holds — a buffer and a
// handful of blocks — not kept beside it.
func (s *Series) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int64(cap(s.open.buf))
	for _, b := range s.blocks {
		n += b.bytes()
	}
	return n
}

// Last returns the most recent point.
func (s *Series) Last() (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := &s.open
	return Point{T: time.Duration(o.ts.Prev), V: math.Float64frombits(o.vs.bits)}, o.count > 0
}

// qsnap is a point-in-time view of a series: the closed chain (immutable
// contents), the front trim, and the open block — as its summary when
// that answers the query, as a copy of its bytes otherwise. Everything
// after the snapshot — decoding, merging, bucketing — runs without the
// series lock, so queries never stall appends.
type qsnap struct {
	blocks []*block
	trim   int
	open   block  // the open block where it meets the window (count 0: it does not); data nil: the summary stands in
	gen    uint64 // the series' append generation
	lastT  int64  // the series' newest timestamp
}

// snapshot captures the series for a query over [lo, hi]. An open block
// that misses the window is left out. A query that needs the points
// (Range, Downsample, Tail, Trend, SaveTo) passes a non-nil into, and an
// overlapping open block is copied into it — written bytes plus the
// pending bits; a stack array of openCopyMax bytes takes any open block,
// so the copy allocates nothing. With into nil (Stats) one wholly inside
// the window is represented by its running summary — no copy — and only
// one the window cuts is copied, into a fresh slice.
func (s *Series) snapshot(lo, hi int64, into []byte) qsnap {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := &s.open
	q := qsnap{blocks: s.blocks, trim: int(s.trim), gen: s.gen.Load(), lastT: o.ts.Prev}
	switch {
	case o.count == 0 || o.ts.Prev < lo || o.firstT > hi:
		// nothing of the open block is in the window
	case into == nil && o.firstT >= lo && o.ts.Prev <= hi:
		q.open.sum = o.summary()
	case into == nil:
		q.open = block{data: o.bytes(), sum: o.summary()}
	default:
		q.open = block{data: o.appendBytes(into), sum: o.summary()}
	}
	return q
}

// blockTrim returns the effective trim for block i (only the oldest
// block can be partially expired).
func (q *qsnap) blockTrim(i int) int {
	if i == 0 {
		return q.trim
	}
	return 0
}

// decodeBlock streams b's points with t0 <= T <= t1 into fn, skipping
// the first trim points. Points within a block are time-ordered, so the
// scan stops at the first point past t1.
func decodeBlock(b *block, trim int, t0, t1 int64, fn func(t int64, v float64)) {
	mDecodes.Inc()
	it := newPointIter(b.data, b.sum.count)
	for j := 0; j < trim; j++ {
		it.next()
	}
	for {
		t, v, ok := it.next()
		if !ok || t > t1 {
			return
		}
		if t >= t0 {
			fn(t, v)
		}
	}
}

// fold walks the stored points with lo <= T <= hi in time order. Blocks
// entirely outside the window are pruned by summary alone. A closed,
// untrimmed block entirely inside it goes to merge whole, and every other
// overlapping block is decoded into add; a nil merge decodes them all. An
// open block whose summary stands in is the caller's to merge: handing a
// callback a pointer into q would move every query's snapshot to the
// heap.
func (q *qsnap) fold(lo, hi int64, merge func(*block), add func(t int64, v float64)) {
	for i, b := range q.blocks {
		switch {
		case b.sum.lastT < lo:
			mSummaryHits.Inc()
			continue
		case b.sum.firstT > hi:
			mSummaryHits.Inc()
		case merge != nil && q.blockTrim(i) == 0 && b.sum.firstT >= lo && b.sum.lastT <= hi:
			mSummaryHits.Inc()
			merge(b)
			continue
		default:
			decodeBlock(b, q.blockTrim(i), lo, hi, add)
			continue
		}
		break // firstT > hi: later blocks are entirely past the window
	}
	if q.open.data != nil {
		decodeBlock(&q.open, 0, lo, hi, add)
	}
}

// each streams every stored point with t0 <= T <= t1 into fn.
func (q *qsnap) each(t0, t1 time.Duration, fn func(t int64, v float64)) {
	q.fold(int64(t0), int64(t1), nil, fn)
}

// Range returns the points with t0 <= T <= t1, oldest first.
func (s *Series) Range(t0, t1 time.Duration) []Point {
	var open [openCopyMax]byte
	q := s.snapshot(int64(t0), int64(t1), open[:0])
	var out []Point
	q.each(t0, t1, func(t int64, v float64) {
		out = append(out, Point{T: time.Duration(t), V: v})
	})
	return out
}

// Tail appends the newest n points to dst, oldest first. Where Range
// decodes every block of its window, Tail decodes only the trailing blocks
// the n points lie in — the open one alone when it holds them — and
// appends no point it then drops, so a dst with room for n allocates
// nothing.
func (s *Series) Tail(dst []Point, n int) []Point {
	n = max(n, 0)
	var open [openCopyMax]byte
	q := s.snapshot(math.MinInt64, math.MaxInt64, open[:0])
	have, first := q.open.sum.count, len(q.blocks)
	for ; first > 0 && have < n; first-- {
		have += q.blocks[first-1].sum.count - q.blockTrim(first-1)
	}
	if first > 0 {
		q.blocks, q.trim = q.blocks[first:], 0
	}
	skip := have - n // the older points of the first block decoded
	q.each(math.MinInt64, math.MaxInt64, func(t int64, v float64) {
		if skip > 0 {
			skip--
			return
		}
		dst = append(dst, Point{T: time.Duration(t), V: v})
	})
	return dst
}

// Stats aggregates the range [t0, t1].
type Stats struct {
	N         int
	Min, Max  float64
	Mean      float64
	First     Point
	LastPoint Point
}

// Stats computes aggregates over a range in O(blocks): blocks — the open
// one too — fully inside the window are merged from their summaries;
// only the at-most-two blocks straddling the window boundaries (plus a
// partially expired front block) are decoded, and the open block is
// copied only when the window cuts it.
func (s *Series) Stats(t0, t1 time.Duration) Stats {
	st, _ := s.statsGen(t0, t1)
	return st
}

// statsGen is Stats plus the append generation the result stays good
// for: while Gen still returns it, every window from t0 to LastPoint.T or
// later aggregates the same points. It is 0 — no generation, a series
// that exists has accepted a point — when [t0, t1] ends before the
// series' newest point, whose Stats a later window end would change.
func (s *Series) statsGen(t0, t1 time.Duration) (Stats, uint64) {
	lo, hi := int64(t0), int64(t1)
	q := s.snapshot(lo, hi, nil)
	var st Stats
	var sum float64
	add := func(t int64, v float64) {
		if st.N == 0 {
			st.Min, st.Max, st.First = v, v, Point{T: time.Duration(t), V: v}
		}
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		sum += v
		st.LastPoint = Point{T: time.Duration(t), V: v}
		st.N++
	}
	// merge folds in a block lying wholly inside the window from its
	// summary. Initializing from firstV and folding the NaN-skipping
	// minV/maxV reproduces exactly the per-point scan's result (see
	// summary docs).
	merge := func(b *block) {
		sm := &b.sum
		if st.N == 0 {
			st.Min, st.Max = sm.firstV, sm.firstV
			st.First = Point{T: time.Duration(sm.firstT), V: sm.firstV}
		}
		if sm.minV < st.Min {
			st.Min = sm.minV
		}
		if sm.maxV > st.Max {
			st.Max = sm.maxV
		}
		sum += sm.sumV
		st.LastPoint = Point{T: time.Duration(sm.lastT), V: sm.lastV}
		st.N += sm.count
	}
	q.fold(lo, hi, merge, add)
	if q.open.data == nil && q.open.sum.count > 0 {
		mSummaryHits.Inc()
		merge(&q.open)
	}
	if st.N > 0 {
		st.Mean = sum / float64(st.N)
	}
	if q.lastT > hi {
		return st, 0
	}
	return st, q.gen
}

// Trend returns the least-squares slope over [t0, t1] in value units per
// hour — the "predict future computing needs" primitive. ok is false with
// fewer than two points or zero time spread. Like Stats, fully covered
// closed blocks contribute their precomputed moments, so the fit is
// O(blocks) plus the boundary decodes; the open block has no moments yet
// and is decoded when the window reaches it.
func (s *Series) Trend(t0, t1 time.Duration) (perHour float64, ok bool) {
	var open [openCopyMax]byte
	q := s.snapshot(int64(t0), int64(t1), open[:0])
	var n int
	var sumY float64
	var m moments
	add := func(t int64, v float64) {
		m.add(t, v)
		sumY += v
		n++
	}
	merge := func(b *block) {
		m.sumX += b.mom.sumX
		m.sumXX += b.mom.sumXX
		m.sumXY += b.mom.sumXY
		sumY += b.sum.sumV
		n += b.sum.count
	}
	q.fold(int64(t0), int64(t1), merge, add)
	if n < 2 {
		return 0, false
	}
	nf := float64(n)
	den := nf*m.sumXX - m.sumX*m.sumX
	if den == 0 {
		return 0, false
	}
	return (nf*m.sumXY - m.sumX*sumY) / den, true
}

// Downsample buckets [t0, t1] into n equal intervals and appends to dst
// the mean of each non-empty bucket, timestamped at the bucket midpoint —
// the chart renderer's input. Points stream straight from the compressed
// blocks in time order, so buckets fill one after another and a single
// running sum serves them all: nothing is allocated beside what dst
// grows by.
func (s *Series) Downsample(dst []Point, t0, t1 time.Duration, n int) []Point {
	if n <= 0 || t1 <= t0 {
		return dst
	}
	width := (t1 - t0) / time.Duration(n)
	if width <= 0 {
		return dst
	}
	mDownsample.Inc()
	var open [openCopyMax]byte
	q := s.snapshot(int64(t0), int64(t1), open[:0])
	bucket, count, sum := 0, 0, 0.0
	flush := func() {
		if count > 0 {
			dst = append(dst, Point{T: t0 + width*time.Duration(bucket) + width/2, V: sum / float64(count)})
		}
	}
	q.each(t0, t1, func(t int64, v float64) {
		if b := min(int((time.Duration(t)-t0)/width), n-1); b != bucket {
			flush()
			bucket, count, sum = b, 0, 0
		}
		sum += v
		count++
	})
	flush()
	return dst
}

// storeStripes is the lock-stripe count for the store's node map. A power
// of two so the name hash folds with a mask; appends from agents reporting
// concurrently land on independent stripes.
const storeStripes = 64

// storeStripe guards which nodes it holds and, for each of them, which
// series: a NodeSeries' two columns are read under mu and change only
// under its write side.
type storeStripe struct {
	mu    sync.RWMutex //cwx:lockrank histstore 25
	nodes map[string]*NodeSeries
}

// NodeSeries is one node's series slab: the ids of the metrics it has
// history for, ascending, and their series beside them. It is indexed
// through the node's own id column, not by id, so a node costs what it
// holds however many names the rest of the cluster has brought to the
// metric table. The ingest path keeps the handle (Store.Node) and appends
// by id; by-name readers go through the Store.
type NodeSeries struct {
	st     *Store
	stripe uint32 // index of the stripe whose lock guards the columns
	name   string
	ids    []uint32
	series []*Series
}

// Store maps (node, metric) to series, lock-striped by node name so
// concurrent appends for different nodes never contend. The store is safe
// for fully concurrent use: the stripe lock guards node and series
// membership and the per-series lock guards each open block, so reads
// (Series queries, Compare) may freely race appends from agent ingest.
type Store struct {
	capacity int
	stripes  [storeStripes]storeStripe
	// created counts series creations: while it holds, the set of
	// (node, metric) pairs — every Comparison's roster — is unchanged.
	created atomic.Uint64
	metrics metricTable
}

// NewStore returns a store creating series of the given capacity
// (0 = DefaultCapacity).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	st := &Store{capacity: capacity}
	for i := range st.stripes {
		st.stripes[i].nodes = make(map[string]*NodeSeries)
	}
	return st
}

// stripe hashes a node name to its stripe with FNV-1a. The index is
// returned alongside so instrumented callers can reuse it as their
// telemetry counter stripe.
func (st *Store) stripe(nodeName string) (*storeStripe, uint32) {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(nodeName); i++ {
		h ^= uint32(nodeName[i])
		h *= prime32
	}
	idx := h & (storeStripes - 1)
	return &st.stripes[idx], idx
}

// Node returns the node's series slab, creating an empty one on first
// sight. The handle is good for the store's lifetime.
func (st *Store) Node(nodeName string) *NodeSeries {
	sp, idx := st.stripe(nodeName)
	sp.mu.RLock()
	ns := sp.nodes[nodeName]
	sp.mu.RUnlock()
	if ns != nil {
		return ns
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if ns = sp.nodes[nodeName]; ns == nil {
		ns = &NodeSeries{st: st, stripe: idx, name: nodeName}
		sp.nodes[nodeName] = ns
	}
	return ns
}

// findLocked returns the series of a metric id, or nil. Caller holds the
// stripe lock.
//
//cwx:hotpath
func (ns *NodeSeries) findLocked(id uint32) *Series {
	if i, ok := slices.BinarySearch(ns.ids, id); ok {
		return ns.series[i]
	}
	return nil
}

// Append records one sample of the metric with the given id
// (Store.MetricID). The steady-state path is a read-locked search of the
// node's id column plus the per-series append lock; the stripe write lock
// is only taken the first time the node reports the metric.
//
//cwx:hotpath
func (ns *NodeSeries) Append(id uint32, t time.Duration, v float64) {
	mAppends.IncAt(int(ns.stripe))
	sp := &ns.st.stripes[ns.stripe]
	sp.mu.RLock()
	s := ns.findLocked(id)
	sp.mu.RUnlock()
	if s == nil {
		s = ns.create(id)
	}
	s.Append(t, v)
}

// create adds the series of a metric the node has not reported before.
// Both columns grow by exactly one slot: a node's metric set settles
// within its first frame or two and the slab then lives as long as the
// node, so slack would be carried, never used.
func (ns *NodeSeries) create(id uint32) *Series {
	sp := &ns.st.stripes[ns.stripe]
	sp.mu.Lock()
	defer sp.mu.Unlock()
	i, ok := slices.BinarySearch(ns.ids, id)
	if ok {
		return ns.series[i]
	}
	s := NewSeries(ns.st.capacity)
	ns.ids, ns.series = insertExact(ns.ids, i, id), insertExact(ns.series, i, s)
	ns.st.created.Add(1) // under the stripe lock: a walk that read the new count sees the series
	return s
}

// insertExact returns a copy of s with v at i and no spare capacity.
func insertExact[T any](s []T, i int, v T) []T {
	out := append(make([]T, 0, len(s)+1), s[:i]...)
	return append(append(out, v), s[i:]...)
}

// Append records one sample by name: the form for callers with no handle
// to keep, such as the persistence loader.
func (st *Store) Append(nodeName, metric string, t time.Duration, v float64) {
	st.Node(nodeName).Append(st.MetricID(metric), t, v)
}

// Series returns the series for (node, metric), or nil. The returned
// series is safe to query while appends race it.
func (st *Store) Series(nodeName, metric string) *Series {
	id, ok := st.metrics.lookup(metric)
	if !ok {
		return nil
	}
	sp, _ := st.stripe(nodeName)
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	if ns := sp.nodes[nodeName]; ns != nil {
		return ns.findLocked(id)
	}
	return nil
}

// Nodes returns the node names with any history, sorted.
func (st *Store) Nodes() []string {
	var out []string
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.RLock()
		for n, ns := range sp.nodes {
			if len(ns.series) > 0 {
				out = append(out, n)
			}
		}
		sp.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Metrics returns the metric names recorded for a node, sorted.
func (st *Store) Metrics(nodeName string) []string {
	sp, _ := st.stripe(nodeName)
	var out []string
	sp.mu.RLock()
	if ns := sp.nodes[nodeName]; ns != nil {
		out = make([]string, len(ns.ids))
		for i, id := range ns.ids {
			out[i] = st.metrics.name(id)
		}
	}
	sp.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Bytes returns the store's accounted history footprint across every
// series.
func (st *Store) Bytes() int64 {
	var total int64
	for _, n := range st.snapshotSeries(nil, "") {
		total += n.series.Bytes()
	}
	return total
}

// NodeStats is one node's row of a Comparison. Fresh is set by the
// Compare call that aggregated Stats, and clear when that call found the
// series unchanged and kept them.
type NodeStats struct {
	Node string
	Stats
	Fresh  bool
	series *Series
	gen    uint64 // statsGen's: the series generation Stats are good for, 0 for none
}

// Comparison is each node's Stats for one metric over a window — the
// "compare performance between nodes" view — sorted by node name. The
// zero value is empty; Store.Compare fills it and brings it up to date.
type Comparison struct {
	Nodes  []NodeStats
	walked uint64 // Store.created + 1 when the roster was read; 0: never
}

// snapshotSeries appends the series of one metric (every series when
// metric == "") to dst, unsorted, under each stripe's read lock, and
// releases it before any per-series work happens. This keeps cross-node
// queries (Compare, Bytes) from stalling new-series creation during
// ingest: the stripe lock is held only for the slab walk, never across
// Stats.
func (st *Store) snapshotSeries(dst []NodeStats, metric string) []NodeStats {
	id, known := st.metrics.lookup(metric)
	if metric != "" && !known {
		return dst
	}
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.RLock()
		for nodeName, ns := range sp.nodes {
			if metric == "" {
				for _, s := range ns.series {
					dst = append(dst, NodeStats{Node: nodeName, series: s})
				}
			} else if s := ns.findLocked(id); s != nil {
				dst = append(dst, NodeStats{Node: nodeName, series: s})
			}
		}
		sp.mu.RUnlock()
	}
	return dst
}

// Compare brings c up to date with each node's Stats for one metric over
// [t0, t1]. A c that Compare filled before, for the same metric and t0,
// is the row cache: it keeps its roster while no series was created
// anywhere in the store, and the Stats of every series that has accepted
// no point since, so the cost is an atomic load per node plus one Stats
// call per node that changed. Stats run with no store lock held, so a
// cluster-wide comparison never blocks a new node's first sample.
func (st *Store) Compare(c *Comparison, metric string, t0, t1 time.Duration) {
	if walked := st.created.Load() + 1; c.walked != walked {
		c.Nodes = st.snapshotSeries(c.Nodes[:0], metric)
		slices.SortFunc(c.Nodes, func(a, b NodeStats) int { return strings.Compare(a.Node, b.Node) })
		c.walked = walked
	}
	for i := range c.Nodes {
		n := &c.Nodes[i]
		n.Fresh = n.gen != n.series.Gen() || n.LastPoint.T > t1
		if n.Fresh {
			n.Stats, n.gen = n.series.statsGen(t0, t1)
		}
	}
}
