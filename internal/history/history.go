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
// immutable, so queries run on a snapshot taken under the node lock —
// the chain plus, when its points are needed, a copy of the open block's
// bytes — and do all decoding with no lock held: a dashboard scan never
// stalls agent ingest.
//
// A node's history is one object (NodeSeries): its series live by value
// in one slab under one lock, so an ingested frame takes the history lock
// once, and a young series — most of a root's — is a 104-byte slab slot
// and an open block's buffer.
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
// use. It lives by value in its node's slab (NodeSeries) and is guarded by
// the node's lock: appends mutate only the open block under it, and
// queries snapshot the closed-block chain (immutable) plus the open
// block's summary — or, when they need its points, a copy of its bytes —
// under that lock, then decode and aggregate with no lock held. A *Series
// stays valid for its store's lifetime: slab chunks never move.
type Series struct {
	// gen counts accepted appends: the serving plane's chart/spark
	// caches tag their renderings with it and short-circuit while it
	// holds (a dropped out-of-order append changes nothing, so it does
	// not bump). Atomic so cache validity checks never take the node
	// lock.
	gen atomic.Uint64

	node *NodeSeries // whose mu guards everything below

	// The open block. It is closed by the append that finds it full, so
	// once a series holds a point it is never empty and its stamp
	// predictor's Prev is the series' newest timestamp.
	open openBlock

	// closed is the chain of closed blocks, nil until the first closes:
	// most of a root's series are young and never pay for one.
	closed *chain
}

// chain is a series' closed immutable blocks, oldest first, with the
// point-exact retention state that only they carry.
type chain struct {
	blocks []*block
	points uint32 // stored points across blocks, trim deducted
	trim   uint16 // logically expired points at the front of blocks[0], fewer than a block's blockPoints
}

// NewSeries returns a series retaining the last capacity points (at most
// math.MaxInt32 of them): a one-series node of its own.
func NewSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	s := &Series{node: &NodeSeries{capacity: uint32(min(capacity, math.MaxInt32))}}
	s.init()
	return s
}

// init gives a fresh slab slot its open block's first buffer.
func (s *Series) init() {
	s.open.buf = make([]byte, 0, bufInitial)
	storeBytes.Add(bufInitial)
}

// Append adds a point. Out-of-order appends (clock skew after an agent
// restart) are dropped rather than corrupting the series' ordering.
//
//cwx:hotpath
func (s *Series) Append(t time.Duration, v float64) {
	ns := s.node
	ns.mu.Lock()
	defer ns.mu.Unlock()
	mAppends.IncAt(int(ns.stripe))
	s.appendLocked(t, v)
}

// appendLocked is Append under the node lock. The steady-state path packs
// the point's code into the open block and folds it into the summary; a
// block out of room is grown, or at its full size closed (once per
// blockPoints appends).
//
//cwx:hotpath
func (s *Series) appendLocked(t time.Duration, v float64) {
	if s.open.count > 0 && int64(t) < s.open.ts.Prev {
		mDropped.Inc()
		return
	}
	capacity := s.node.capacity
	if uint32(s.open.count) == min(capacity, blockPoints) || !s.open.room() {
		s.makeRoomLocked()
	}
	s.open.put(int64(t), v)
	if c := s.closed; c != nil && c.points+uint32(s.open.count) > capacity {
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
// the node lock.
func (s *Series) makeRoomLocked() {
	o := &s.open
	if uint32(o.count) == min(s.node.capacity, blockPoints) || cap(o.buf) == bufMax {
		s.closeLocked()
		return
	}
	storeBytes.Add(int64(cap(o.buf)) * (bufGrowth - 1))
	o.buf = append(make([]byte, 0, cap(o.buf)*bufGrowth), o.buf...)
}

// closeLocked copies the open block's bytes into an immutable block,
// which takes over its summary and gets its trend moments folded, and
// rewinds the buffer — kept at the size it reached — for the next block.
// Caller holds the node lock.
func (s *Series) closeLocked() {
	b := &block{data: s.open.bytes(), sum: s.open.summary(s.open.first())}
	for it := newPointIter(b.data, b.sum.count); ; {
		t, v, ok := it.next()
		if !ok {
			break
		}
		b.mom.add(t, v)
	}
	if s.closed == nil {
		s.closed = new(chain)
	}
	s.closed.blocks = append(s.closed.blocks, b)
	s.closed.points += uint32(b.sum.count)
	s.open.rewind()
	storeBytes.Add(b.bytes())
	mSealed.Inc()
}

// evictOneLocked expires the oldest stored point: the front block's trim
// advances, and when every point in it has expired the block's bytes are
// released. Caller holds the node lock; the chain holds a point here
// because the open block alone holds at most capacity points.
func (s *Series) evictOneLocked() {
	c := s.closed
	b := c.blocks[0]
	c.trim++
	c.points--
	if int(c.trim) == b.sum.count {
		storeBytes.Add(-b.bytes())
		c.blocks = c.blocks[1:]
		c.trim = 0
	}
}

// chainLocked returns the closed blocks and the front trim. Caller holds
// the node lock.
func (s *Series) chainLocked() ([]*block, int) {
	if s.closed == nil {
		return nil, 0
	}
	return s.closed.blocks, int(s.closed.trim)
}

// Len returns the number of stored points.
func (s *Series) Len() int {
	s.node.mu.Lock()
	defer s.node.mu.Unlock()
	n := int(s.open.count)
	if s.closed != nil {
		n += int(s.closed.points)
	}
	return n
}

// Bytes returns the series' accounted memory footprint: the open
// block's buffer at its current size plus every closed block's bytes and
// bookkeeping. It is counted from what the series holds — a buffer and a
// handful of blocks — not kept beside it.
func (s *Series) Bytes() int64 {
	s.node.mu.Lock()
	defer s.node.mu.Unlock()
	n := int64(cap(s.open.buf))
	blocks, _ := s.chainLocked()
	for _, b := range blocks {
		n += b.bytes()
	}
	return n
}

// Last returns the most recent point.
func (s *Series) Last() (Point, bool) {
	s.node.mu.Lock()
	defer s.node.mu.Unlock()
	o := &s.open
	return Point{T: time.Duration(o.ts.Prev), V: math.Float64frombits(o.vbits)}, o.count > 0
}

// qsnap is a point-in-time view of a series: the closed chain (immutable
// contents), the front trim, and the open block — as its summary when
// that answers the query, as a copy of its bytes otherwise. Everything
// after the snapshot — decoding, merging, bucketing — runs without the
// node lock, so queries never stall appends.
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
	s.node.mu.Lock()
	defer s.node.mu.Unlock()
	o := &s.open
	q := qsnap{gen: s.gen.Load(), lastT: o.ts.Prev}
	q.blocks, q.trim = s.chainLocked()
	if o.count == 0 || o.ts.Prev < lo {
		return q // nothing of the open block is in the window
	}
	firstT, firstV := o.first()
	switch {
	case firstT > hi:
		// nothing of the open block is in the window
	case into == nil && firstT >= lo && o.ts.Prev <= hi:
		q.open.sum = o.summary(firstT, firstV)
	case into == nil:
		q.open = block{data: o.bytes(), sum: o.summary(firstT, firstV)}
	default:
		q.open = block{data: o.appendBytes(into), sum: o.summary(firstT, firstV)}
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
// of two so the name hash folds with a mask; nodes first seen
// concurrently land on independent stripes.
const storeStripes = 64

// storeStripe guards which nodes it holds: the name → node map, and
// nothing of any node's contents.
type storeStripe struct {
	mu    sync.RWMutex //cwx:lockrank histstore 25
	nodes map[string]*NodeSeries
}

// NodeSeries is one node's history: its series, by value, in a slab of
// chunks that never move, and the metric ids that find them, all under
// one lock. The frame that first brings metrics the node has no series
// for gives them one chunk together, so a node whose first frame is a
// snapshot has exactly one. ids holds each chunk's metric ids ascending,
// chunk after chunk, so a lookup is a binary search in the chunk whose id
// range holds the id, and no position column is needed when a later
// chunk's ids interleave an earlier one's. The node is
// indexed through its own ids, not by id, so it costs what it holds
// however many names the rest of the cluster has brought to the metric
// table. The ingest path keeps the handle (Store.Node) and appends a whole
// frame under one acquisition of mu (AppendFrame); by-name readers go
// through the Store.
type NodeSeries struct {
	// mu guards ids, chunks and every open block and chain of the
	// node's series.
	mu       sync.Mutex //cwx:lockrank histnode 30
	st       *Store     // nil for a standalone series' node
	stripe   uint32     // the node name's stripe, the append counter's
	capacity uint32     // every series' retained points
	ids      []uint32
	chunks   [][]Series
}

// Store maps (node, metric) to series, lock-striped by node name. The
// store is safe for fully concurrent use: the stripe lock guards which
// nodes exist and each node's lock guards its series, so reads (Series
// queries, Compare) may freely race appends from agent ingest.
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
	st := &Store{capacity: min(capacity, math.MaxInt32)}
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

// Node returns the node's history, creating an empty one on first sight.
// The handle is good for the store's lifetime.
func (st *Store) Node(nodeName string) *NodeSeries {
	if ns := st.node(nodeName); ns != nil {
		return ns
	}
	sp, idx := st.stripe(nodeName)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	ns := sp.nodes[nodeName]
	if ns == nil {
		ns = &NodeSeries{st: st, stripe: idx, capacity: uint32(st.capacity)}
		sp.nodes[nodeName] = ns
	}
	return ns
}

// node returns the node's history if it has one.
func (st *Store) node(nodeName string) *NodeSeries {
	sp, _ := st.stripe(nodeName)
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	return sp.nodes[nodeName]
}

// findLocked returns the series of a metric id, or nil. Caller holds
// ns.mu.
//
//cwx:hotpath
func (ns *NodeSeries) findLocked(id uint32) *Series {
	ids := ns.ids
	for _, c := range ns.chunks {
		// A chunk whose id range misses id costs two compares, so a node
		// whose metrics came one frame at a time, a chunk each, still
		// finds one in a few nanoseconds per chunk.
		if in := ids[:len(c)]; id >= in[0] && id <= in[len(in)-1] {
			if i, ok := slices.BinarySearch(in, id); ok {
				return &c[i]
			}
		}
		ids = ids[len(c):]
	}
	return nil
}

// Append records one sample of the metric with the given id
// (Store.MetricID).
func (ns *NodeSeries) Append(id uint32, t time.Duration, v float64) {
	ns.AppendFrame(t, 1, func(int) (uint32, float64, bool) { return id, v, true })
}

// AppendFrame records one frame's samples, all taken at t, under a single
// acquisition of the node lock. sample reports the k-th of the frame's n
// values: its metric id (Store.MetricID), its number, and ok false for a
// value with nothing to record. It runs under the node lock, so it must
// only read what its caller already holds: no lock, no blocking call, no
// call back into the store but MetricID. It may be asked for a k more
// than once and must answer the same each time: the first frame that
// brings metrics the node has no series for reads ahead, so they get one
// chunk together.
//
//cwx:hotpath
func (ns *NodeSeries) AppendFrame(t time.Duration, n int, sample func(k int) (id uint32, v float64, ok bool)) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	appended := 0
	for k := 0; k < n; k++ {
		id, v, ok := sample(k)
		if !ok {
			continue
		}
		s := ns.findLocked(id)
		if s == nil {
			s = ns.addChunkLocked(id, k, n, sample)
		}
		s.appendLocked(t, v)
		appended++
	}
	mAppends.AddAt(int(ns.stripe), int64(appended))
}

// addChunkLocked gives every metric of samples k..n-1 that the node has
// no series for one new chunk — exactly as long as there are such
// metrics: a node's metric set settles within its first frame or two and
// the slab then lives as long as the node, so slack would be carried,
// never used — and returns the series of id, the k-th sample's. The id
// column is reallocated at its new exact size, the new chunk's ids
// ascending at its end. Caller holds ns.mu.
func (ns *NodeSeries) addChunkLocked(id uint32, k, n int, sample func(k int) (uint32, float64, bool)) *Series {
	missing := 0
	for j := k; j < n; j++ {
		if m, _, ok := sample(j); ok && ns.findLocked(m) == nil {
			missing++
		}
	}
	ids := append(make([]uint32, 0, len(ns.ids)+missing), ns.ids...)
	for j := k; j < n; j++ {
		if m, _, ok := sample(j); ok && ns.findLocked(m) == nil {
			ids = append(ids, m)
		}
	}
	fresh := ids[len(ns.ids):]
	slices.Sort(fresh)
	fresh = slices.Compact(fresh) // a metric twice in one frame
	chunk := make([]Series, len(fresh))
	for i := range chunk {
		chunk[i].node = ns
		chunk[i].init()
	}
	if len(fresh) < missing { // a metric twice in one frame: drop the room it kept
		ids = append(make([]uint32, 0, len(ns.ids)+len(fresh)), ids[:len(ns.ids)+len(fresh)]...)
	}
	ns.ids = ids
	ns.chunks = append(ns.chunks, chunk)
	if ns.st != nil {
		// Under the node lock: a walk that read the new count sees the
		// series.
		ns.st.created.Add(uint64(len(chunk)))
	}
	return &chunk[slices.Index(fresh, id)]
}

// Append records one sample by name: the form for callers with no handle
// to keep.
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
	ns := st.node(nodeName)
	if ns == nil {
		return nil
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.findLocked(id)
}

// Nodes returns the node names with any history, sorted.
func (st *Store) Nodes() []string {
	var out []string
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.RLock()
		for n, ns := range sp.nodes {
			ns.mu.Lock()
			if len(ns.ids) > 0 {
				out = append(out, n)
			}
			ns.mu.Unlock()
		}
		sp.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Metrics returns the metric names recorded for a node, sorted.
func (st *Store) Metrics(nodeName string) []string {
	ns := st.node(nodeName)
	if ns == nil {
		return nil
	}
	ns.mu.Lock()
	out := make([]string, len(ns.ids))
	for i, id := range ns.ids {
		out[i] = st.metrics.name(id)
	}
	ns.mu.Unlock()
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
// metric == "") to dst, unsorted, each node read under its own lock
// inside its stripe's read lock, and releases both before any per-series
// work happens: the locks are held only for the slab walk, never across
// Stats, so cross-node queries (Compare, Bytes) never stall ingest for
// long.
func (st *Store) snapshotSeries(dst []NodeStats, metric string) []NodeStats {
	id, known := st.metrics.lookup(metric)
	if metric != "" && !known {
		return dst
	}
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.RLock()
		for nodeName, ns := range sp.nodes {
			ns.mu.Lock()
			if metric == "" {
				for _, c := range ns.chunks {
					for j := range c {
						dst = append(dst, NodeStats{Node: nodeName, series: &c[j]})
					}
				}
			} else if s := ns.findLocked(id); s != nil {
				dst = append(dst, NodeStats{Node: nodeName, series: s})
			}
			ns.mu.Unlock()
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
