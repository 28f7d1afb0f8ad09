package serve

import (
	"sync"
	"sync/atomic"
)

// Gate is a single-answer generation-gated cache with request
// coalescing. The cached value is tagged with the generation it was
// computed at and served until the generation moves — no timers, no
// staleness windows: validity is "the inputs have not changed", read
// straight from the ingest path's atomic counters.
//
// Concurrency contract: a hit is one GenFn read plus one atomic pointer
// load — lock-free and allocation-free. Misses serialize on an internal
// mutex (the stdlib-only singleflight): the first goroutine rebuilds,
// every waiter re-checks after acquiring the mutex and returns the fresh
// entry without running Build. Build therefore executes once per
// generation change regardless of how many identical requests race in.
type Gate[T any] struct {
	// Name labels the gate in flight-recorder rebuild records; empty
	// skips journaling (anonymous test gates).
	Name string
	// GenFn reads the current generation of the inputs Build consumes.
	// It must be monotone non-decreasing and cheap (atomic loads).
	GenFn func() uint64
	// Stale optionally invalidates a generation-valid entry for reasons
	// outside the generation vector — the status snapshot uses it for
	// the liveness deadline (a node can go down without any ingest
	// moving the generation). Nil means generation equality suffices.
	Stale func(T) bool
	// Build computes a fresh value. It runs with no Gate-internal lock
	// visible to readers (hits never block on it) but at most once
	// concurrently per Gate.
	Build func() T

	mu sync.Mutex //cwx:lockrank gate 40
	p  atomic.Pointer[tagged[T]]
}

type tagged[T any] struct {
	gen uint64
	val T
}

// Get returns the cached value, rebuilding it if the generation moved or
// Stale says so. The generation is read before Build runs, so a
// concurrent ingest during the rebuild tags the entry conservatively:
// the very next Get sees a moved generation and rebuilds again.
//
// Freshness contract: an answer is valid for a request if it was built
// from data at least as new as everything ingested before the request
// started — e.gen >= the generation observed on entry. Under a quiet
// generation that degenerates to equality (the common hit). Under
// continuous ingest it is what keeps coalescing effective: a waiter
// whose build finished behind another's takes that fresher entry
// instead of rebuilding, so the build rate is bounded by the ingest
// rate, not the request rate — without ever serving a reader data older
// than its own request.
//
//cwx:hotpath
func (g *Gate[T]) Get() T {
	gen := g.GenFn()
	if e := g.p.Load(); e != nil && e.gen >= gen && (g.Stale == nil || !g.Stale(e.val)) {
		mHits.IncAt(int(gen))
		return e.val
	}
	// g.mu is the gate's own coalescing mutex, not a data-plane lock:
	// holding it across one Build is the singleflight contract, and
	// builders read the registry with their usual stripe/record locks
	// without ever calling back into this gate.
	g.mu.Lock()
	defer g.mu.Unlock()
	if e := g.p.Load(); e != nil && e.gen >= gen && (g.Stale == nil || !g.Stale(e.val)) {
		mCoalesced.Inc()
		return e.val
	}
	mMisses.Inc()
	noteGateRebuild(g.Name)
	gen = g.GenFn()
	v := g.Build()
	g.p.Store(&tagged[T]{gen: gen, val: v}) //cwx:allow staticalloc -- the miss path publishes a fresh snapshot; it must escape. The cached hit path above is the alloc-free one the E20 gate measures
	return v
}

// Peek returns the current entry without validating or rebuilding it,
// and whether one exists. Watch streams use it to label resync pushes.
func (g *Gate[T]) Peek() (T, bool) {
	if e := g.p.Load(); e != nil {
		return e.val, true
	}
	var zero T
	return zero, false
}
