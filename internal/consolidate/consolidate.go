// Package consolidate implements the consolidation stage of the monitoring
// pipeline (paper §5.3.2): bringing data from multiple sources at
// independent gathering rates together on the node, determining which
// values have changed, filtering, and caching so that simultaneous
// requests are served from the same data set.
//
// The stage runs exclusively on the monitored node "because the node is
// the gatherer and provider of the monitored data"; only its output (the
// change set) crosses the network, which is the paper's answer to the
// network-bandwidth half of the monitoring-overhead problem.
package consolidate

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"clusterworx/internal/telemetry"
)

// Self-monitoring series for the consolidation stage (shared across all
// consolidators in the process; an agent fleet in one simulation rolls up
// into one pipeline view, exactly like a fleet of identical nodes).
var (
	mTicks      = telemetry.Default().Counter("cwx_consolidate_ticks_total")
	mCollected  = telemetry.Default().Counter("cwx_consolidate_values_collected_total")
	mChanged    = telemetry.Default().Counter("cwx_consolidate_values_changed_total")
	mSuppressed = telemetry.Default().Counter("cwx_consolidate_values_suppressed_total")
	mSourceErrs = telemetry.Default().Counter("cwx_consolidate_source_failures_total")
	mGatherNs   = telemetry.Default().Histogram("cwx_gather_collect_ns")
	mTickNs     = telemetry.Default().Histogram("cwx_consolidate_tick_ns")
	mDeltaSize  = telemetry.Default().Histogram("cwx_consolidate_delta_values")
)

// Kind classifies a monitored value as static or dynamic (§5.3.2). Static
// values (CPU type, total memory, kernel version) are expected to change
// rarely or never and are transmitted only on change — effectively once.
type Kind uint8

// Value kinds.
const (
	Static Kind = iota
	Dynamic
)

// String returns "static" or "dynamic".
func (k Kind) String() string {
	if k == Static {
		return "static"
	}
	return "dynamic"
}

// Value is one monitored datum. Either Num or Text carries the value,
// selected by IsText; names are dotted paths like "cpu.load1".
type Value struct {
	Name   string
	Kind   Kind
	Num    float64
	Text   string
	IsText bool
}

// NumValue constructs a numeric Value.
func NumValue(name string, kind Kind, v float64) Value {
	return Value{Name: name, Kind: kind, Num: v}
}

// TextValue constructs a string Value.
func TextValue(name string, kind Kind, s string) Value {
	return Value{Name: name, Kind: kind, Text: s, IsText: true}
}

// Equal reports whether two values carry the same payload (name and kind
// are assumed to match).
func (v Value) Equal(o Value) bool {
	if v.IsText != o.IsText {
		return false
	}
	if v.IsText {
		return v.Text == o.Text
	}
	return v.Num == o.Num
}

// Render returns the value payload as text, the form both the GUI and the
// wire format use.
func (v Value) Render() string {
	if v.IsText {
		return v.Text
	}
	return strconv.FormatFloat(v.Num, 'g', -1, 64)
}

// Source produces a batch of values when collected. A source is typically
// one gatherer (meminfo, stat, ...) wrapped by the monitor registry.
type Source interface {
	// Name identifies the source in error reports.
	Name() string
	// Collect appends current values to dst and returns it.
	Collect(dst []Value) ([]Value, error)
}

// FuncSource adapts a function to the Source interface.
type FuncSource struct {
	SourceName string
	Fn         func(dst []Value) ([]Value, error)
}

// Name implements Source.
func (s FuncSource) Name() string { return s.SourceName }

// Collect implements Source.
func (s FuncSource) Collect(dst []Value) ([]Value, error) { return s.Fn(dst) }

// Stats counts consolidation activity for the E5 experiment.
type Stats struct {
	Ticks          int64 // consolidation rounds
	Collected      int64 // values gathered in total
	Changed        int64 // values whose payload differed from last time
	Suppressed     int64 // values filtered out as unchanged
	CacheHits      int64 // snapshots served from cache
	CacheBuilds    int64 // snapshots built fresh
	SourceFailures int64 // collect errors
}

// Consolidator merges sources at independent rates and tracks change
// state. Methods are safe for concurrent use: one goroutine ticks, any
// number snapshot.
type Consolidator struct {
	mu      sync.Mutex //cwx:lockrank consolidator 6
	sources []*sourceState
	current map[string]Value
	order   []string
	ordered bool
	dirty   map[string]struct{}
	tick    int64

	cacheSnap  []Value
	cacheTick  int64
	cacheValid bool

	stats   Stats
	onError func(source string, err error)

	scratch    []Value  // Collect scratch
	deltaNames []string // Delta scratch: sorted dirty names
	deltaBuf   []Value  // Delta scratch: returned slice, reused per call

	// Most recent Tick's wall-clock split, recorded only while telemetry
	// is enabled; the agent journals it on a sampled tick's first hops.
	lastGather    time.Duration
	lastCons      time.Duration
	lastCollected int
}

type sourceState struct {
	src   Source
	every int64 // collect on ticks where tick % every == phase
	phase int64
}

// New returns an empty Consolidator.
func New() *Consolidator {
	return &Consolidator{
		current: make(map[string]Value),
		dirty:   make(map[string]struct{}),
	}
}

// OnError installs a hook invoked when a source fails to collect. Failures
// are otherwise counted and skipped: one broken monitor must not take down
// node monitoring.
func (c *Consolidator) OnError(fn func(source string, err error)) {
	c.mu.Lock()
	c.onError = fn
	c.mu.Unlock()
}

// AddSource registers src to be collected every 'every' ticks (minimum 1).
// Independent rates are the paper's way of sampling cheap files often and
// expensive ones rarely.
func (c *Consolidator) AddSource(src Source, every int) {
	if every < 1 {
		every = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sources = append(c.sources, &sourceState{
		src:   src,
		every: int64(every),
		phase: int64(len(c.sources)) % int64(every), // stagger starts
	})
}

// Tick runs one consolidation round: collects every due source, updates
// the current set, and marks changed values dirty. It invalidates the
// snapshot cache only if something changed.
func (c *Consolidator) Tick() {
	// Stage timing uses the wall clock, not the simulation clock: the
	// point is the real CPU cost of gathering and consolidating, which a
	// virtual clock would report as zero.
	on := telemetry.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	var gatherNs int64
	var collected, changed, suppressed, failures int64
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Ticks++
	changedAny := false
	for _, st := range c.sources {
		if c.tick%st.every != st.phase {
			continue
		}
		var err error
		if on {
			g0 := time.Now()
			c.scratch, err = st.src.Collect(c.scratch[:0])
			gatherNs += int64(time.Since(g0))
		} else {
			c.scratch, err = st.src.Collect(c.scratch[:0])
		}
		if err != nil {
			c.stats.SourceFailures++
			failures++
			if c.onError != nil {
				fn, name := c.onError, st.src.Name()
				c.mu.Unlock()
				fn(name, err)
				c.mu.Lock()
			}
			continue
		}
		collected += int64(len(c.scratch))
		for _, v := range c.scratch {
			c.stats.Collected++
			old, seen := c.current[v.Name]
			if seen && old.Equal(v) {
				c.stats.Suppressed++
				suppressed++
				continue
			}
			if !seen {
				c.order = append(c.order, v.Name)
				c.ordered = false
			}
			c.current[v.Name] = v
			c.dirty[v.Name] = struct{}{}
			c.stats.Changed++
			changed++
			changedAny = true
		}
	}
	c.tick++
	if changedAny {
		c.cacheValid = false
	}
	if on {
		total := int64(time.Since(t0))
		c.lastGather = time.Duration(gatherNs)
		c.lastCons = time.Duration(total - gatherNs)
		c.lastCollected = int(collected)
		mTicks.Inc()
		mCollected.Add(collected)
		mChanged.Add(changed)
		mSuppressed.Add(suppressed)
		if failures > 0 {
			mSourceErrs.Add(failures)
		}
		mGatherNs.Observe(gatherNs)
		mTickNs.Observe(total)
	}
}

// TickTelemetry returns the wall-clock split of the most recent Tick —
// time spent inside source Collect calls (gathering) vs the remainder
// (change detection and bookkeeping) — and the number of values
// collected. Recorded only while telemetry is enabled.
func (c *Consolidator) TickTelemetry() (gather, consolidate time.Duration, collected int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastGather, c.lastCons, c.lastCollected
}

// Snapshot returns the full current value set in stable name order.
// Snapshots between ticks are served from a shared cache — the paper's
// request cache "so that simultaneous requests can be served using the
// same set of data". Callers must not modify the returned slice.
func (c *Consolidator) Snapshot() []Value {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cacheValid {
		c.stats.CacheHits++
		return c.cacheSnap
	}
	c.stats.CacheBuilds++
	c.sortOrderLocked()
	// Rebuilds allocate fresh rather than reusing the previous cache's
	// backing array: earlier callers may still be reading the old snapshot
	// (that sharing is the whole point of the cache), so overwriting it in
	// place would be a data race. The cache already makes rebuilds rare —
	// one per tick that actually changed data.
	snap := make([]Value, 0, len(c.order))
	for _, name := range c.order {
		snap = append(snap, c.current[name])
	}
	c.cacheSnap = snap
	c.cacheTick = c.tick
	c.cacheValid = true
	return snap
}

// Delta returns the values that changed since the previous Delta call, in
// stable name order, and clears the change set. This is what the
// transmission stage ships: "only data that has changed since the last
// transmission".
//
// The returned slice reuses an internal scratch buffer and is only valid
// until the next Delta call; the transmission stage marshals it
// immediately, which keeps the once-per-period hot path allocation-free.
// Callers that retain a delta must copy it.
//
//cwx:hotpath
func (c *Consolidator) Delta() []Value {
	c.mu.Lock()
	defer c.mu.Unlock()
	mDeltaSize.Observe(int64(len(c.dirty)))
	if len(c.dirty) == 0 {
		return nil
	}
	names := c.deltaNames[:0]
	for name := range c.dirty {
		names = append(names, name)
	}
	sort.Strings(names)
	out := c.deltaBuf[:0]
	for _, name := range names {
		out = append(out, c.current[name])
	}
	c.deltaNames = names
	c.deltaBuf = out
	clear(c.dirty)
	return out
}

// PendingChanges returns the number of values awaiting transmission.
func (c *Consolidator) PendingChanges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.dirty)
}

// Get returns the current value by name.
func (c *Consolidator) Get(name string) (Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.current[name]
	return v, ok
}

// Stats returns a copy of the activity counters.
func (c *Consolidator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Consolidator) sortOrderLocked() {
	if !c.ordered {
		sort.Strings(c.order)
		c.ordered = true
	}
}
