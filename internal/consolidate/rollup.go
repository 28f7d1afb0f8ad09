package consolidate

import (
	"sort"
	"strings"
)

// Subtree rollups (hierarchical federation). Each tier summarizes the
// raw metrics of its subtree into four derived series per metric —
// count, min, max, sum — published under an aggregate node name
// ("rack/leaf00", "row/mid00", "grid/root"). The four are closed under
// composition: a parent combines its children's rollups without seeing
// any raw value (counts and sums add; mins and maxes fold), so a
// root's "cpu.load.max" over 100k nodes is exact while only aggregate
// values ever crossed the upper hops. Mean is left to the reader
// (.sum/.cnt) — it does not compose, the closed four do.

// Rollup metric-name suffixes.
const (
	RollupCount = ".cnt"
	RollupMin   = ".min"
	RollupMax   = ".max"
	RollupSum   = ".sum"
)

// rollupSuffixLen is the length all four suffixes share.
const rollupSuffixLen = 4

// SplitRollup splits a rollup metric name into its base metric and
// suffix. ok is false for names that are not rollup-formed.
func SplitRollup(name string) (base, suffix string, ok bool) {
	if len(name) <= rollupSuffixLen {
		return name, "", false
	}
	suffix = name[len(name)-rollupSuffixLen:]
	switch suffix {
	case RollupCount, RollupMin, RollupMax, RollupSum:
		return name[:len(name)-rollupSuffixLen], suffix, true
	}
	return name, "", false
}

// rollupEnt is one base metric's fold state. The ordering folds carry
// first-observation flags because suffixed child values arrive in any
// order within a tick, so cnt cannot double as the emptiness test. names
// are the four metric names the fold is emitted under, built once when
// the entry is made, so a tick allocates none.
type rollupEnt struct {
	cnt, min, max, sum float64
	minSeen, maxSeen   bool
	names              [4]string // base + RollupCount, RollupMin, RollupMax, RollupSum
}

// RollupAcc folds observations into per-metric count/min/max/sum. One
// accumulator per aggregate node, reused across ticks: Reset, observe
// the children, AppendValues.
type RollupAcc struct {
	m     map[string]*rollupEnt
	order []string // insertion-ordered keys, sorted at emit
}

// NewRollupAcc returns an empty accumulator.
func NewRollupAcc() *RollupAcc {
	return &RollupAcc{m: make(map[string]*rollupEnt)}
}

// Reset clears the fold state, keeping the entries (and their names)
// for reuse.
func (a *RollupAcc) Reset() {
	for _, k := range a.order {
		e := a.m[k]
		*e = rollupEnt{names: e.names}
	}
}

// ent returns the fold entry for base, creating it zeroed on first
// sight. A zero cnt means untouched this tick.
func (a *RollupAcc) ent(base string) *rollupEnt {
	e := a.m[base]
	if e == nil {
		e = &rollupEnt{names: [4]string{base + RollupCount, base + RollupMin, base + RollupMax, base + RollupSum}}
		a.m[base] = e
		a.order = append(a.order, base)
	}
	return e
}

// Observe folds one raw child value (the leaf tier, whose children
// report plain metrics).
func (a *RollupAcc) Observe(metric string, v float64) {
	e := a.ent(metric)
	if !e.minSeen || v < e.min {
		e.min, e.minSeen = v, true
	}
	if !e.maxSeen || v > e.max {
		e.max, e.maxSeen = v, true
	}
	e.cnt++
	e.sum += v
}

// ObserveRolled folds one already-rolled child value (upper tiers, whose
// children are themselves aggregates). Non-rollup-formed names are
// ignored and reported false.
func (a *RollupAcc) ObserveRolled(metric string, v float64) bool {
	base, suffix, ok := SplitRollup(metric)
	if !ok {
		return false
	}
	e := a.ent(base)
	switch suffix {
	case RollupCount:
		e.cnt += v
	case RollupMin:
		if !e.minSeen || v < e.min {
			e.min, e.minSeen = v, true
		}
	case RollupMax:
		if !e.maxSeen || v > e.max {
			e.max, e.maxSeen = v, true
		}
	case RollupSum:
		e.sum += v
	}
	return true
}

// AppendValues emits the fold as dynamic numeric values, sorted by
// metric name, four per touched base metric. Entries untouched this
// tick (cnt 0 with zero fold) are skipped. With room in dst it allocates
// nothing.
func (a *RollupAcc) AppendValues(dst []Value) []Value {
	sort.Strings(a.order)
	for _, base := range a.order {
		e := a.m[base]
		if e.cnt == 0 {
			continue
		}
		dst = append(dst,
			NumValue(e.names[0], Dynamic, e.cnt),
			NumValue(e.names[1], Dynamic, e.min),
			NumValue(e.names[2], Dynamic, e.max),
			NumValue(e.names[3], Dynamic, e.sum),
		)
	}
	return dst
}

// IsRollupMetric reports whether name carries a rollup suffix.
func IsRollupMetric(name string) bool {
	_, _, ok := SplitRollup(name)
	return ok
}

// HasRollupPrefix reports whether a node name belongs to the aggregate
// namespace (contains a '/'; raw nodes never do — transmit's name
// validation predates federation and aggregate names deliberately use
// a character cluster node names never carried).
func HasRollupPrefix(node string) bool {
	return strings.IndexByte(node, '/') >= 0
}
