package core

import (
	"clusterworx/internal/consolidate"
	"clusterworx/internal/transmit"
)

// Rollup materializes one tier's subtree aggregate: each Tick folds the
// current numeric values of this server's child nodes into
// count/min/max/sum series and ingests them as a snapshot frame under a
// single aggregate node name ("rack/leaf00", "row/mid00", "grid/root").
// Riding the ordinary ingest path buys everything for free: the
// aggregates land in history (trend graphs per subtree), in the serving
// plane (status/watch streams see them), and — via noteFrame — in the
// uplink dirty set, so only *changed* aggregates cross the next hop.
//
// Two modes, selected by ChildPrefix:
//
//   - raw (""): children are plain nodes (no '/' in the name); their raw
//     metrics are folded directly. This is the leaf tier.
//   - compose (e.g. "rack/"): children are themselves aggregates whose
//     names carry the prefix; their suffixed rollup metrics are combined
//     (counts and sums add, mins and maxes fold), so the tier never
//     needs raw values it does not have.
//
// Tick suppresses no-op updates: if the fold equals the previous one the
// frame is not ingested at all, so an idle subtree moves no generation,
// invalidates no cache, and sends no uplink bytes. That only works if the
// fold is a function of the children's values alone: float sums depend on
// the order of addition, so children are folded in name order, never in
// the node table's map order.
type Rollup struct {
	s           *Server
	agg         string // aggregate node name this rollup publishes
	childPrefix string // "" = raw children; else compose over this prefix

	kids    []*nodeRec // this rollup's children in name order, as of kidsGen
	kidsGen uint64     // the server's regGen when kids was built, +1 (0: never)

	acc  *consolidate.RollupAcc
	vbuf []consolidate.Value
	last []consolidate.Value // previous emission, for change suppression
}

// NewRollup builds a rollup publishing agg from this server's children.
func NewRollup(s *Server, agg, childPrefix string) *Rollup {
	return &Rollup{s: s, agg: agg, childPrefix: childPrefix, acc: consolidate.NewRollupAcc()}
}

// Agg returns the aggregate node name.
func (r *Rollup) Agg() string { return r.agg }

// Tick folds the children's current values and ingests the aggregate
// snapshot if it changed. It returns the number of children folded.
func (r *Rollup) Tick() int {
	// Read the generation before the roster: a registration racing the
	// walk leaves kidsGen stale and the next Tick rebuilds.
	if gen := r.s.regGen.Load() + 1; gen != r.kidsGen {
		r.kids = r.kids[:0]
		for _, rec := range r.s.rosterByName() {
			if r.isChild(rec.name) {
				r.kids = append(r.kids, rec)
			}
		}
		r.kidsGen = gen
	}
	r.acc.Reset()
	children := 0
	for _, rec := range r.kids {
		rec.mu.RLock()
		if !rec.seen {
			rec.mu.RUnlock()
			continue
		}
		for i, id := range rec.ids {
			if rec.flags[i]&slotText != 0 {
				continue
			}
			if r.childPrefix != "" {
				r.acc.ObserveRolled(r.s.hist.MetricName(id), rec.nums[i])
			} else if id != r.s.probeID {
				r.acc.Observe(r.s.hist.MetricName(id), rec.nums[i])
			}
		}
		rec.mu.RUnlock()
		children++
	}
	if children == 0 {
		return 0
	}
	r.vbuf = r.acc.AppendValues(r.vbuf[:0])
	if rollupEqual(r.vbuf, r.last) {
		return children
	}
	r.last = append(r.last[:0], r.vbuf...)
	//nolint:errcheck // snapshot frames never request resync
	r.s.HandleFrame(transmit.Frame{
		Node:   r.agg,
		Kind:   transmit.FrameSnapshot,
		SentNs: int64(r.s.now()),
		Values: r.vbuf,
	})
	return children
}

// isChild reports whether the named node is folded into this aggregate.
func (r *Rollup) isChild(name string) bool {
	if name == MetaNodeName || name == r.agg {
		return false
	}
	if r.childPrefix == "" {
		return !consolidate.HasRollupPrefix(name)
	}
	return len(name) > len(r.childPrefix) && name[:len(r.childPrefix)] == r.childPrefix
}

// rollupEqual compares two emissions (both sorted by metric name).
func rollupEqual(a, b []consolidate.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
