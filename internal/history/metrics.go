package history

import (
	"strings"
	"sync"
	"sync/atomic"
)

// metricTable is the server's one table of metric names: name → id and
// id → name, append-only, holding the only copy of each string. A
// homogeneous cluster reports the same few dozen names from every node,
// so everything kept per node — the registry's value columns, the store's
// series slabs — carries 4-byte ids and resolves them here.
//
// Lock-free on both sides. The id → name side is a directory of
// fixed-size chunks republished by compare-and-swap when it grows; a
// slot is written only by the goroutine that drew its id, before ids
// publishes it. Two goroutines racing the first sight of one name each
// draw an id and the loser's stays unused: ids are unique, not dense,
// which costs nothing because nothing per node is indexed by them (see
// NodeSeries).
type metricTable struct {
	ids  sync.Map // string → uint32
	next atomic.Uint32
	dir  atomic.Pointer[[]*metricChunk]
}

const metricChunkLen = 64

type metricChunk [metricChunkLen]string

// lookup returns name's id if the table has one.
//
//cwx:hotpath
func (mt *metricTable) lookup(name string) (uint32, bool) {
	if id, ok := mt.ids.Load(name); ok {
		return id.(uint32), true
	}
	return 0, false
}

// add gives a name its id, cloning it out of whatever it was parsed from
// — off the wire that is a slice of a frame.
func (mt *metricTable) add(name string) uint32 {
	name = strings.Clone(name)
	id := mt.next.Add(1) - 1
	mt.chunk(id)[id%metricChunkLen] = name
	have, _ := mt.ids.LoadOrStore(name, id)
	return have.(uint32)
}

// chunk returns the chunk holding id's slot, extending the directory to it.
func (mt *metricTable) chunk(id uint32) *metricChunk {
	k := int(id / metricChunkLen)
	for {
		old := mt.dir.Load()
		var dir []*metricChunk
		if old != nil {
			dir = *old
		}
		if k < len(dir) {
			return dir[k]
		}
		grown := make([]*metricChunk, k+1)
		copy(grown, dir)
		for i := len(dir); i <= k; i++ {
			grown[i] = new(metricChunk)
		}
		if mt.dir.CompareAndSwap(old, &grown) {
			return grown[k]
		}
	}
}

// name resolves an id the table handed out.
//
//cwx:hotpath
func (mt *metricTable) name(id uint32) string {
	return (*mt.dir.Load())[id/metricChunkLen][id%metricChunkLen]
}

// MetricID returns the id of a metric name, giving it one on first sight.
// The table grows with the distinct names ever ingested; readers resolving
// a name somebody typed use LookupMetric, which never adds.
//
//cwx:hotpath
func (st *Store) MetricID(name string) uint32 {
	if id, ok := st.metrics.lookup(name); ok {
		return id
	}
	return st.metrics.add(name)
}

// LookupMetric returns the id of a metric name some series or record may
// carry; ok is false for a name never ingested.
func (st *Store) LookupMetric(name string) (id uint32, ok bool) {
	return st.metrics.lookup(name)
}

// MetricName returns the table's one copy of the name behind an id that
// MetricID or LookupMetric returned.
//
//cwx:hotpath
func (st *Store) MetricName(id uint32) string { return st.metrics.name(id) }
