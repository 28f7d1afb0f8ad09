package history

import (
	"bufio"
	"encoding/base64"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Persistence keeps the §5.3.3 philosophy — history is written as text —
// and snapshots the engine's blocks directly: each block line carries
// the compressed bytes (base64), so a 4096-point series costs a handful
// of lines instead of thousands, and float values survive bit-exactly.
// The open block is one more block line: it is in the same grammar.
//
// v4 format:
//
//	clusterworx-history v4
//	series <node> <metric> <nblocks>
//	block <count> <trim> <base64-data>
//	...
//
// Loading re-appends, so a loaded store is in the current grammar. Older
// files (v3, v2, v1) are rejected with an error naming what loads: every
// build since v4 re-saved what it loaded as v4.

const (
	persistHeaderV4 = "clusterworx-history v4"

	// maxPersistBlockPoints bounds a block line's declared point count, so
	// a corrupt or hostile file cannot make the loader decode unbounded
	// garbage.
	maxPersistBlockPoints = 1 << 20
)

// SaveTo writes the whole store in the v4 block format.
func (st *Store) SaveTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, persistHeaderV4); err != nil {
		return err
	}
	open := make([]byte, 0, openCopyMax) // every series' open-block copy, in turn
	for _, nodeName := range st.Nodes() {
		for _, metric := range st.Metrics(nodeName) {
			s := st.Series(nodeName, metric)
			if s == nil {
				continue // deleted between listing and lookup: nothing to save
			}
			q := s.snapshot(math.MinInt64, math.MaxInt64, open[:0])
			blocks := q.blocks
			if q.open.sum.count > 0 {
				blocks = append(blocks[:len(blocks):len(blocks)], &q.open)
			}
			if _, err := fmt.Fprintf(bw, "series %q %q %d\n", nodeName, metric, len(blocks)); err != nil {
				return err
			}
			for i, b := range blocks {
				if _, err := fmt.Fprintf(bw, "block %d %d %s\n",
					b.sum.count, q.blockTrim(i), base64.StdEncoding.EncodeToString(b.data)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// LoadFrom merges persisted history into the store, reading the v4 block
// format. Existing series receive the loaded points subject to the usual
// ordering rule (older points than what is already present are dropped).
// A node's consecutive series — SaveTo writes each node's together — are
// decoded first and then created together, so a restored node's series
// share one slab chunk as an ingested node's do. On an error, what was
// decoded before it is kept.
func (st *Store) LoadFrom(r io.Reader) error {
	var g loadGroup
	err := st.loadLines(r, &g)
	g.flush(st)
	return err
}

// loadGroup is one node's run of consecutive series in a file, decoded
// and not yet stored: each series' points lie in pts from its lo to the
// next series' lo (or the end).
type loadGroup struct {
	node   string
	series []loadSeries
	pts    []Point
}

type loadSeries struct {
	metric string
	lo     int
}

// flush stores the group's series — the missing ones in one new chunk —
// and empties it, keeping its buffers for the next node.
func (g *loadGroup) flush(st *Store) {
	if len(g.series) == 0 {
		return
	}
	ns := st.Node(g.node)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	points := func(k int) []Point {
		if k+1 < len(g.series) {
			return g.pts[g.series[k].lo:g.series[k+1].lo]
		}
		return g.pts[g.series[k].lo:]
	}
	// A series line with no blocks makes no series, as no append would.
	idOf := func(k int) (uint32, float64, bool) {
		return st.MetricID(g.series[k].metric), 0, len(points(k)) > 0
	}
	for k := range g.series {
		id, _, ok := idOf(k)
		if !ok {
			continue
		}
		s := ns.findLocked(id)
		if s == nil {
			s = ns.addChunkLocked(id, k, len(g.series), idOf)
		}
		for _, p := range points(k) {
			s.appendLocked(p.T, p.V)
		}
		mAppends.AddAt(int(ns.stripe), int64(len(points(k))))
	}
	g.series, g.pts = g.series[:0], g.pts[:0]
}

// loadLines decodes r's series into g, flushing g whenever the node
// changes.
func (st *Store) loadLines(r io.Reader, g *loadGroup) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	if !sc.Scan() {
		return fmt.Errorf("history: empty input")
	}
	if sc.Text() != persistHeaderV4 {
		return fmt.Errorf("history: unsupported format %q (this build reads %q)", sc.Text(), persistHeaderV4)
	}
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		var nodeName, metric string
		var nblocks int
		if _, err := fmt.Sscanf(line, "series %q %q %d", &nodeName, &metric, &nblocks); err != nil {
			return fmt.Errorf("history: line %d: bad series header %q: %v", lineNo, line, err)
		}
		if nblocks < 0 {
			return fmt.Errorf("history: line %d: negative block count", lineNo)
		}
		if nodeName != g.node {
			g.flush(st)
			g.node = nodeName
		}
		g.series = append(g.series, loadSeries{metric: metric, lo: len(g.pts)})
		for i := 0; i < nblocks; i++ {
			if !sc.Scan() {
				return fmt.Errorf("history: truncated series %s/%s at block %d", nodeName, metric, i)
			}
			lineNo++
			var count, trim int
			var enc string
			if _, err := fmt.Sscanf(sc.Text(), "block %d %d %s", &count, &trim, &enc); err != nil {
				return fmt.Errorf("history: line %d: bad block line: %v", lineNo, err)
			}
			if count <= 0 || count > maxPersistBlockPoints || trim < 0 || trim >= count {
				return fmt.Errorf("history: line %d: bad block bounds count=%d trim=%d", lineNo, count, trim)
			}
			data, err := base64.StdEncoding.DecodeString(enc)
			if err != nil {
				return fmt.Errorf("history: line %d: bad block data: %v", lineNo, err)
			}
			it := newPointIter(data, count)
			decoded := 0
			for {
				t, v, ok := it.next()
				if !ok {
					break
				}
				if decoded >= trim {
					g.pts = append(g.pts, Point{T: time.Duration(t), V: v})
				}
				decoded++
			}
			if it.failed() || decoded != count {
				return fmt.Errorf("history: line %d: block decodes %d of %d points", lineNo, decoded, count)
			}
		}
	}
	return sc.Err()
}
