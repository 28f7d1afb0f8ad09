package history

import (
	"bufio"
	"encoding/base64"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// Persistence keeps the §5.3.3 philosophy — history is written as text —
// but the v2 format snapshots the engine's sealed blocks directly: each
// block line carries the compressed bytes (base64), so a 4096-point
// series costs a handful of lines instead of thousands, and float values
// survive bit-exactly. Head points are written as raw lines with exact
// (strconv 'g'/-1) formatting.
//
// v2 format:
//
//	clusterworx-history v2
//	series <node> <metric> <nblocks> <nhead>
//	block <count> <trim> <base64-data>
//	...
//	<nanoseconds> <value>
//	...
//
// v1 ("clusterworx-history v1": one "<seconds> <value>" line per point)
// is still read, so snapshots taken before the block engine load
// unchanged. SaveTo always writes v2.

const (
	persistHeader   = "clusterworx-history v1"
	persistHeaderV2 = "clusterworx-history v2"

	// maxPersistBlockPoints bounds a v2 block line's declared point
	// count, so a corrupt or hostile file cannot make the loader decode
	// unbounded garbage.
	maxPersistBlockPoints = 1 << 20
)

// SaveTo writes the whole store in the v2 block format.
func (st *Store) SaveTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, persistHeaderV2); err != nil {
		return err
	}
	for _, nodeName := range st.Nodes() {
		for _, metric := range st.Metrics(nodeName) {
			s := st.Series(nodeName, metric)
			if s == nil {
				continue // deleted between listing and lookup: nothing to save
			}
			q := s.snapshot(math.MinInt64, math.MaxInt64, true)
			if _, err := fmt.Fprintf(bw, "series %q %q %d %d\n", nodeName, metric, len(q.blocks), len(q.head)); err != nil {
				return err
			}
			for i, b := range q.blocks {
				if _, err := fmt.Fprintf(bw, "block %d %d %s\n",
					b.sum.count, q.blockTrim(i), base64.StdEncoding.EncodeToString(b.data)); err != nil {
					return err
				}
			}
			for _, p := range q.head {
				if _, err := fmt.Fprintf(bw, "%d %s\n", int64(p.T), strconv.FormatFloat(p.V, 'g', -1, 64)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// LoadFrom merges persisted history into the store, reading both the v2
// block format and the v1 point-per-line format. Existing series receive
// the loaded points subject to the usual ordering rule (older points
// than what is already present are dropped).
func (st *Store) LoadFrom(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	if !sc.Scan() {
		return fmt.Errorf("history: empty input")
	}
	switch sc.Text() {
	case persistHeaderV2:
		return st.loadV2(sc)
	case persistHeader:
		return st.loadV1(sc)
	default:
		return fmt.Errorf("history: bad header %q", sc.Text())
	}
}

func (st *Store) loadV2(sc *bufio.Scanner) error {
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		var nodeName, metric string
		var nblocks, nhead int
		if _, err := fmt.Sscanf(line, "series %q %q %d %d", &nodeName, &metric, &nblocks, &nhead); err != nil {
			return fmt.Errorf("history: line %d: bad series header %q: %v", lineNo, line, err)
		}
		if nblocks < 0 || nhead < 0 {
			return fmt.Errorf("history: line %d: negative series counts", lineNo)
		}
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
			it := newBlockIter(data, count)
			decoded := 0
			for {
				t, v, ok := it.next()
				if !ok {
					break
				}
				if decoded >= trim {
					st.Append(nodeName, metric, time.Duration(t), v)
				}
				decoded++
			}
			if it.failed() || decoded != count {
				return fmt.Errorf("history: line %d: block decodes %d of %d points", lineNo, decoded, count)
			}
		}
		for i := 0; i < nhead; i++ {
			if !sc.Scan() {
				return fmt.Errorf("history: truncated series %s/%s at head point %d", nodeName, metric, i)
			}
			lineNo++
			nsStr, valStr, ok := strings.Cut(sc.Text(), " ")
			if !ok {
				return fmt.Errorf("history: line %d: bad point %q", lineNo, sc.Text())
			}
			ns, err := strconv.ParseInt(nsStr, 10, 64)
			if err != nil {
				return fmt.Errorf("history: line %d: bad timestamp: %v", lineNo, err)
			}
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				return fmt.Errorf("history: line %d: bad value: %v", lineNo, err)
			}
			st.Append(nodeName, metric, time.Duration(ns), v)
		}
	}
	return sc.Err()
}

func (st *Store) loadV1(sc *bufio.Scanner) error {
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		var nodeName, metric string
		var n int
		if _, err := fmt.Sscanf(line, "series %q %q %d", &nodeName, &metric, &n); err != nil {
			return fmt.Errorf("history: line %d: bad series header %q: %v", lineNo, line, err)
		}
		for i := 0; i < n; i++ {
			if !sc.Scan() {
				return fmt.Errorf("history: truncated series %s/%s at point %d", nodeName, metric, i)
			}
			lineNo++
			secStr, valStr, ok := strings.Cut(sc.Text(), " ")
			if !ok {
				return fmt.Errorf("history: line %d: bad point %q", lineNo, sc.Text())
			}
			sec, err := strconv.ParseFloat(secStr, 64)
			if err != nil {
				return fmt.Errorf("history: line %d: bad timestamp: %v", lineNo, err)
			}
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				return fmt.Errorf("history: line %d: bad value: %v", lineNo, err)
			}
			st.Append(nodeName, metric, time.Duration(sec*float64(time.Second)), v)
		}
	}
	return sc.Err()
}
