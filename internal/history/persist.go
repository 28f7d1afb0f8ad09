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
// Two older formats are still read, so snapshots taken before load
// unchanged. v3 is the same file around blocks whose stamps are the plain
// delta-of-delta code: the same iterator reads them, the wire's ReadDoD
// for its stamp reader. v2 is the same framing around blocks in the
// grammar before the open block (a raw first point, then delta-of-delta
// timestamps and plain XOR values — blockIter, kept for this alone), a
// fourth series field <nhead>, and after the blocks that many raw head
// points, one "<nanoseconds> <value>" line each. Loading re-appends, so a
// loaded store is in the current grammar and SaveTo always writes v4.

const (
	persistHeaderV2 = "clusterworx-history v2"
	persistHeaderV3 = "clusterworx-history v3"
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
	for _, nodeName := range st.Nodes() {
		for _, metric := range st.Metrics(nodeName) {
			s := st.Series(nodeName, metric)
			if s == nil {
				continue // deleted between listing and lookup: nothing to save
			}
			q := s.snapshot(math.MinInt64, math.MaxInt64, true)
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

// LoadFrom merges persisted history into the store, reading the v4, v3
// and v2 block formats. Existing series receive the loaded points subject
// to the usual ordering rule (older points than what is already present
// are dropped).
func (st *Store) LoadFrom(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	if !sc.Scan() {
		return fmt.Errorf("history: empty input")
	}
	switch sc.Text() {
	case persistHeaderV4:
		return st.load(sc, 4)
	case persistHeaderV3:
		return st.load(sc, 3)
	case persistHeaderV2:
		return st.load(sc, 2)
	default:
		return fmt.Errorf("history: unsupported format %q (this build reads %q, %q and %q)",
			sc.Text(), persistHeaderV4, persistHeaderV3, persistHeaderV2)
	}
}

// load reads the series of a file in the given format version.
func (st *Store) load(sc *bufio.Scanner, version int) error {
	v2 := version == 2
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		var nodeName, metric string
		var nblocks, nhead int
		var err error
		if v2 {
			_, err = fmt.Sscanf(line, "series %q %q %d %d", &nodeName, &metric, &nblocks, &nhead)
		} else {
			_, err = fmt.Sscanf(line, "series %q %q %d", &nodeName, &metric, &nblocks)
		}
		if err != nil {
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
			var it interface {
				next() (int64, float64, bool)
				failed() bool
			}
			if v2 {
				old := newBlockIter(data, count)
				it = &old
			} else {
				cur := newPointIter(data, count)
				if version == 3 {
					cur.plainDoD = true
				}
				it = &cur
			}
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

// blockIter reads a v2 file's blocks, and nothing else: the grammar
// sealed blocks had before the open block — a raw first point (64+64
// bits), then delta-of-delta timestamps and Gorilla XOR values. count
// bounds the iteration, so arbitrary (corrupt) bytes always terminate;
// after a short read next reports done and failed reports true.
type blockIter struct {
	r        bitReader
	count    int
	i        int
	t        int64
	delta    int64
	v        uint64
	leading  int
	trailing int
}

func newBlockIter(data []byte, count int) blockIter {
	return blockIter{r: bitReader{data: data}, count: count, leading: -1, trailing: -1}
}

// next returns the following point; ok is false at the end of the block
// or on a truncated/corrupt bit stream.
func (it *blockIter) next() (t int64, v float64, ok bool) {
	if it.i >= it.count || it.r.err {
		return 0, 0, false
	}
	if it.i == 0 {
		it.t = int64(it.r.readBits(64))
		it.v = it.r.readBits(64)
	} else {
		dod := readDoD(&it.r)
		it.delta += dod
		it.t += it.delta
		if it.r.readBit() == 1 {
			if it.r.readBit() == 1 {
				it.leading = int(it.r.readBits(5))
				sig := int(it.r.readBits(6)) + 1
				it.trailing = 64 - it.leading - sig
			}
			if it.trailing < 0 || it.leading < 0 {
				// Only reachable on corrupt input: a window-reuse code
				// before any window was defined, or sig overflowing it.
				it.r.err = true
				return 0, 0, false
			}
			width := uint(64 - it.leading - it.trailing)
			it.v ^= it.r.readBits(width) << uint(it.trailing)
		}
	}
	if it.r.err {
		return 0, 0, false
	}
	it.i++
	return it.t, math.Float64frombits(it.v), true
}

func (it *blockIter) failed() bool { return it.r.err }
