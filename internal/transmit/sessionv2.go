package transmit

import (
	"cmp"
	"encoding/binary"
	"slices"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/history"
)

// The v2 session core: what the single-node frame (framev2.go) and the
// batch frame (batchv2.go) share, written once. A session is a sender and
// a receiver holding mirrored state: a name dictionary that grows at its
// tail and is acked as a prefix, and a bank of predictors that chains from
// frame to frame. A family adds only layout — where node id, snapshot bit
// and trace context sit, which predictor a value is coded against, and
// what a chain break salvages. The shared grammar:
//
//	prefix:   0x02 flags
//	          uvarint seq           never 0
//	          uvarint tailStart     dictionary tail: the sender's unacked
//	          uvarint tailCount     entries [tailStart, tailStart+tailCount),
//	          tailCount × {uvarint len, bytes}   resent every frame until acked
//	section:  count × uvarint (id<<2 | dynamic<<1 | isText)   meta column
//	          per text value: {uvarint len, bytes}            text column
//	trace context:  uvarint traceID, uvarint zigzag(traceNs)
//	bit column:  DoD(sentNs), then per numeric value the value code
//	          (history.ValueState: 0 unchanged | 10 XOR | 11 decimal)
//
// Loss tolerance: the predictors chain across frames, so a frame body is
// decodable only when it directly follows the last decoded one (seq
// continuity) or carries the chain-reset flag (first frames, rebases
// after send errors, single-node snapshots); any error breaks the chain
// until such a frame arrives. A single-node decoder still returns the
// header (node, seq, kind) with ErrV2Desync so the gap→diverge→resync
// machinery runs unchanged and the healing snapshot resets both sides; a
// batch has no header to return. Dictionary acks ("!wack n") bound tail
// resends; "!wreset" asks the sender to rebase from entry 0 (a reset
// frame with tailStart 0), which the decoder adopts wholesale — the
// recovery path for a restarted peer.

// maxV2NameLen bounds one dictionary entry; hostnames and metric names
// are tens of bytes, so anything huge is corruption, not data.
const maxV2NameLen = 4096

// maxV2Entries and maxV2Pairs bound what a peer can make a receiver
// hold: dictionary entries and (node, metric) predictor pairs. A 100 k-
// node top link names ~100 k nodes and, at an agent's ~55 metrics,
// ~5.5 M pairs; both bounds leave more than twice that. A single-node
// session keeps the last text of at most maxKeptTexts ids: a node sends
// a handful.
const (
	maxV2Entries = 1 << 18
	maxV2Pairs   = 1 << 24
	maxKeptTexts = 16
)

// predBank is one end's predictors: the timestamp's, and the values' —
// one per dictionary id (single-node, see perID) or one per (node,
// metric) pair (batch, see pair).
type predBank struct {
	time history.DoDState
	vals []history.ValueState
	// rows says, for a batch session, where each pair's predictor sits in
	// vals: indexed by the node's dictionary id, a row lists the node's
	// metrics in dictionary-id order. A row is as long as its node has
	// metrics, whatever else shares the dictionary.
	rows  [][]pairSlot
	spill history.ValueState // stands in for the pairs past maxV2Pairs
}

// pairSlot places one metric of a node's row in predBank.vals.
type pairSlot struct{ metric, idx uint32 }

func (s pairSlot) cmp(metricID uint32) int { return cmp.Compare(s.metric, metricID) }

// reset zeroes every predictor: both ends do it on a chain-reset frame.
func (b *predBank) reset() {
	clear(b.vals)
	b.time = history.DoDState{}
}

// drop forgets the predictors with the dictionary ids that keyed them.
func (b *predBank) drop() {
	b.vals = b.vals[:0]
	clear(b.rows)
}

// perID sizes the bank for a single-node session: one predictor per
// dictionary entry. Cold, and kept out of the hot callers' bodies.
func (b *predBank) perID(entries int) {
	for len(b.vals) < entries {
		b.vals = append(b.vals, history.ValueState{})
	}
}

// pair returns the predictor of a (node, metric) pair, allocating one on
// first sight; a search of the node's row is the steady state. Both ends
// allocate in payload order, so the pairing needs no wire bytes. ok is
// false past maxV2Pairs: a receiver drops the session there, so what a
// sender codes against the spill predictor is never read.
//
//cwx:hotpath
func (b *predBank) pair(nodeID, metricID uint32) (p *history.ValueState, ok bool) {
	if int(nodeID) < len(b.rows) {
		row := b.rows[nodeID]
		if i, ok := slices.BinarySearchFunc(row, metricID, pairSlot.cmp); ok {
			return &b.vals[row[i].idx], true
		}
	}
	return b.addPair(nodeID, metricID)
}

// addPair is pair's first sight of a pair, out of line. The row grows by
// the one slot: a node's metrics settle within a frame or two and the row
// then lives as long as the session.
func (b *predBank) addPair(nodeID, metricID uint32) (p *history.ValueState, ok bool) {
	if len(b.vals) >= maxV2Pairs {
		return &b.spill, false
	}
	if n := int(nodeID) + 1; n > len(b.rows) {
		b.rows = append(b.rows, make([][]pairSlot, n-len(b.rows))...)
	}
	row := b.rows[nodeID]
	i, _ := slices.BinarySearchFunc(row, metricID, pairSlot.cmp)
	grown := append(make([]pairSlot, 0, len(row)+1), row[:i]...)
	grown = append(grown, pairSlot{metric: metricID, idx: uint32(len(b.vals))})
	b.rows[nodeID] = append(grown, row[i:]...)
	b.vals = append(b.vals, history.ValueState{})
	return &b.vals[len(b.vals)-1], true
}

// encCore is the sending side of a v2 session.
type encCore struct {
	entries []string
	ids     map[string]uint32
	acked   int // dictionary prefix the receiver confirmed
	preds   predBank
	started bool
	rebase  bool // force the next frame to carry a chain reset
	bw      history.BitWriter
	bitbuf  []byte // bit-column scratch, reused across frames
}

// Ack records the receiver's dictionary confirmation ("!wack n"): the
// first n entries need not be resent. Stale or absurd acks are ignored.
func (e *encCore) Ack(n int) {
	if n > e.acked && n <= len(e.entries) {
		e.acked = n
	}
}

// ResetTable handles a "!wreset": the receiver lost the dictionary, so
// resend it all and reset the predictor chain. An uplink should also arm
// a snap-all flush — that receiver lost its value state too.
func (e *encCore) ResetTable() {
	e.acked = 0
	e.rebase = true
}

// Rebase forces a chain reset onto the next frame. Transports call it
// after a send error, when the receiver may or may not have decoded the
// last frame — a reset frame is decodable either way.
func (e *encCore) Rebase() { e.rebase = true }

// TableLen returns the dictionary size (diagnostics).
func (e *encCore) TableLen() int { return len(e.entries) }

// Acked returns the receiver-confirmed dictionary prefix (diagnostics).
func (e *encCore) Acked() int { return e.acked }

// intern gives f's names dictionary ids, growing the unacked tail on
// first sight. Cold: a session's name set settles within a frame or two.
func (e *encCore) intern(f *Frame) {
	e.internName(f.Node)
	for i := range f.Values {
		e.internName(f.Values[i].Name)
	}
}

func (e *encCore) internName(name string) {
	if _, ok := e.ids[name]; !ok {
		e.ids[name] = uint32(len(e.entries))
		e.entries = append(e.entries, name)
	}
}

// begin writes a frame's prefix to dst and opens its bit column (built
// aside in e.bw, where the family then writes its numeric values). The
// chain resets — predictors zeroed, flag set — on the first frame, after
// Rebase/ResetTable, or when the family asks (a snapshot).
//
//cwx:hotpath
func (e *encCore) begin(dst []byte, flags byte, seq uint64, sentNs int64, reset bool) []byte {
	if reset || !e.started || e.rebase {
		e.preds.reset()
		flags |= v2FlagReset
	}
	e.bw.Reset(e.bitbuf)
	e.bw.WriteDoD(&e.preds.time, sentNs)
	dst = append(dst, V2Magic, flags)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(e.acked))
	dst = binary.AppendUvarint(dst, uint64(len(e.entries)-e.acked))
	for _, name := range e.entries[e.acked:] {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
	}
	return dst
}

// appendTrace writes a trace context.
//
//cwx:hotpath
func appendTrace(dst []byte, id uint64, ns int64) []byte {
	dst = binary.AppendUvarint(dst, id)
	return binary.AppendUvarint(dst, uint64(ns<<1)^uint64(ns>>63))
}

// appendColumns writes one section's meta column and text column.
//
//cwx:hotpath
func (e *encCore) appendColumns(dst []byte, vals []consolidate.Value) []byte {
	for i := range vals {
		v := &vals[i]
		m := uint64(e.ids[v.Name]) << 2
		if v.Kind == consolidate.Dynamic {
			m |= 2
		}
		if v.IsText {
			m |= 1
		}
		dst = binary.AppendUvarint(dst, m)
	}
	for i := range vals {
		if v := &vals[i]; v.IsText {
			dst = binary.AppendUvarint(dst, uint64(len(v.Text)))
			dst = append(dst, v.Text...)
		}
	}
	return dst
}

// commit appends the bit column and closes the frame.
//
//cwx:hotpath
func (e *encCore) commit(dst []byte) []byte {
	e.bitbuf = e.bw.Bytes()
	e.started = true
	e.rebase = false
	return append(dst, e.bitbuf...)
}

// decCore is the receiving side of a v2 session.
type decCore struct {
	entries []string
	preds   predBank
	lastSeq uint64
	chainOK bool
	needAck bool
	vals    []consolidate.Value // Values scratch of the frame being decoded
	ids     []uint32            // their dictionary ids
	texts   []idText            // last text per id, when readColumns keeps them
	br      history.BitReader
}

type idText struct {
	id   uint32
	text string
}

// PendingAck reports (and consumes) a dictionary ack owed to the sender:
// the current table size, owed whenever a frame carried a tail. Send it
// as a "!wack n" control frame.
func (d *decCore) PendingAck() (n int, ok bool) {
	if !d.needAck {
		return 0, false
	}
	d.needAck = false
	return len(d.entries), true
}

// TableLen returns the dictionary size (diagnostics).
func (d *decCore) TableLen() int { return len(d.entries) }

// fail breaks the chain: after any error only a chain-reset frame
// decodes, whatever the failed payload left half applied.
func (d *decCore) fail(err error) error {
	d.chainOK = false
	return err
}

// open parses the prefix and applies its dictionary tail. A flag outside
// known is corruption: unlike v1's ignorable options there is no way to
// skip what we cannot size, and the negotiated version pins the flag set.
// Not //cwx:hotpath, nor are its callers: a new entry's name must be
// copied out of the payload. The ingest alloc gates pin the steady state.
func (d *decCore) open(payload []byte, known byte) (flags byte, seq uint64, p []byte, err error) {
	d.vals, d.ids = d.vals[:0], d.ids[:0]
	if len(payload) < 2 || payload[1]&^known != 0 {
		return 0, 0, nil, d.fail(ErrV2Malformed)
	}
	flags = payload[1]
	seq, p, okSeq := v2Uvarint(payload[2:])
	tailStart, p, okStart := v2Uvarint(p)
	tailCount, p, ok := v2Uvarint(p)
	if !okSeq || !okStart || !ok || seq == 0 || tailCount > uint64(len(p)) {
		return 0, 0, nil, d.fail(ErrV2Malformed)
	}
	if flags&v2FlagReset != 0 && tailStart == 0 {
		// A rebase frame redefines the dictionary wholesale — the
		// recovery point for a restarted sender or a "!wreset" answer —
		// and every predictor keyed on the old ids dies with it.
		d.entries = d.entries[:0]
		d.texts = d.texts[:0]
		d.preds.drop()
	}
	if tailStart > uint64(len(d.entries)) {
		// The tail assumes entries we never saw (our ack state was lost,
		// e.g. a decoder restart the sender has not noticed).
		return 0, 0, nil, d.fail(ErrV2NeedReset)
	}
	idx := int(tailStart)
	for i := uint64(0); i < tailCount; i++ {
		var n uint64
		n, p, ok = v2Uvarint(p)
		if !ok || n == 0 || n > maxV2NameLen || n > uint64(len(p)) {
			return 0, 0, nil, d.fail(ErrV2Malformed)
		}
		name := p[:n]
		p = p[n:]
		switch {
		case idx < len(d.entries):
			// Overlap with known entries (an ack raced a resend): the
			// names must agree, or the two sides hold different tables.
			if d.entries[idx] != string(name) {
				return 0, 0, nil, d.fail(ErrV2NeedReset)
			}
		case idx >= maxV2Entries:
			return 0, 0, nil, d.fail(ErrV2Malformed)
		default:
			d.entries = append(d.entries, string(name))
		}
		idx++
	}
	if tailCount > 0 {
		d.needAck = true
	}
	return flags, seq, p, nil
}

// name resolves a dictionary id read off the wire.
func (d *decCore) name(id uint64) (string, error) {
	if id >= uint64(len(d.entries)) {
		return "", d.fail(ErrV2NeedReset)
	}
	return d.entries[id], nil
}

// readNode parses a node id and resolves it to a well-formed node name.
func (d *decCore) readNode(p []byte) (node string, id uint32, rest []byte, err error) {
	nid, p, ok := v2Uvarint(p)
	if !ok {
		return "", 0, nil, d.fail(ErrV2Malformed)
	}
	if node, err = d.name(nid); err == nil && !validNodeName(node) {
		err = d.fail(ErrV2Malformed)
	}
	return node, uint32(nid), p, err
}

// admit applies the chain rule: a reset frame zeroes the predictors as
// the sender did; any other must directly follow the last decoded one,
// or a frame between them was lost and its bit column is undecodable.
func (d *decCore) admit(flags byte, seq uint64) bool {
	if flags&v2FlagReset != 0 {
		d.preds.reset()
		return true
	}
	return d.chainOK && seq == d.lastSeq+1
}

// readTrace parses a trace context.
func readTrace(p []byte) (id uint64, ns int64, rest []byte, ok bool) {
	id, p, ok = v2Uvarint(p)
	if !ok || id == 0 {
		return 0, 0, nil, false
	}
	zns, p, ok := v2Uvarint(p)
	return id, int64(zns>>1) ^ -int64(zns&1), p, ok
}

// readColumns parses one section's meta and text columns, appending
// count values to d.vals (Num still unset) and their ids to d.ids. With
// keepTexts an unchanged text reuses its id's last string: a node's
// static texts come back in every snapshot.
func (d *decCore) readColumns(p []byte, count uint64, keepTexts bool) ([]byte, error) {
	if count > uint64(len(p)) {
		return nil, d.fail(ErrV2Malformed)
	}
	start := len(d.vals)
	for ; count > 0; count-- {
		m, rest, ok := v2Uvarint(p)
		if !ok {
			return nil, d.fail(ErrV2Malformed)
		}
		p = rest
		name, err := d.name(m >> 2)
		if err != nil {
			return nil, err
		}
		v := consolidate.Value{Name: name, Kind: consolidate.Static, IsText: m&1 != 0}
		if m&2 != 0 {
			v.Kind = consolidate.Dynamic
		}
		d.vals = append(d.vals, v)
		d.ids = append(d.ids, uint32(m>>2))
	}
	for i := start; i < len(d.vals); i++ {
		if !d.vals[i].IsText {
			continue
		}
		n, rest, ok := v2Uvarint(p)
		if !ok || n > uint64(len(rest)) {
			return nil, d.fail(ErrV2Malformed)
		}
		d.vals[i].Text = d.text(keepTexts, d.ids[i], rest[:n])
		p = rest[n:]
	}
	return p, nil
}

// text returns b as a string: with keep, the one kept for id when it is
// equal (the compare allocates nothing).
func (d *decCore) text(keep bool, id uint32, b []byte) string {
	for i := 0; keep && i < len(d.texts); i++ {
		if t := &d.texts[i]; t.id == id {
			if t.text != string(b) {
				t.text = string(b)
			}
			return t.text
		}
	}
	s := string(b)
	if keep && len(d.texts) < maxKeptTexts {
		d.texts = append(d.texts, idText{id, s})
	}
	return s
}

// openBits starts the bit column and returns its timestamp; the family
// then reads its numeric values through d.br.
func (d *decCore) openBits(p []byte) (sentNs int64) {
	d.br.Reset(p)
	return d.br.ReadDoD(&d.preds.time)
}

// commit closes a frame whose bit column was read: the chain is at seq.
func (d *decCore) commit(seq uint64) error {
	if d.br.Failed() {
		return d.fail(ErrV2Malformed)
	}
	d.lastSeq = seq
	d.chainOK = true
	return nil
}

// v2Uvarint reads one uvarint off the front of p.
//
//cwx:hotpath
func v2Uvarint(p []byte) (v uint64, rest []byte, ok bool) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, false
	}
	return v, p[n:], true
}
