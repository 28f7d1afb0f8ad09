package transmit

import (
	"encoding/binary"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/history"
)

// Batched v2 frames: the uplink (server→server) form of the v2 wire
// format. A leaf server forwards the change sets of many nodes per
// period; sending each as its own v2 frame would repay the per-frame
// costs — magic/flags/seq, dictionary tail bookkeeping, a fresh
// delta-of-delta anchor — once per node. A batch frame coalesces every
// dirty node of one flush into a single payload sharing one dictionary,
// one timestamp, and one predictor chain, so the per-frame overhead
// amortizes across the subtree and the value predictors stay warm per
// (node, metric) pair across flushes.
//
// Payload layout (discriminated from single-node v2 by flag bit 3;
// single-node decoders reject unknown flag bits, so a batch payload can
// never be mis-decoded as a single frame):
//
//	0x02 flags            flags: bit1 chain reset, bit3 batch
//	uvarint seq           link-level sequence number (never 0): one
//	                      counter per uplink session, not per node
//	uvarint tailStart     dictionary tail, exactly as in framev2.go —
//	uvarint tailCount     node names and metric names share one table
//	tailCount × {uvarint len, bytes}
//	uvarint nodeCount
//	nodeCount × node section:
//	  uvarint nodeID
//	  uvarint (valueCount<<2 | snapshot<<1 | traced)
//	  [uvarint traceID, uvarint zigzag(traceNs)]  when traced
//	  valueCount × uvarint (id<<2 | dynamic<<1 | isText)
//	  per text value: {uvarint len, bytes}
//	bit column: DoD(sentNs), then per numeric value (in node-section
//	order) the value code vs the predictor of its (node, metric) pair
//
// Snapshot/trace context moved from the frame flags into the per-node
// section header: a batch mixes delta and snapshot nodes freely, and
// only sampled nodes carry trace bytes. The predictor chain spans the
// whole link (seq continuity across batch frames); a lost frame makes
// the next one undecodable, the receiver answers "!uresync", and the
// sender heals by flushing a full chain-reset snapshot of every node —
// the uplink analogue of the per-node gap→resync flow. Dictionary acks
// ("!wack") and resets ("!wreset") are shared with the single-node
// session unchanged.

// v2FlagBatch marks a batched multi-node payload (see v2Flags* in
// framev2.go; bits 0/2 — snapshot, trace — are per-node here).
const v2FlagBatch = 1 << 3

// v2BatchFlagsKnown is the flag set a batch payload may carry.
const v2BatchFlagsKnown = v2FlagBatch | v2FlagReset

// IsV2BatchPayload reports whether a frame payload is a batched v2
// frame. Check before DecoderV2.Decode: the single-node decoder rejects
// the batch flag bit as unknown.
//
//cwx:hotpath
func IsV2BatchPayload(p []byte) bool {
	return len(p) > 1 && p[0] == V2Magic && p[1]&v2FlagBatch != 0
}

// BatchEncoderV2 is the sending side of one uplink session: a shared
// name dictionary and one predictor stream per (node, metric) pair.
// Not safe for concurrent use.
type BatchEncoderV2 struct {
	entries []string
	ids     map[string]uint32
	acked   int // dictionary prefix the receiver confirmed
	pairIdx map[uint64]uint32
	preds   []history.ValueState
	tstate  history.DoDState
	started bool
	rebase  bool // force the next frame to carry a chain reset
	bw      history.BitWriter
	bitbuf  []byte // bit-column scratch, reused across frames
}

// NewBatchEncoderV2 returns a fresh uplink session encoder.
func NewBatchEncoderV2() *BatchEncoderV2 {
	return &BatchEncoderV2{
		ids:     make(map[string]uint32),
		pairIdx: make(map[uint64]uint32),
	}
}

// Ack records the receiver's dictionary confirmation ("!wack n").
func (e *BatchEncoderV2) Ack(n int) {
	if n > e.acked && n <= len(e.entries) {
		e.acked = n
	}
}

// ResetTable handles a "!wreset": resend the whole dictionary and reset
// the predictor chain. The caller should also arm a snap-all flush — a
// receiver that lost its dictionary lost its value state with it.
func (e *BatchEncoderV2) ResetTable() {
	e.acked = 0
	e.rebase = true
}

// Rebase forces a chain reset onto the next frame, making it decodable
// whether or not the receiver saw the previous one. Call after a send
// error.
func (e *BatchEncoderV2) Rebase() { e.rebase = true }

// TableLen returns the dictionary size (diagnostics).
func (e *BatchEncoderV2) TableLen() int { return len(e.entries) }

// Acked returns the receiver-confirmed dictionary prefix (diagnostics).
func (e *BatchEncoderV2) Acked() int { return e.acked }

// Encode renders the nodes' frames as one batched v2 payload, appending
// to dst. seq is the link-level sequence number (monotone from 1,
// incremented per encoded frame by the caller); sentNs stamps the whole
// batch. Per-node Frame fields used: Node, Kind, TraceID, TraceNs,
// Values — Seq, SentNs and WireOffer are link-level concerns and
// ignored. Predictor updates commit immediately: on a failed send call
// Rebase so the next frame re-anchors the chain.
//
//cwx:hotpath
func (e *BatchEncoderV2) Encode(dst []byte, seq uint64, sentNs int64, nodes []Frame) []byte {
	for i := range nodes {
		e.intern(nodes[i].Node)
		for j := range nodes[i].Values {
			e.intern(nodes[i].Values[j].Name)
		}
	}
	reset := !e.started || e.rebase
	if reset {
		e.resetPreds()
	}
	flags := byte(v2FlagBatch)
	if reset {
		flags |= v2FlagReset
	}
	dst = append(dst, V2Magic, flags)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(e.acked))
	dst = binary.AppendUvarint(dst, uint64(len(e.entries)-e.acked))
	for _, name := range e.entries[e.acked:] {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(nodes)))
	for i := range nodes {
		f := &nodes[i]
		dst = binary.AppendUvarint(dst, uint64(e.ids[f.Node]))
		h := uint64(len(f.Values)) << 2
		if f.Kind == FrameSnapshot {
			h |= 2
		}
		if f.TraceID != 0 {
			h |= 1
		}
		dst = binary.AppendUvarint(dst, h)
		if f.TraceID != 0 {
			dst = binary.AppendUvarint(dst, f.TraceID)
			dst = binary.AppendUvarint(dst, uint64(f.TraceNs<<1)^uint64(f.TraceNs>>63))
		}
		for j := range f.Values {
			v := &f.Values[j]
			m := uint64(e.ids[v.Name]) << 2
			if v.Kind == consolidate.Dynamic {
				m |= 2
			}
			if v.IsText {
				m |= 1
			}
			dst = binary.AppendUvarint(dst, m)
		}
		for j := range f.Values {
			if v := &f.Values[j]; v.IsText {
				dst = binary.AppendUvarint(dst, uint64(len(v.Text)))
				dst = append(dst, v.Text...)
			}
		}
	}
	e.bw.Reset(e.bitbuf)
	e.bw.WriteDoD(&e.tstate, sentNs)
	for i := range nodes {
		f := &nodes[i]
		nid := e.ids[f.Node]
		for j := range f.Values {
			if v := &f.Values[j]; !v.IsText {
				e.bw.WriteValue(&e.preds[e.pairFor(nid, e.ids[v.Name])], v.Num)
			}
		}
	}
	bits := e.bw.Bytes()
	e.bitbuf = bits
	dst = append(dst, bits...)
	e.started = true
	e.rebase = false
	return dst
}

// intern ensures name has a dictionary id. Cold: the subtree's name set
// stabilizes within a flush or two.
func (e *BatchEncoderV2) intern(name string) {
	if _, ok := e.ids[name]; ok {
		return
	}
	e.ids[name] = uint32(len(e.entries))
	e.entries = append(e.entries, name)
}

// pairFor returns the predictor index for a (node, metric) pair,
// allocating one on first sight. The map hit is the steady state.
func (e *BatchEncoderV2) pairFor(nodeID, metricID uint32) uint32 {
	key := uint64(nodeID)<<32 | uint64(metricID)
	if idx, ok := e.pairIdx[key]; ok {
		return idx
	}
	idx := uint32(len(e.preds))
	e.pairIdx[key] = idx
	e.preds = append(e.preds, history.ValueState{})
	return idx
}

func (e *BatchEncoderV2) resetPreds() {
	for i := range e.preds {
		e.preds[i] = history.ValueState{}
	}
	e.tstate = history.DoDState{}
}

// batchNode is the decoder's per-section scratch: which slice of the
// flat value buffer belongs to which node, plus the section header
// bits. Values are sliced only after the whole payload parsed — the
// flat buffer may reallocate while growing.
type batchNode struct {
	node       string
	nodeID     uint32
	snapshot   bool
	traceID    uint64
	traceNs    int64
	start, end int
}

// BatchDecoderV2 is the receiving side of one uplink session. Not safe
// for concurrent use; one per connection or per source address.
type BatchDecoderV2 struct {
	entries []string
	pairIdx map[uint64]uint32
	preds   []history.ValueState
	tstate  history.DoDState
	lastSeq uint64
	chainOK bool
	needAck bool
	vals    []consolidate.Value // flat Values scratch, all nodes
	meta    []uint32            // flat metric-id scratch
	nodes   []batchNode         // per-section scratch
	br      history.BitReader
}

// NewBatchDecoderV2 returns a fresh uplink session decoder.
func NewBatchDecoderV2() *BatchDecoderV2 {
	return &BatchDecoderV2{pairIdx: make(map[uint64]uint32)}
}

// PendingAck reports (and consumes) a dictionary ack owed to the
// sender, exactly as DecoderV2.PendingAck.
func (d *BatchDecoderV2) PendingAck() (n int, ok bool) {
	if !d.needAck {
		return 0, false
	}
	d.needAck = false
	return len(d.entries), true
}

// TableLen returns the dictionary size (diagnostics).
func (d *BatchDecoderV2) TableLen() int { return len(d.entries) }

// Decode parses one batched payload and calls emit once per node
// section, in payload order, with a Frame whose Seq is 0 (batch
// sub-frames ride the link-level sequence, not per-node numbering).
// Emission is all-or-nothing: emit runs only after the whole payload
// parsed, so a malformed tail never half-applies a batch. Emitted
// Values (and Node/Names) are backed by the decoder's scratch and
// dictionary — valid only until Decode returns.
//
// ErrV2Desync means a prior frame was lost and the predictor chain is
// broken: nothing is emitted, and the caller must answer "!uresync" so
// the sender flushes a chain-reset snapshot of every node.
// ErrV2NeedReset asks for a "!wreset" exactly as the single-node
// decoder does. Any other error is corruption; drop the session.
//
// Like DecoderV2.Decode, this is deliberately not //cwx:hotpath: the
// dictionary-append path interns names (it must — the entries outlive
// the payload), so the structural analyzer would flag by-design
// allocations. The steady state is pinned empirically instead, by the
// batch-ingest alloc gate.
func (d *BatchDecoderV2) Decode(payload []byte, emit func(Frame)) (int, error) {
	if !IsV2BatchPayload(payload) {
		return 0, ErrV2Version
	}
	flags := payload[1]
	if flags&^byte(v2BatchFlagsKnown) != 0 {
		return 0, ErrV2Malformed
	}
	p := payload[2:]
	seq, p, ok := v2Uvarint(p)
	if !ok || seq == 0 {
		return 0, ErrV2Malformed
	}
	reset := flags&v2FlagReset != 0
	tailStart, p, ok := v2Uvarint(p)
	if !ok {
		return 0, ErrV2Malformed
	}
	tailCount, p, ok := v2Uvarint(p)
	if !ok || tailCount > uint64(len(p)) {
		return 0, ErrV2Malformed
	}
	if reset && tailStart == 0 {
		// Rebase frame: the dictionary is redefined wholesale, so every
		// (node, metric) predictor pairing keyed on the old ids dies
		// with it.
		d.entries = d.entries[:0]
		d.preds = d.preds[:0]
		clear(d.pairIdx)
	}
	if tailStart > uint64(len(d.entries)) {
		d.chainOK = false
		return 0, ErrV2NeedReset
	}
	idx := int(tailStart)
	for i := uint64(0); i < tailCount; i++ {
		var n uint64
		n, p, ok = v2Uvarint(p)
		if !ok || n == 0 || n > maxV2NameLen || n > uint64(len(p)) {
			d.chainOK = false
			return 0, ErrV2Malformed
		}
		name := p[:n]
		p = p[n:]
		if idx < len(d.entries) {
			if d.entries[idx] != string(name) {
				d.chainOK = false
				return 0, ErrV2NeedReset
			}
		} else {
			d.entries = append(d.entries, string(name))
		}
		idx++
	}
	if tailCount > 0 {
		d.needAck = true
	}
	if !reset && (!d.chainOK || seq != d.lastSeq+1) {
		// Chain break: a batch between the last decoded one and this
		// one was lost. There is no per-node header to salvage — the
		// caller answers "!uresync" and the snap-all flush heals.
		d.chainOK = false
		return 0, ErrV2Desync
	}
	nodeCount, p, ok := v2Uvarint(p)
	if !ok || nodeCount > uint64(len(p)) {
		d.chainOK = false
		return 0, ErrV2Malformed
	}
	secs := d.nodes[:0]
	out := d.vals[:0]
	meta := d.meta[:0]
	for i := uint64(0); i < nodeCount; i++ {
		var sec batchNode
		var nid, h uint64
		nid, p, ok = v2Uvarint(p)
		if !ok {
			d.chainOK = false
			return 0, ErrV2Malformed
		}
		if nid >= uint64(len(d.entries)) {
			d.chainOK = false
			return 0, ErrV2NeedReset
		}
		sec.node = d.entries[nid]
		sec.nodeID = uint32(nid)
		if !validNodeName(sec.node) {
			d.chainOK = false
			return 0, ErrV2Malformed
		}
		h, p, ok = v2Uvarint(p)
		if !ok {
			d.chainOK = false
			return 0, ErrV2Malformed
		}
		sec.snapshot = h&2 != 0
		if h&1 != 0 {
			var id, zns uint64
			id, p, ok = v2Uvarint(p)
			if !ok || id == 0 {
				d.chainOK = false
				return 0, ErrV2Malformed
			}
			zns, p, ok = v2Uvarint(p)
			if !ok {
				d.chainOK = false
				return 0, ErrV2Malformed
			}
			sec.traceID = id
			sec.traceNs = int64(zns>>1) ^ -int64(zns&1)
		}
		count := h >> 2
		if count > uint64(len(p)) {
			d.chainOK = false
			return 0, ErrV2Malformed
		}
		sec.start = len(out)
		for j := uint64(0); j < count; j++ {
			var m uint64
			m, p, ok = v2Uvarint(p)
			if !ok {
				d.chainOK = false
				return 0, ErrV2Malformed
			}
			id := m >> 2
			if id >= uint64(len(d.entries)) {
				d.chainOK = false
				return 0, ErrV2NeedReset
			}
			var v consolidate.Value
			v.Name = d.entries[id]
			if m&2 != 0 {
				v.Kind = consolidate.Dynamic
			} else {
				v.Kind = consolidate.Static
			}
			v.IsText = m&1 != 0
			out = append(out, v)
			meta = append(meta, uint32(id))
		}
		sec.end = len(out)
		for j := sec.start; j < sec.end; j++ {
			if !out[j].IsText {
				continue
			}
			var n uint64
			n, p, ok = v2Uvarint(p)
			if !ok || n > uint64(len(p)) {
				d.chainOK = false
				return 0, ErrV2Malformed
			}
			out[j].Text = string(p[:n])
			p = p[n:]
		}
		secs = append(secs, sec)
	}
	d.nodes, d.vals, d.meta = secs, out, meta
	if reset {
		for i := range d.preds {
			d.preds[i] = history.ValueState{}
		}
		d.tstate = history.DoDState{}
	}
	d.br.Reset(p)
	sentNs := d.br.ReadDoD(&d.tstate)
	for i := range secs {
		sec := &secs[i]
		for j := sec.start; j < sec.end; j++ {
			if out[j].IsText {
				continue
			}
			v, ok := d.br.ReadValue(&d.preds[d.pairFor(sec.nodeID, meta[j])])
			if !ok {
				d.chainOK = false
				return 0, ErrV2Malformed
			}
			out[j].Num = v
		}
	}
	if d.br.Failed() {
		d.chainOK = false
		return 0, ErrV2Malformed
	}
	d.lastSeq = seq
	d.chainOK = true
	for i := range secs {
		sec := &secs[i]
		f := Frame{
			Node:    sec.node,
			TraceID: sec.traceID,
			TraceNs: sec.traceNs,
			SentNs:  sentNs,
			Values:  out[sec.start:sec.end:sec.end],
		}
		if sec.snapshot {
			f.Kind = FrameSnapshot
		}
		emit(f)
	}
	return len(secs), nil
}

// pairFor mirrors the encoder's pairing: both sides key predictors by
// dictionary ids, so the mapping needs no wire bytes.
func (d *BatchDecoderV2) pairFor(nodeID, metricID uint32) uint32 {
	key := uint64(nodeID)<<32 | uint64(metricID)
	if idx, ok := d.pairIdx[key]; ok {
		return idx
	}
	idx := uint32(len(d.preds))
	d.pairIdx[key] = idx
	d.preds = append(d.preds, history.ValueState{})
	return idx
}

// uplinkResyncPayload is the receiver→sender control answering a batch
// chain break: "flush me a chain-reset snapshot of everything". The
// uplink analogue of the per-node "!resync <node>".
const uplinkResyncPayload = "!uresync"

// MarshalUplinkResync renders an uplink resync request, appending to dst.
func MarshalUplinkResync(dst []byte) []byte {
	return append(dst, uplinkResyncPayload...)
}

// IsUplinkResync reports whether payload is an uplink resync request.
func IsUplinkResync(payload []byte) bool {
	return len(payload) == len(uplinkResyncPayload) && string(payload) == uplinkResyncPayload
}
