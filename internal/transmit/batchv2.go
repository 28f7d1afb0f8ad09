package transmit

import (
	"encoding/binary"
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
// Payload layout (flag bit 3 discriminates: single-node decoders reject
// unknown flag bits, so a batch payload can never be mis-decoded as a
// single frame), over the shared grammar of sessionv2.go:
//
//	prefix                flags: bit1 chain reset, bit3 batch; seq is the
//	                      link's: one counter per uplink session
//	uvarint nodeCount
//	nodeCount × {
//	  uvarint nodeID      node and metric names share the dictionary
//	  uvarint (valueCount<<2 | snapshot<<1 | traced)
//	  [trace context]     when traced
//	  one section }
//	bit column            each value against the predictor of its
//	                      (node, metric) pair, in node-section order
//
// Snapshot and trace context sit in the per-node section header: a batch
// mixes delta and snapshot nodes freely, and only sampled nodes carry
// trace bytes. The predictor chain spans the whole link; a lost frame
// makes the next one undecodable with nothing to salvage, the receiver
// answers "!uresync", and the sender heals by flushing a full chain-reset
// snapshot of every node — the uplink analogue of the per-node gap→resync
// flow.

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

// BatchEncoderV2 is the sending side of one uplink session: the session
// core with one predictor stream per (node, metric) pair. Not safe for
// concurrent use.
type BatchEncoderV2 struct{ encCore }

// NewBatchEncoderV2 returns a fresh uplink session encoder.
func NewBatchEncoderV2() *BatchEncoderV2 {
	return &BatchEncoderV2{encCore{ids: make(map[string]uint32)}}
}

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
		e.intern(&nodes[i])
	}
	dst = e.begin(dst, v2FlagBatch, seq, sentNs, false)
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
			dst = appendTrace(dst, f.TraceID, f.TraceNs)
		}
		dst = e.appendColumns(dst, f.Values)
	}
	for i := range nodes {
		f := &nodes[i]
		nid := e.ids[f.Node]
		for j := range f.Values {
			if v := &f.Values[j]; !v.IsText {
				p, _ := e.preds.pair(nid, e.ids[v.Name]) // past the bound the receiver drops the session
				e.bw.WriteValue(p, v.Num)
			}
		}
	}
	return e.commit(dst)
}

// batchNode is the decoder's per-section scratch: the sub-frame under
// construction and which slice of the flat value buffer is its. Values
// are sliced only after the whole payload parsed — the flat buffer may
// reallocate while growing.
type batchNode struct {
	f          Frame
	nodeID     uint32
	start, end int
}

// BatchDecoderV2 is the receiving side of one uplink session. Not safe
// for concurrent use; one per connection or per source address.
type BatchDecoderV2 struct {
	decCore
	nodes []batchNode // per-section scratch
}

// NewBatchDecoderV2 returns a fresh uplink session decoder.
func NewBatchDecoderV2() *BatchDecoderV2 {
	return &BatchDecoderV2{}
}

// Decode parses one batched payload and calls emit once per node
// section, in payload order, with a Frame whose Seq is 0 (batch
// sub-frames ride the link-level sequence, not per-node numbering).
// Emission is all-or-nothing: emit runs only after the whole payload
// parsed, so a malformed tail never half-applies a batch. Emitted
// Values (and Node/Names) are backed by the decoder's scratch and
// dictionary — valid only until Decode returns.
//
// ErrV2Desync means a prior frame was lost and the predictor chain is
// broken: nothing is emitted — there is no per-node header to salvage —
// and the caller must answer "!uresync" so the sender flushes a
// chain-reset snapshot of every node. ErrV2NeedReset asks for a
// "!wreset". Any other error is corruption; drop the session.
func (d *BatchDecoderV2) Decode(payload []byte, emit func(Frame)) (int, error) {
	if !IsV2BatchPayload(payload) {
		return 0, ErrV2Version
	}
	// A link's largest frame is the snap-all that opens it, many times its
	// steady deltas: the scratch follows the recent need.
	d.vals, d.ids, d.nodes = refit(d.vals), refit(d.ids), refit(d.nodes)
	flags, seq, p, err := d.open(payload, v2BatchFlagsKnown)
	if err != nil {
		return 0, err
	}
	if !d.admit(flags, seq) {
		return 0, d.fail(ErrV2Desync)
	}
	nodeCount, p, ok := v2Uvarint(p)
	if !ok || nodeCount > uint64(len(p)) {
		return 0, d.fail(ErrV2Malformed)
	}
	secs := d.nodes[:0]
	for i := uint64(0); i < nodeCount; i++ {
		var sec batchNode
		var h uint64
		if sec.f.Node, sec.nodeID, p, err = d.readNode(p); err != nil {
			return 0, err
		}
		if h, p, ok = v2Uvarint(p); !ok {
			return 0, d.fail(ErrV2Malformed)
		}
		if h&2 != 0 {
			sec.f.Kind = FrameSnapshot
		}
		if h&1 != 0 {
			if sec.f.TraceID, sec.f.TraceNs, p, ok = readTrace(p); !ok {
				return 0, d.fail(ErrV2Malformed)
			}
		}
		sec.start = len(d.vals)
		if p, err = d.readColumns(p, h>>2, false); err != nil {
			return 0, err
		}
		sec.end = len(d.vals)
		secs = append(secs, sec)
	}
	d.nodes = secs
	sentNs := d.openBits(p)
	for i := range secs {
		sec := &secs[i]
		for j := sec.start; j < sec.end; j++ {
			if v := &d.vals[j]; !v.IsText {
				pred, ok := d.preds.pair(sec.nodeID, d.ids[j])
				if !ok {
					return 0, d.fail(ErrV2Malformed)
				}
				if v.Num, ok = d.br.ReadValue(pred); !ok {
					return 0, d.fail(ErrV2Malformed)
				}
			}
		}
	}
	if err := d.commit(seq); err != nil {
		return 0, err
	}
	for i := range secs {
		sec := &secs[i]
		sec.f.SentNs = sentNs
		sec.f.Values = d.vals[sec.start:sec.end:sec.end]
		emit(sec.f)
	}
	return len(secs), nil
}

// refit empties a scratch slice for the next decode. One that the last
// decode filled to under a quarter is let go for one twice what that
// decode used, so a frame far above the steady state is not paid for
// until the session ends and frames of like size never reallocate.
func refit[T any](s []T) []T {
	if used := len(s); used < cap(s)/4 {
		return make([]T, 0, 2*used)
	}
	return s[:0]
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
