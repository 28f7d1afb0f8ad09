package transmit

import (
	"encoding/binary"
	"errors"
	"strconv"
)

// The v2 wire format: binary columnar frames for the §5.3.3 transmission
// stage at federation scale. v1 keeps the paper's human-readable text
// payload and leans on deflate; v2 spends its bytes where the monitor
// stream's redundancy actually lives — names repeat every frame
// (dictionary-coded to varint ids), timestamps tick on a fixed cadence
// (delta-of-delta), and values either dwell near their last reading
// (Gorilla XOR) or move as the short decimals monitors report (a scaled
// integer difference) — internal/history's wire value code, which picks
// the shorter of the two per value.
//
// Payload layout (the first byte discriminates: a v1 payload starts with
// a printable hostname byte or '!', never 0x02): the prefix, sections and
// bit column every v2 frame shares are in sessionv2.go; this file is the
// single-node family, one node's change set per frame:
//
//	prefix                flags: bit0 snapshot, bit1 chain reset, bit2 trace;
//	                      seq is the node's own sequence number
//	uvarint nodeID        dictionary id of the node name
//	[trace context]       when flag bit2
//	uvarint valueCount
//	one section
//	bit column            each value against its metric's predictor
//
// Negotiation rides the v1 forward-compat rule: a v2-capable agent adds
// the ignorable "w=3" option (WireV2) to its v1 headers; an old server
// skips it and the session stays v1. A v2-capable server answers with the
// "!wire 3" control frame (old agents ignore unknown control payloads),
// and the agent switches. An offer above what the server speaks is
// answered with the server's own version, one below it is not an offer
// at all, and a client switches only on an answer naming exactly its
// version — so two builds whose binary grammars differ settle on v1.

// V2Magic is the first byte of every v2 payload. validNodeName rejects
// control bytes, so no v1 payload can start with it.
const V2Magic = 0x02

// WireV2 is the protocol version carried in offers and answers. It names
// the binary grammar, not the frame family: 2 was the same v2 layout with
// a pure XOR bit column, 3 added the decimal value code. A peer still on
// 2 cannot decode a 3 bit column (nor the reverse), and the exact-match
// rule above keeps such a pair on v1 text instead.
const WireV2 = 3

const (
	v2FlagSnapshot = 1 << 0 // frame kind is FrameSnapshot
	v2FlagReset    = 1 << 1 // chain reset: predictors zeroed before this frame
	v2FlagTrace    = 1 << 2 // trace context present
	v2FlagsKnown   = v2FlagSnapshot | v2FlagReset | v2FlagTrace
)

// Errors returned by the v2 codec. ErrV2Desync and ErrV2NeedReset are
// protocol states, not corruption: the caller keeps the connection and
// lets the resync machinery (or a "!wreset") heal the stream.
var (
	ErrV2Version   = errors.New("transmit: not a v2 payload")
	ErrV2Malformed = errors.New("transmit: malformed v2 frame")
	// ErrV2Desync accompanies a header-only Frame (Values nil): the
	// predictor chain broke (a lost frame), so the body is undecodable
	// until a chain-reset frame arrives. Feed the header to the sequenced
	// ingest — the seq gap drives the normal resync flow.
	ErrV2Desync = errors.New("transmit: v2 predictor chain broken, header only")
	// ErrV2NeedReset means the decoder's dictionary cannot follow the
	// sender's (missing or conflicting entries): answer with a "!wreset"
	// control frame so the sender rebases from entry 0.
	ErrV2NeedReset = errors.New("transmit: v2 dictionary out of sync")
)

// IsV2Payload reports whether a frame payload is in the v2 binary form.
//
//cwx:hotpath
func IsV2Payload(p []byte) bool { return len(p) > 0 && p[0] == V2Magic }

// EncoderV2 is the agent side of one v2 session: the session core with
// one predictor stream per metric (predictor slot = dictionary id). Not
// safe for concurrent use.
type EncoderV2 struct{ encCore }

// NewEncoderV2 returns a fresh session encoder.
func NewEncoderV2() *EncoderV2 {
	return &EncoderV2{encCore{ids: make(map[string]uint32)}}
}

// Encode renders f as a v2 payload, appending to dst. The frame's
// predictor updates are committed immediately: if the transport then
// fails to deliver, call Rebase so the next frame re-anchors the chain.
//
//cwx:hotpath
func (e *EncoderV2) Encode(dst []byte, f Frame) []byte {
	e.intern(&f)
	e.preds.perID(len(e.entries))
	flags := byte(0)
	if f.Kind == FrameSnapshot {
		flags |= v2FlagSnapshot
	}
	if f.TraceID != 0 {
		flags |= v2FlagTrace
	}
	dst = e.begin(dst, flags, f.Seq, f.SentNs, f.Kind == FrameSnapshot)
	dst = binary.AppendUvarint(dst, uint64(e.ids[f.Node]))
	if f.TraceID != 0 {
		dst = appendTrace(dst, f.TraceID, f.TraceNs)
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Values)))
	dst = e.appendColumns(dst, f.Values)
	for i := range f.Values {
		if v := &f.Values[i]; !v.IsText {
			e.bw.WriteValue(&e.preds.vals[e.ids[v.Name]], v.Num)
		}
	}
	return e.commit(dst)
}

// DecoderV2 is the receiving side of one v2 session. Not safe for
// concurrent use; one per connection (TCP) or per source address
// (datagram fabrics).
type DecoderV2 struct{ decCore }

// NewDecoderV2 returns a fresh session decoder.
func NewDecoderV2() *DecoderV2 { return &DecoderV2{} }

// Decode parses one v2 payload. On success the returned Frame's Values
// (and their Names) are backed by the decoder's scratch and dictionary:
// valid until the next Decode, like transmit.Reader's payloads. See
// ErrV2Desync and ErrV2NeedReset for the two recoverable failures; any
// other error is a malformed frame (treat like a v1 parse error).
func (d *DecoderV2) Decode(payload []byte) (Frame, error) {
	if !IsV2Payload(payload) {
		return Frame{}, ErrV2Version
	}
	flags, seq, p, err := d.open(payload, v2FlagsKnown)
	if err != nil {
		return Frame{}, err
	}
	d.preds.perID(len(d.entries))
	f := Frame{Seq: seq}
	if f.Node, _, p, err = d.readNode(p); err != nil {
		return Frame{}, err
	}
	if flags&v2FlagSnapshot != 0 {
		f.Kind = FrameSnapshot
	}
	if flags&v2FlagTrace != 0 {
		var ok bool
		if f.TraceID, f.TraceNs, p, ok = readTrace(p); !ok {
			return Frame{}, d.fail(ErrV2Malformed)
		}
	}
	if !d.admit(flags, seq) {
		// The header is still good — hand it up so the seq machinery
		// books the gap and asks for a resync.
		return f, d.fail(ErrV2Desync)
	}
	count, p, ok := v2Uvarint(p)
	if !ok {
		return Frame{}, d.fail(ErrV2Malformed)
	}
	if p, err = d.readColumns(p, count, true); err != nil {
		return Frame{}, err
	}
	f.SentNs = d.openBits(p)
	for i := range d.vals {
		if v := &d.vals[i]; !v.IsText {
			if v.Num, ok = d.br.ReadValue(&d.preds.vals[d.ids[i]]); !ok {
				return Frame{}, d.fail(ErrV2Malformed)
			}
		}
	}
	if err := d.commit(seq); err != nil {
		return Frame{}, err
	}
	f.Values = d.vals
	return f, nil
}

// --- negotiation control frames ---------------------------------------------
//
// All three flow server→agent on the existing control back-channel ('!'
// payloads). Old agents parse them with ParseResync, get ok=false, and
// ignore them — the forward-compat rule that makes the rollout safe.

const (
	wireAnswerPrefix = "!wire "  // answers a version offer: "!wire 3"
	dictAckPrefix    = "!wack "  // dictionary ack: "!wack <entries>"
	wireResetPayload = "!wreset" // dictionary reset request
)

// MarshalWireAnswer renders the server's version answer, appending to dst.
func MarshalWireAnswer(dst []byte, ver int) []byte {
	dst = append(dst, wireAnswerPrefix...)
	return strconv.AppendInt(dst, int64(ver), 10)
}

// ParseWireAnswer reports whether payload is a version answer and which
// version the server chose.
func ParseWireAnswer(payload []byte) (ver int, ok bool) {
	s, ok := controlSuffix(payload, wireAnswerPrefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 8)
	if err != nil || n == 0 {
		return 0, false
	}
	return int(n), true
}

// MarshalDictAck renders a dictionary ack for n entries, appending to dst.
//
//cwx:hotpath
func MarshalDictAck(dst []byte, n int) []byte {
	dst = append(dst, dictAckPrefix...)
	return strconv.AppendInt(dst, int64(n), 10)
}

// ParseDictAck reports whether payload is a dictionary ack and for how
// many entries.
func ParseDictAck(payload []byte) (n int, ok bool) {
	s, ok := controlSuffix(payload, dictAckPrefix)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 10, 31)
	if err != nil {
		return 0, false
	}
	return int(v), true
}

// MarshalWireReset renders a dictionary reset request, appending to dst.
func MarshalWireReset(dst []byte) []byte {
	return append(dst, wireResetPayload...)
}

// IsWireReset reports whether payload is a dictionary reset request.
func IsWireReset(payload []byte) bool {
	return len(payload) == len(wireResetPayload) && string(payload) == wireResetPayload
}

func controlSuffix(payload []byte, prefix string) (string, bool) {
	if len(payload) <= len(prefix) || string(payload[:len(prefix)]) != prefix {
		return "", false
	}
	return string(payload[len(prefix):]), true
}
