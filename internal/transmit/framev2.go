package transmit

import (
	"encoding/binary"
	"errors"
	"strconv"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/history"
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
// Payload layout (first byte discriminates: a v1 payload starts with a
// printable hostname byte or '!', never 0x02):
//
//	0x02 flags            flags: bit0 snapshot, bit1 chain reset, bit2 trace
//	uvarint seq           per-node sequence number (never 0)
//	uvarint tailStart     dictionary tail: the sender's unacked entries
//	uvarint tailCount     [tailStart, tailStart+tailCount), resent every
//	tailCount × {uvarint len, bytes}   frame until the receiver acks
//	uvarint nodeID        dictionary id of the node name
//	[uvarint traceID, uvarint zigzag(traceNs)]   when flag bit2
//	uvarint valueCount
//	valueCount × uvarint (id<<2 | dynamic<<1 | isText)   meta column
//	per text value: {uvarint len, bytes}                 text column
//	bit column: DoD(sentNs), then per numeric value the value code
//	(history.ValueState: 0 unchanged | 10 XOR | 11 decimal) against its
//	id's predictor — one stream per metric
//
// Negotiation rides the v1 forward-compat rule: a v2-capable agent adds
// the ignorable "w=3" option (WireV2) to its v1 headers; an old server
// skips it and the session stays v1. A v2-capable server answers with the
// "!wire 3" control frame (old agents ignore unknown control payloads),
// and the agent switches. An offer above what the server speaks is
// answered with the server's own version, one below it is not an offer
// at all, and a client switches only on an answer naming exactly its
// version — so two builds whose binary grammars differ settle on v1.
//
// Loss tolerance: the value/DoD predictors chain across frames, so a frame
// body is decodable only when it directly follows the last decoded one
// (seq continuity) or carries the chain-reset flag (set on snapshots,
// first frames, and rebases after send errors). On a broken chain the
// decoder still returns the header (node, seq, kind) with ErrV2Desync so
// the existing gap→diverge→resync machinery runs unchanged; the healing
// snapshot resets the chain on both sides. Dictionary acks ("!wack n")
// bound tail resends; "!wreset" asks the sender to rebase from entry 0
// (a reset frame: tailStart 0 + chain reset), which the decoder adopts
// wholesale — the recovery path for a restarted peer.

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

// maxV2NameLen bounds one dictionary entry; hostnames and metric names
// are tens of bytes, so anything huge is corruption, not data.
const maxV2NameLen = 4096

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

// EncoderV2 is the agent side of one v2 session: the name dictionary,
// its acked prefix, and the per-metric predictor streams. Not safe for
// concurrent use.
type EncoderV2 struct {
	entries []string
	ids     map[string]uint32
	acked   int // dictionary prefix the receiver confirmed
	preds   []history.ValueState
	tstate  history.DoDState
	started bool
	rebase  bool // force the next frame to carry a chain reset
	bw      history.BitWriter
	bitbuf  []byte // bit-column scratch, reused across frames
}

// NewEncoderV2 returns a fresh session encoder.
func NewEncoderV2() *EncoderV2 {
	return &EncoderV2{ids: make(map[string]uint32)}
}

// Ack records the receiver's dictionary confirmation ("!wack n"): the
// first n entries need not be resent. Stale or absurd acks are ignored.
func (e *EncoderV2) Ack(n int) {
	if n > e.acked && n <= len(e.entries) {
		e.acked = n
	}
}

// ResetTable handles a "!wreset": the receiver lost the dictionary, so
// resend it all and reset the predictor chain.
func (e *EncoderV2) ResetTable() {
	e.acked = 0
	e.rebase = true
}

// Rebase forces a chain reset onto the next frame. Transports call it
// after a send error, when the receiver may or may not have decoded the
// last frame — a reset frame is decodable either way.
func (e *EncoderV2) Rebase() { e.rebase = true }

// TableLen returns the dictionary size (diagnostics).
func (e *EncoderV2) TableLen() int { return len(e.entries) }

// Acked returns the receiver-confirmed dictionary prefix (diagnostics).
func (e *EncoderV2) Acked() int { return e.acked }

// Encode renders f as a v2 payload, appending to dst. The frame's
// predictor updates are committed immediately: if the transport then
// fails to deliver, call Rebase so the next frame re-anchors the chain.
//
//cwx:hotpath
func (e *EncoderV2) Encode(dst []byte, f Frame) []byte {
	e.intern(f.Node)
	for i := range f.Values {
		e.intern(f.Values[i].Name)
	}
	reset := !e.started || e.rebase || f.Kind == FrameSnapshot
	if reset {
		e.resetPreds()
	}
	flags := byte(0)
	if f.Kind == FrameSnapshot {
		flags |= v2FlagSnapshot
	}
	if reset {
		flags |= v2FlagReset
	}
	if f.TraceID != 0 {
		flags |= v2FlagTrace
	}
	dst = append(dst, V2Magic, flags)
	dst = binary.AppendUvarint(dst, f.Seq)
	dst = binary.AppendUvarint(dst, uint64(e.acked))
	dst = binary.AppendUvarint(dst, uint64(len(e.entries)-e.acked))
	for _, name := range e.entries[e.acked:] {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
	}
	dst = binary.AppendUvarint(dst, uint64(e.ids[f.Node]))
	if f.TraceID != 0 {
		dst = binary.AppendUvarint(dst, f.TraceID)
		dst = binary.AppendUvarint(dst, uint64(f.TraceNs<<1)^uint64(f.TraceNs>>63))
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Values)))
	for i := range f.Values {
		v := &f.Values[i]
		m := uint64(e.ids[v.Name]) << 2
		if v.Kind == consolidate.Dynamic {
			m |= 2
		}
		if v.IsText {
			m |= 1
		}
		dst = binary.AppendUvarint(dst, m)
	}
	for i := range f.Values {
		if v := &f.Values[i]; v.IsText {
			dst = binary.AppendUvarint(dst, uint64(len(v.Text)))
			dst = append(dst, v.Text...)
		}
	}
	e.bw.Reset(e.bitbuf)
	e.bw.WriteDoD(&e.tstate, f.SentNs)
	for i := range f.Values {
		if v := &f.Values[i]; !v.IsText {
			e.bw.WriteValue(&e.preds[e.ids[v.Name]], v.Num)
		}
	}
	bits := e.bw.Bytes()
	e.bitbuf = bits
	dst = append(dst, bits...)
	e.started = true
	e.rebase = false
	return dst
}

// intern ensures name has a dictionary id, growing the unacked tail on
// first sight. Cold: a session's name set stabilizes within a frame or
// two.
func (e *EncoderV2) intern(name string) {
	if _, ok := e.ids[name]; ok {
		return
	}
	e.ids[name] = uint32(len(e.entries))
	e.entries = append(e.entries, name)
	e.preds = append(e.preds, history.ValueState{})
}

func (e *EncoderV2) resetPreds() {
	for i := range e.preds {
		e.preds[i] = history.ValueState{}
	}
	e.tstate = history.DoDState{}
}

// DecoderV2 is the receiving side of one v2 session. Not safe for
// concurrent use; one per connection (TCP) or per source address
// (datagram fabrics).
type DecoderV2 struct {
	entries []string
	preds   []history.ValueState
	tstate  history.DoDState
	lastSeq uint64
	chainOK bool
	needAck bool
	vals    []consolidate.Value // Values scratch, reused across frames
	idbuf   []uint32            // meta-column scratch
	br      history.BitReader
}

// NewDecoderV2 returns a fresh session decoder.
func NewDecoderV2() *DecoderV2 { return &DecoderV2{} }

// PendingAck reports (and consumes) a dictionary ack owed to the sender:
// the current table size, owed whenever a frame carried a tail. Send it
// as a "!wack n" control frame.
func (d *DecoderV2) PendingAck() (n int, ok bool) {
	if !d.needAck {
		return 0, false
	}
	d.needAck = false
	return len(d.entries), true
}

// TableLen returns the dictionary size (diagnostics).
func (d *DecoderV2) TableLen() int { return len(d.entries) }

// Decode parses one v2 payload. On success the returned Frame's Values
// (and their Names) are backed by the decoder's scratch and dictionary:
// valid until the next Decode, like transmit.Reader's payloads. See
// ErrV2Desync and ErrV2NeedReset for the two recoverable failures; any
// other error is a malformed frame (treat like a v1 parse error).
func (d *DecoderV2) Decode(payload []byte) (Frame, error) {
	var f Frame
	if !IsV2Payload(payload) {
		return f, ErrV2Version
	}
	if len(payload) < 2 {
		return f, ErrV2Malformed
	}
	flags := payload[1]
	if flags&^byte(v2FlagsKnown) != 0 {
		// Unknown flag bits would change the layout after them; unlike
		// v1's ignorable options there is no way to skip what we cannot
		// size. The negotiated version pins the flag set, so this is
		// corruption, not the future.
		return f, ErrV2Malformed
	}
	p := payload[2:]
	seq, p, ok := v2Uvarint(p)
	if !ok || seq == 0 {
		return f, ErrV2Malformed
	}
	reset := flags&v2FlagReset != 0
	tailStart, p, ok := v2Uvarint(p)
	if !ok {
		return f, ErrV2Malformed
	}
	tailCount, p, ok := v2Uvarint(p)
	if !ok || tailCount > uint64(len(p)) {
		return f, ErrV2Malformed
	}
	if reset && tailStart == 0 {
		// A rebase frame redefines the dictionary wholesale — the
		// recovery point for a restarted sender or a "!wreset" answer.
		d.entries = d.entries[:0]
	}
	if tailStart > uint64(len(d.entries)) {
		// The tail assumes entries we never saw (our ack state was lost,
		// e.g. a decoder restart the sender has not noticed).
		d.chainOK = false
		return f, ErrV2NeedReset
	}
	idx := int(tailStart)
	for i := uint64(0); i < tailCount; i++ {
		var n uint64
		n, p, ok = v2Uvarint(p)
		if !ok || n == 0 || n > maxV2NameLen || n > uint64(len(p)) {
			d.chainOK = false
			return f, ErrV2Malformed
		}
		name := p[:n]
		p = p[n:]
		if idx < len(d.entries) {
			// Overlap with known entries (an ack raced a resend): the
			// names must agree, or the two sides hold different tables.
			if d.entries[idx] != string(name) {
				d.chainOK = false
				return f, ErrV2NeedReset
			}
		} else {
			d.entries = append(d.entries, string(name))
		}
		idx++
	}
	for len(d.preds) < len(d.entries) {
		d.preds = append(d.preds, history.ValueState{})
	}
	if tailCount > 0 {
		d.needAck = true
	}
	nodeID, p, ok := v2Uvarint(p)
	if !ok {
		return f, ErrV2Malformed
	}
	if nodeID >= uint64(len(d.entries)) {
		d.chainOK = false
		return f, ErrV2NeedReset
	}
	f.Node = d.entries[nodeID]
	if !validNodeName(f.Node) {
		return Frame{}, ErrV2Malformed
	}
	f.Seq = seq
	if flags&v2FlagSnapshot != 0 {
		f.Kind = FrameSnapshot
	}
	if flags&v2FlagTrace != 0 {
		var id, zns uint64
		id, p, ok = v2Uvarint(p)
		if !ok || id == 0 {
			return Frame{}, ErrV2Malformed
		}
		zns, p, ok = v2Uvarint(p)
		if !ok {
			return Frame{}, ErrV2Malformed
		}
		f.TraceID = id
		f.TraceNs = int64(zns>>1) ^ -int64(zns&1)
	}
	if !reset && (!d.chainOK || seq != d.lastSeq+1) {
		// Chain break: a frame between the last decoded one and this one
		// was lost, so the predictor streams are undecodable until a
		// reset frame. The header is still good — hand it up so the seq
		// machinery books the gap and asks for a resync.
		d.chainOK = false
		return f, ErrV2Desync
	}
	count, p, ok := v2Uvarint(p)
	if !ok || count > uint64(len(p)) {
		d.chainOK = false
		return Frame{}, ErrV2Malformed
	}
	if reset {
		for i := range d.preds {
			d.preds[i] = history.ValueState{}
		}
		d.tstate = history.DoDState{}
	}
	out := d.vals[:0]
	ids := d.idbuf[:0]
	for i := uint64(0); i < count; i++ {
		var m uint64
		m, p, ok = v2Uvarint(p)
		if !ok {
			d.chainOK = false
			return Frame{}, ErrV2Malformed
		}
		id := m >> 2
		if id >= uint64(len(d.entries)) {
			d.chainOK = false
			return Frame{}, ErrV2NeedReset
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
		ids = append(ids, uint32(id))
	}
	d.vals, d.idbuf = out, ids
	for i := range out {
		if !out[i].IsText {
			continue
		}
		var n uint64
		n, p, ok = v2Uvarint(p)
		if !ok || n > uint64(len(p)) {
			d.chainOK = false
			return Frame{}, ErrV2Malformed
		}
		out[i].Text = string(p[:n])
		p = p[n:]
	}
	d.br.Reset(p)
	f.SentNs = d.br.ReadDoD(&d.tstate)
	for i := range out {
		if out[i].IsText {
			continue
		}
		v, ok := d.br.ReadValue(&d.preds[ids[i]])
		if !ok {
			d.chainOK = false
			return Frame{}, ErrV2Malformed
		}
		out[i].Num = v
	}
	if d.br.Failed() {
		d.chainOK = false
		return Frame{}, ErrV2Malformed
	}
	d.lastSeq = seq
	d.chainOK = true
	f.Values = out
	return f, nil
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
