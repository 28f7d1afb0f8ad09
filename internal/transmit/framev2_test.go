package transmit

import (
	"math"
	"strconv"
	"testing"

	"clusterworx/internal/consolidate"
)

// v2TestFrame builds a representative frame for codec tests.
func v2TestFrame(seq uint64, cpu, mem float64) Frame {
	return Frame{
		Node: "node042",
		Seq:  seq,
		Kind: FrameDelta,
		Values: []consolidate.Value{
			consolidate.NumValue("cpu.load", consolidate.Dynamic, cpu),
			consolidate.NumValue("mem.free", consolidate.Dynamic, mem),
			consolidate.TextValue("os.release", consolidate.Static, "2.4.19-smp"),
		},
		SentNs: int64(seq) * 15_000_000_000,
	}
}

// requireV2Equal compares a decoded frame against what was encoded.
func requireV2Equal(t *testing.T, got, want Frame) {
	t.Helper()
	if got.Node != want.Node || got.Seq != want.Seq || got.Kind != want.Kind {
		t.Fatalf("header mismatch: got %s/%d/%v want %s/%d/%v",
			got.Node, got.Seq, got.Kind, want.Node, want.Seq, want.Kind)
	}
	if got.TraceID != want.TraceID || got.TraceNs != want.TraceNs {
		t.Fatalf("trace mismatch: got %d/%d want %d/%d", got.TraceID, got.TraceNs, want.TraceID, want.TraceNs)
	}
	if got.SentNs != want.SentNs {
		t.Fatalf("SentNs mismatch: got %d want %d", got.SentNs, want.SentNs)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("value count mismatch: got %d want %d", len(got.Values), len(want.Values))
	}
	for i := range want.Values {
		g, w := got.Values[i], want.Values[i]
		if g.Name != w.Name || g.Kind != w.Kind || g.IsText != w.IsText || g.Text != w.Text {
			t.Fatalf("value %d mismatch: got %+v want %+v", i, g, w)
		}
		// NaN-safe numeric comparison: bit equality is the codec's contract.
		if math.Float64bits(g.Num) != math.Float64bits(w.Num) {
			t.Fatalf("value %d numeric mismatch: got %v want %v", i, g.Num, w.Num)
		}
	}
}

// TestV2RoundtripChain: a chain of delta frames roundtrips exactly —
// names, kinds, text, trace context, SentNs, and bit-exact numerics.
func TestV2RoundtripChain(t *testing.T) {
	enc := NewEncoderV2()
	dec := NewDecoderV2()
	var buf []byte
	for seq := uint64(1); seq <= 20; seq++ {
		f := v2TestFrame(seq, 0.25*float64(seq%7), 1024-float64(seq))
		if seq == 3 {
			f.TraceID, f.TraceNs = 0xbeef, -12345 // negative ns exercises the zigzag
		}
		if seq == 5 {
			f.Values[0].Num = math.NaN()
			f.Values[1].Num = math.Inf(-1)
		}
		buf = enc.Encode(buf[:0], f)
		if !IsV2Payload(buf) {
			t.Fatalf("seq %d: payload not v2", seq)
		}
		got, err := dec.Decode(buf)
		if err != nil {
			t.Fatalf("seq %d: decode: %v", seq, err)
		}
		requireV2Equal(t, got, f)
	}
}

// TestV2UnchangedTextDecodesWithoutAllocating: a text value equal to
// the last one under its name decodes to the kept string, allocating
// nothing; a changed one decodes to its new bytes, and so do texts past
// the kept ones and the texts after a rebase.
func TestV2UnchangedTextDecodesWithoutAllocating(t *testing.T) {
	enc, dec := NewEncoderV2(), NewDecoderV2()
	f := v2TestFrame(0, 1, 2)
	var buf []byte
	var got Frame
	decode := func() {
		f.Seq++
		buf = enc.Encode(buf[:0], f)
		var err error
		if got, err = dec.Decode(buf); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if n, ok := dec.PendingAck(); ok {
		enc.Ack(n)
	}
	decode() // warm the decoder's scratch
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Fatalf("decoding an unchanged text allocates %.1f times per frame, want 0", allocs)
	}
	requireV2Equal(t, got, f)
	for _, text := range []string{"2.6.0", "2.6.0", "2.4.19-smp"} {
		f.Values[2].Text = text
		decode()
		requireV2Equal(t, got, f)
	}
	for i := 0; i < maxKeptTexts+4; i++ {
		f.Values = append(f.Values, consolidate.TextValue("text."+strconv.Itoa(i), consolidate.Static, strconv.Itoa(i)))
	}
	for _, suffix := range []string{"", "", "-b"} {
		for i := 3; i < len(f.Values); i++ {
			f.Values[i].Text = strconv.Itoa(i) + suffix
		}
		decode()
		requireV2Equal(t, got, f)
	}
	enc.Rebase()
	f.Values[2].Text = "2.6.1"
	decode()
	requireV2Equal(t, got, f)
}

// TestV2DictAckStopsTailResend: the dictionary tail is resent every
// frame until acked, then disappears, shrinking the payload.
func TestV2DictAckStopsTailResend(t *testing.T) {
	enc := NewEncoderV2()
	dec := NewDecoderV2()

	buf := enc.Encode(nil, v2TestFrame(1, 1, 2))
	withTail := len(buf)
	if _, err := dec.Decode(buf); err != nil {
		t.Fatalf("decode: %v", err)
	}
	n, ok := dec.PendingAck()
	if !ok || n != enc.TableLen() {
		t.Fatalf("PendingAck = %d,%v want %d,true", n, ok, enc.TableLen())
	}
	if _, ok := dec.PendingAck(); ok {
		t.Fatal("PendingAck not consumed")
	}

	// Unacked: the tail rides again.
	buf = enc.Encode(buf[:0], v2TestFrame(2, 1, 2))
	if _, err := dec.Decode(buf); err != nil {
		t.Fatalf("decode unacked resend: %v", err)
	}
	if _, ok := dec.PendingAck(); !ok {
		t.Fatal("resent tail did not re-arm the ack (lost-ack recovery broken)")
	}

	enc.Ack(n)
	if enc.Acked() != n {
		t.Fatalf("Acked = %d want %d", enc.Acked(), n)
	}
	enc.Ack(n - 1) // stale ack must not regress
	if enc.Acked() != n {
		t.Fatal("stale ack regressed the acked prefix")
	}
	enc.Ack(n + 100) // absurd ack must be ignored
	if enc.Acked() != n {
		t.Fatal("absurd ack advanced past the table")
	}

	buf = enc.Encode(buf[:0], v2TestFrame(3, 1, 2))
	if len(buf) >= withTail {
		t.Fatalf("acked frame (%dB) not smaller than tailed frame (%dB)", len(buf), withTail)
	}
	got, err := dec.Decode(buf)
	if err != nil {
		t.Fatalf("decode tail-free: %v", err)
	}
	if got.Node != "node042" || len(got.Values) != 3 {
		t.Fatalf("tail-free decode wrong: %+v", got)
	}
	if _, ok := dec.PendingAck(); ok {
		t.Fatal("tail-free frame owes no ack")
	}
}

// TestV2LostFrameDesyncsThenSnapshotHeals: dropping a frame breaks the
// predictor chain — the decoder returns the header with ErrV2Desync so
// the seq machinery books the gap — and a snapshot (chain reset) heals.
func TestV2LostFrameDesyncsThenSnapshotHeals(t *testing.T) {
	enc := NewEncoderV2()
	dec := NewDecoderV2()
	var buf []byte

	buf = enc.Encode(buf[:0], v2TestFrame(1, 1, 2))
	if _, err := dec.Decode(buf); err != nil {
		t.Fatalf("decode 1: %v", err)
	}
	_ = enc.Encode(buf[:0], v2TestFrame(2, 3, 4)) // lost in flight

	buf = enc.Encode(nil, v2TestFrame(3, 5, 6))
	got, err := dec.Decode(buf)
	if err != ErrV2Desync {
		t.Fatalf("decode after loss: err = %v want ErrV2Desync", err)
	}
	if got.Node != "node042" || got.Seq != 3 || got.Values != nil {
		t.Fatalf("desync frame not header-only: %+v", got)
	}

	// In-order successor of an undecodable frame is still undecodable.
	buf = enc.Encode(buf[:0], v2TestFrame(4, 7, 8))
	if _, err := dec.Decode(buf); err != ErrV2Desync {
		t.Fatalf("in-order frame after break: err = %v want ErrV2Desync", err)
	}

	// The healing snapshot carries the chain-reset flag.
	snap := v2TestFrame(5, 9, 10)
	snap.Kind = FrameSnapshot
	buf = enc.Encode(buf[:0], snap)
	got, err = dec.Decode(buf)
	if err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	requireV2Equal(t, got, snap)

	// And the chain continues normally afterwards.
	buf = enc.Encode(buf[:0], v2TestFrame(6, 11, 12))
	if _, err := dec.Decode(buf); err != nil {
		t.Fatalf("decode post-snapshot: %v", err)
	}
}

// TestV2RebaseAfterSendFailure: when a send errors the transport calls
// Rebase, so the next frame re-anchors the chain and decodes even though
// the previous frame never arrived.
func TestV2RebaseAfterSendFailure(t *testing.T) {
	enc := NewEncoderV2()
	dec := NewDecoderV2()

	buf := enc.Encode(nil, v2TestFrame(1, 1, 2))
	if _, err := dec.Decode(buf); err != nil {
		t.Fatalf("decode 1: %v", err)
	}
	_ = enc.Encode(buf[:0], v2TestFrame(2, 3, 4)) // send failed after encode
	enc.Rebase()

	// The agent retries seq 2 (hand-off failed, seq not advanced).
	buf = enc.Encode(nil, v2TestFrame(2, 3, 4))
	got, err := dec.Decode(buf)
	if err != nil {
		t.Fatalf("decode rebased retry: %v", err)
	}
	if got.Seq != 2 || len(got.Values) != 3 {
		t.Fatalf("rebased retry wrong: %+v", got)
	}
}

// TestV2FreshDecoderTriggersWresetRecovery: a restarted receiver holds
// no dictionary; the first frame referencing it yields ErrV2NeedReset,
// and the sender's ResetTable rebase frame is adopted wholesale.
func TestV2FreshDecoderTriggersWresetRecovery(t *testing.T) {
	enc := NewEncoderV2()
	warm := NewDecoderV2()
	buf := enc.Encode(nil, v2TestFrame(1, 1, 2))
	if _, err := warm.Decode(buf); err != nil {
		t.Fatalf("warm decode: %v", err)
	}
	n, _ := warm.PendingAck()
	enc.Ack(n)

	// Receiver restarts: fresh decoder, sender unaware.
	fresh := NewDecoderV2()
	buf = enc.Encode(buf[:0], v2TestFrame(2, 3, 4))
	if _, err := fresh.Decode(buf); err != ErrV2NeedReset {
		t.Fatalf("fresh decoder: err = %v want ErrV2NeedReset", err)
	}

	// "!wreset" answer: the sender rebases from entry 0.
	enc.ResetTable()
	buf = enc.Encode(buf[:0], v2TestFrame(3, 5, 6))
	got, err := fresh.Decode(buf)
	if err != nil {
		t.Fatalf("decode rebase frame: %v", err)
	}
	if got.Node != "node042" || len(got.Values) != 3 {
		t.Fatalf("rebase adoption wrong: %+v", got)
	}
	if fresh.TableLen() != enc.TableLen() {
		t.Fatalf("adopted table %d entries, sender has %d", fresh.TableLen(), enc.TableLen())
	}
}

// TestV2ConflictingTableMismatch: a tail overlapping known entries with
// different names means the two sides hold different tables — the
// decoder must refuse (NeedReset), not silently remap metric names.
func TestV2ConflictingTableMismatch(t *testing.T) {
	encA := NewEncoderV2()
	dec := NewDecoderV2()
	fa := Frame{Node: "node042", Seq: 1, Values: []consolidate.Value{
		consolidate.NumValue("cpu.load", consolidate.Dynamic, 1)}}
	buf := encA.Encode(nil, fa)
	if _, err := dec.Decode(buf); err != nil {
		t.Fatalf("decode A: %v", err)
	}

	// A different encoder whose entry 1 disagrees, sending a tail that
	// claims the decoder's entry 1 (as after an ack raced a restart).
	encB := NewEncoderV2()
	fb := Frame{Node: "node042", Seq: 1, Values: []consolidate.Value{
		consolidate.NumValue("mem.free", consolidate.Dynamic, 2)}}
	_ = encB.Encode(nil, fb)
	encB.Ack(1) // pretend entry 0 ("node042") was acked
	fb.Seq = 2
	buf = encB.Encode(buf[:0], fb)
	if _, err := dec.Decode(buf); err != ErrV2NeedReset {
		t.Fatalf("conflicting tail: err = %v want ErrV2NeedReset", err)
	}
}

// TestV2MalformedInputs: truncations at every byte, flipped unknown
// flags, and garbage must error without panicking, and a zero seq is
// rejected.
func TestV2MalformedInputs(t *testing.T) {
	enc := NewEncoderV2()
	f := v2TestFrame(1, 1, 2)
	f.TraceID, f.TraceNs = 7, 42
	full := enc.Encode(nil, f)

	for cut := 0; cut < len(full); cut++ {
		if _, err := NewDecoderV2().Decode(full[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}

	bad := append([]byte(nil), full...)
	bad[1] |= 1 << 6 // unknown flag bit
	if _, err := NewDecoderV2().Decode(bad); err != ErrV2Malformed {
		t.Fatalf("unknown flag: err = %v want ErrV2Malformed", err)
	}

	if _, err := NewDecoderV2().Decode([]byte{V2Magic, 0, 0}); err != ErrV2Malformed {
		t.Fatal("zero seq accepted")
	}
	if _, err := NewDecoderV2().Decode([]byte("node042 1 D\n")); err != ErrV2Version {
		t.Fatal("v1 payload not rejected with ErrV2Version")
	}

	// Corrupt the bit column: the XOR stream must fail cleanly.
	bad = append(bad[:0], full...)
	bad[len(bad)-1] ^= 0xff
	bad = bad[:len(bad)-1]
	if _, err := NewDecoderV2().Decode(bad); err == nil {
		t.Fatal("corrupt bit column decoded successfully")
	}
}

// TestV2ControlFrames: the negotiation control payloads roundtrip, and
// an old agent's ParseResync ignores all of them (the forward-compat
// rule the rollout rests on).
func TestV2ControlFrames(t *testing.T) {
	ans := MarshalWireAnswer(nil, WireV2)
	if ver, ok := ParseWireAnswer(ans); !ok || ver != WireV2 {
		t.Fatalf("ParseWireAnswer(%q) = %d,%v", ans, ver, ok)
	}
	ack := MarshalDictAck(nil, 17)
	if n, ok := ParseDictAck(ack); !ok || n != 17 {
		t.Fatalf("ParseDictAck(%q) = %d,%v", ack, n, ok)
	}
	rst := MarshalWireReset(nil)
	if !IsWireReset(rst) {
		t.Fatalf("IsWireReset(%q) = false", rst)
	}
	for _, p := range [][]byte{ans, ack, rst} {
		if _, ok := ParseResync(p); ok {
			t.Fatalf("old agent would mistake %q for a resync", p)
		}
	}
	for _, bad := range []string{"!wire ", "!wire 0", "!wire x", "!wire 999", "!wack ", "!wack -1", "!wack 9999999999999", "!wresetx"} {
		if _, ok := ParseWireAnswer([]byte(bad)); ok && bad[1] == 'w' && bad[2] == 'i' {
			t.Fatalf("ParseWireAnswer accepted %q", bad)
		}
		if _, ok := ParseDictAck([]byte(bad)); ok && len(bad) > 5 && bad[2] == 'a' {
			t.Fatalf("ParseDictAck accepted %q", bad)
		}
		if IsWireReset([]byte(bad)) {
			t.Fatalf("IsWireReset accepted %q", bad)
		}
	}
}

// TestV2BeatsV1DeflateOnSteadyState: the headline property — once the
// dictionary is acked, a steady-state v2 delta frame is smaller than
// the same frame's deflated v1 text form.
func TestV2BeatsV1DeflateOnSteadyState(t *testing.T) {
	enc := NewEncoderV2()
	dec := NewDecoderV2()
	var v2buf, v1buf []byte
	for seq := uint64(1); seq <= 10; seq++ {
		f := v2TestFrame(seq, 0.7+0.01*float64(seq), 2048-float64(3*seq))
		v2buf = enc.Encode(v2buf[:0], f)
		if _, err := dec.Decode(v2buf); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if n, ok := dec.PendingAck(); ok {
			enc.Ack(n)
		}
		if seq <= 2 {
			continue // dictionary still in flight
		}
		v1buf = MarshalFrame(v1buf[:0], f)
		v1wire := CompressedSize(v1buf)
		if v1wire < 0 || v1wire > len(v1buf) {
			v1wire = len(v1buf)
		}
		if len(v2buf) >= v1wire {
			t.Fatalf("seq %d: v2 %dB not smaller than deflated v1 %dB", seq, len(v2buf), v1wire)
		}
	}
}
