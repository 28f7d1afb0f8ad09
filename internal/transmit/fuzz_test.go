package transmit

import (
	"bytes"
	"encoding/binary"
	"testing"

	"clusterworx/internal/consolidate"
)

// fuzzSeedFrames are well-formed frames covering every header form and
// payload shape, so the fuzzer starts from deep in the grammar.
func fuzzSeedFrames() []Frame {
	values := []consolidate.Value{
		{Name: "cpu.load.1min", Kind: consolidate.Dynamic, Num: 1.25},
		{Name: "mem.free.kb", Kind: consolidate.Dynamic, Num: 191316},
		{Name: "os.release", Kind: consolidate.Static, IsText: true, Text: "2.4.18-27.7.x smp"},
	}
	return []Frame{
		{Node: "node042", Seq: 0, Kind: FrameDelta, Values: values},
		{Node: "node042", Seq: 7, Kind: FrameDelta, Values: values},
		{Node: "node042", Seq: 8, Kind: FrameSnapshot, Values: values},
		{Node: "n1", Seq: 1, Kind: FrameDelta, Values: nil},
		// Trace-context-bearing headers (the "t=" option), delta and
		// snapshot, plus mixed trace magnitudes so the fuzzer sees both
		// short and max-length varints.
		{Node: "node042", Seq: 9, Kind: FrameDelta, TraceID: 0xabcdef0123456789, TraceNs: 1234567890, Values: values},
		{Node: "node042", Seq: 10, Kind: FrameSnapshot, TraceID: 1, TraceNs: -1, Values: values},
		{Node: "n1", Seq: 2, Kind: FrameDelta, TraceID: ^uint64(0), Values: nil},
		// Version-offer-bearing headers (the "w=" option), alone and next
		// to a trace context.
		{Node: "node042", Seq: 11, Kind: FrameDelta, WireOffer: WireV2, Values: values},
		{Node: "node042", Seq: 12, Kind: FrameSnapshot, WireOffer: WireV2, TraceID: 5, TraceNs: 9, Values: values},
	}
}

// fuzzMalformedPayloads is the malformed-frame corpus from
// TestParseFrameRejectsMalformed, reused as fuzz seeds.
func fuzzMalformedPayloads() []string {
	return []string{
		"",
		"node042 7\n",
		"node042 7 D extra\n",
		"node042 7 D t=zz\n",
		"node042 7 D t=00\n",
		"node042 7 S x=1 t=0701\n",
		"node042 0 D\n",
		"node042 seven D\n",
		"node042 -3 D\n",
		"node042 7 X\n",
		"!resync node042",
		"no\x01de\n",
		"node042 7 D\ncpu.load\n",
		"node042\nos.release S t \"Linu\n",
		// Option-grammar edge cases: duplicates (voided), malformed
		// repeats (skipped), offers out of range or mixed with traces.
		"node042 7 D t=0701 t=0701\n",
		"node042 7 D t=0701 t=zz\n",
		"node042 7 D w=2 w=2\n",
		"node042 7 D w=2 w=x\n",
		"node042 7 D w=0\n",
		"node042 7 D w=256\n",
		"node042 7 D w=2 t=0701\n",
		"node042 7 D t=0701 w=2 w=3\n",
	}
}

// FuzzParseFrame asserts the parser's contract on arbitrary payloads: it
// never panics, never accepts a garbage node name, and every accepted
// frame survives a marshal→parse→marshal fixpoint (the canonical form is
// stable, so the server and agent agree on what was said).
func FuzzParseFrame(f *testing.F) {
	for _, fr := range fuzzSeedFrames() {
		f.Add(MarshalFrame(nil, fr))
	}
	for _, s := range fuzzMalformedPayloads() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		f0, err := ParseFrame(payload)
		if err != nil {
			return
		}
		if !validNodeName(f0.Node) {
			t.Fatalf("accepted invalid node name %q", f0.Node)
		}
		if f0.Kind != FrameDelta && f0.Kind != FrameSnapshot {
			t.Fatalf("accepted unknown frame kind %v", f0.Kind)
		}
		if f0.Seq == 0 && f0.Kind != FrameDelta {
			t.Fatalf("unsequenced frame with kind %v", f0.Kind)
		}
		if f0.Seq == 0 && f0.TraceID != 0 {
			t.Fatalf("unsequenced frame carrying a trace: %+v", f0)
		}
		if f0.Seq == 0 && f0.WireOffer != 0 {
			t.Fatalf("unsequenced frame carrying a version offer: %+v", f0)
		}
		if f0.WireOffer != 0 && f0.WireOffer < WireV2 {
			t.Fatalf("accepted sub-v2 version offer: %+v", f0)
		}
		wire1 := MarshalFrame(nil, f0)
		f1, err := ParseFrame(wire1)
		if err != nil {
			t.Fatalf("remarshaled frame does not parse: %v\npayload %q\nwire %q", err, payload, wire1)
		}
		if f1.Node != f0.Node || f1.Seq != f0.Seq || f1.Kind != f0.Kind || len(f1.Values) != len(f0.Values) {
			t.Fatalf("roundtrip changed the frame: %+v -> %+v", f0, f1)
		}
		if f1.TraceID != f0.TraceID || f1.TraceNs != f0.TraceNs {
			t.Fatalf("roundtrip changed the trace context: %+v -> %+v", f0, f1)
		}
		if f1.WireOffer != f0.WireOffer {
			t.Fatalf("roundtrip changed the version offer: %+v -> %+v", f0, f1)
		}
		// Byte-level fixpoint instead of field comparison for the values:
		// it holds for every accepted payload, including NaN numerics
		// (which compare unequal to themselves) and non-canonical float
		// spellings in the input.
		if wire2 := MarshalFrame(nil, f1); !bytes.Equal(wire1, wire2) {
			t.Fatalf("canonical form is not a fixpoint:\nfirst  %q\nsecond %q", wire1, wire2)
		}
	})
}

// FuzzReadWireValues drives the byte-level framing layer (header parse,
// length bound, optional deflate) and then the payload parser over
// arbitrary wire bytes: no panics, no oversized payloads, and whatever
// decodes cleanly must satisfy the ParseFrame contract.
func FuzzReadWireValues(f *testing.F) {
	// Well-formed wire in both modes.
	for _, compress := range []bool{false, true} {
		var wire bytes.Buffer
		w := NewWriter(&wire, compress)
		for _, fr := range fuzzSeedFrames() {
			if err := w.WriteFrame(MarshalFrame(nil, fr)); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(wire.Bytes())
	}
	// Corrupt wire: bad magic, truncated header, oversized length field,
	// length beyond the body, flipped byte inside a compressed body.
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 'a', 'b', 'c', 'd'})
	f.Add([]byte{frameMagic, 0x00, 0x00})
	huge := []byte{frameMagic, 0x00, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(huge[2:], MaxFrameSize+1)
	f.Add(huge)
	f.Add([]byte{frameMagic, 0x00, 0x00, 0x00, 0x00, 0x10, 'x'})
	var cw bytes.Buffer
	w := NewWriter(&cw, true)
	if err := w.WriteFrame(bytes.Repeat([]byte("cpu.load.1min D n 1.25\n"), 64)); err != nil {
		f.Fatal(err)
	}
	corrupt := cw.Bytes()
	if len(corrupt) > headerSize {
		corrupt[headerSize] ^= 0x40
	}
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, wire []byte) {
		r := NewReader(bytes.NewReader(wire))
		for {
			payload, err := r.ReadFrame()
			if err != nil {
				return
			}
			if len(payload) > MaxFrameSize {
				t.Fatalf("ReadFrame returned %d bytes, above MaxFrameSize", len(payload))
			}
			fr, err := ParseFrame(payload)
			if err != nil {
				continue
			}
			if !validNodeName(fr.Node) {
				t.Fatalf("framing layer delivered invalid node name %q", fr.Node)
			}
		}
	})
}

// FuzzDecodeFrameV2 drives the binary v2 decoder over arbitrary bytes,
// cold and mid-session: it must never panic, never accept a garbage
// node name or a zero sequence number, and must always recover when the
// next sender rebases — a malformed datagram can cost a frame, never
// the session.
func FuzzDecodeFrameV2(f *testing.F) {
	enc := NewEncoderV2()
	seeds := [][]byte{}
	for i, fr := range fuzzSeedFrames() {
		if fr.Seq == 0 {
			continue
		}
		fr.SentNs = int64(i) * 1_000_000
		seeds = append(seeds, enc.Encode(nil, fr))
	}
	// A dictionary-tail-free frame (all entries acked).
	enc.Ack(enc.TableLen())
	seeds = append(seeds, enc.Encode(nil, Frame{Node: "node042", Seq: 99,
		Values: []consolidate.Value{{Name: "cpu.load.1min", Kind: consolidate.Dynamic, Num: 2.5}}}))
	for _, s := range seeds {
		f.Add(s)
		// Truncated dictionaries and bodies: every prefix quartile.
		for _, cut := range []int{1, 2, len(s) / 4, len(s) / 2, len(s) - 1} {
			if cut >= 0 && cut < len(s) {
				f.Add(s[:cut])
			}
		}
		// One flipped byte in each region.
		for _, pos := range []int{1, len(s) / 3, 2 * len(s) / 3} {
			if pos < len(s) {
				c := append([]byte(nil), s...)
				c[pos] ^= 0x55
				f.Add(c)
			}
		}
	}
	// Non-v2 shapes: v1 text, control payloads, bare magic.
	f.Add([]byte("node042 7 D w=2\n"))
	f.Add([]byte("!wire 2"))
	f.Add([]byte{V2Magic})
	f.Add([]byte{V2Magic, 0xff, 0x01})
	// One entry more than a receiver will hold (see TestV2DictionaryBound).
	f.Add(dictionaryFlood(false, maxV2Entries+1))

	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, warm := range []bool{false, true} {
			d := NewDecoderV2()
			if warm {
				// Mid-session decoder: a live dictionary and predictor chain.
				we := NewEncoderV2()
				var b []byte
				for seq := uint64(1); seq <= 2; seq++ {
					b = we.Encode(b[:0], Frame{Node: "node042", Seq: seq,
						Values: []consolidate.Value{{Name: "cpu.load.1min", Kind: consolidate.Dynamic, Num: float64(seq)}}})
					if _, err := d.Decode(b); err != nil {
						t.Fatalf("warmup decode: %v", err)
					}
				}
			}
			fr, err := d.Decode(payload)
			if err == nil || err == ErrV2Desync {
				if !validNodeName(fr.Node) {
					t.Fatalf("accepted invalid node name %q (warm=%v)", fr.Node, warm)
				}
				if fr.Seq == 0 {
					t.Fatalf("accepted zero sequence number (warm=%v)", warm)
				}
			}
			// Healing invariant: whatever the payload did to the decoder, a
			// fresh sender's rebase frame (chain reset + tailStart 0) must
			// decode — the "!wreset" recovery path can never wedge.
			he := NewEncoderV2()
			heal := he.Encode(nil, Frame{Node: "n1", Seq: 1,
				Values: []consolidate.Value{{Name: "m", Kind: consolidate.Dynamic, Num: 1}}})
			if _, err := d.Decode(heal); err != nil {
				t.Fatalf("rebase frame did not heal the decoder (warm=%v): %v", warm, err)
			}
		}
	})
}

// FuzzDecodeBatchV2 drives the batched uplink decoder over arbitrary
// bytes, cold and mid-session: it must never panic, never emit a
// garbage node name, never emit anything on a failed decode, and must
// always recover when the next sender rebases — a corrupt batch can
// cost one flush, never the uplink session.
func FuzzDecodeBatchV2(f *testing.F) {
	enc := NewBatchEncoderV2()
	mk := func(round uint64) []Frame {
		return []Frame{
			{Node: "node000", Kind: FrameDelta, Values: []consolidate.Value{
				{Name: "cpu.load.1min", Kind: consolidate.Dynamic, Num: float64(round) * 0.5},
				{Name: "os.release", Kind: consolidate.Static, IsText: true, Text: "2.4.18-27.7.x smp"},
			}},
			{Node: "rack/leaf00", Kind: FrameSnapshot, TraceID: round, TraceNs: -int64(round), Values: []consolidate.Value{
				{Name: "cpu.load.1min.sum", Kind: consolidate.Dynamic, Num: float64(round) * 8},
			}},
		}
	}
	seeds := [][]byte{}
	for seq := uint64(1); seq <= 3; seq++ {
		seeds = append(seeds, enc.Encode(nil, seq, int64(seq)*1_000_000, mk(seq)))
	}
	enc.Ack(enc.TableLen())
	seeds = append(seeds, enc.Encode(nil, 4, 4_000_000, mk(4))) // tail-free
	seeds = append(seeds, enc.Encode(nil, 5, 5_000_000, nil))   // empty batch
	for _, s := range seeds {
		f.Add(s)
		for _, cut := range []int{1, 2, len(s) / 4, len(s) / 2, len(s) - 1} {
			if cut >= 0 && cut < len(s) {
				f.Add(s[:cut])
			}
		}
		for _, pos := range []int{1, len(s) / 3, 2 * len(s) / 3} {
			if pos < len(s) {
				c := append([]byte(nil), s...)
				c[pos] ^= 0x55
				f.Add(c)
			}
		}
	}
	f.Add([]byte("node042 7 D w=2\n"))
	f.Add([]byte("!uresync"))
	f.Add([]byte{V2Magic, v2FlagBatch})
	f.Add([]byte{V2Magic, 0xff, 0x01})
	f.Add(dictionaryFlood(true, maxV2Entries+1))

	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, warm := range []bool{false, true} {
			d := NewBatchDecoderV2()
			if warm {
				we := NewBatchEncoderV2()
				var b []byte
				for seq := uint64(1); seq <= 2; seq++ {
					b = we.Encode(b[:0], seq, int64(seq), mk(seq))
					if _, err := d.Decode(b, func(Frame) {}); err != nil {
						t.Fatalf("warmup decode: %v", err)
					}
				}
			}
			emitted := 0
			n, err := d.Decode(payload, func(fr Frame) {
				emitted++
				if !validNodeName(fr.Node) {
					t.Fatalf("emitted invalid node name %q (warm=%v)", fr.Node, warm)
				}
				if fr.Seq != 0 {
					t.Fatalf("sub-frame carries a per-node seq (warm=%v)", warm)
				}
				for i := range fr.Values {
					_ = fr.Values[i].Render()
				}
			})
			if err != nil && emitted != 0 {
				t.Fatalf("failed decode (%v) emitted %d sub-frames (warm=%v)", err, emitted, warm)
			}
			if err == nil && n != emitted {
				t.Fatalf("reported %d nodes, emitted %d (warm=%v)", n, emitted, warm)
			}
			// Healing invariant: a fresh sender's rebase frame always decodes.
			he := NewBatchEncoderV2()
			heal := he.Encode(nil, 1, 1, mk(1))
			if _, err := d.Decode(heal, func(Frame) {}); err != nil {
				t.Fatalf("rebase frame did not heal the decoder (warm=%v): %v", warm, err)
			}
		}
	})
}
