package transmit

import (
	"bytes"
	"strings"
	"testing"

	"clusterworx/internal/consolidate"
)

func TestFrameTraceRoundtrip(t *testing.T) {
	in := Frame{
		Node:    "node042",
		Seq:     9,
		Kind:    FrameSnapshot,
		TraceID: 0xabcdef0123456789,
		TraceNs: 1234567890,
		Values: []consolidate.Value{
			{Name: "cpu.temp", Kind: consolidate.Dynamic, Num: 51},
		},
	}
	b := MarshalFrame(nil, in)
	header := string(b[:bytes.IndexByte(b, '\n')])
	if !strings.Contains(header, " t=") {
		t.Fatalf("traced header missing t= option: %q", header)
	}
	out, err := ParseFrame(b)
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	if out.TraceID != in.TraceID || out.TraceNs != in.TraceNs {
		t.Fatalf("trace context lost: got %x/%d want %x/%d",
			out.TraceID, out.TraceNs, in.TraceID, in.TraceNs)
	}
	if out.Node != in.Node || out.Seq != in.Seq || out.Kind != in.Kind {
		t.Fatalf("frame fields corrupted: %+v", out)
	}
	// Canonical fixpoint: marshal(parse(b)) == b.
	if again := MarshalFrame(nil, out); !bytes.Equal(again, b) {
		t.Fatalf("marshal not a fixpoint:\n%q\n%q", b, again)
	}
}

func TestFrameTraceNegativeOriginNs(t *testing.T) {
	in := Frame{Node: "n", Seq: 1, TraceID: 7, TraceNs: -42}
	out, err := ParseFrame(MarshalFrame(nil, in))
	if err != nil || out.TraceNs != -42 || out.TraceID != 7 {
		t.Fatalf("negative origin ns: %+v err=%v", out, err)
	}
}

func TestUntracedFramesUnchangedOnTheWire(t *testing.T) {
	// TraceID 0 must marshal byte-identically to the pre-trace format,
	// sequenced and legacy alike.
	seq := MarshalFrame(nil, Frame{Node: "node001", Seq: 3, Kind: FrameDelta})
	if got := string(seq[:bytes.IndexByte(seq, '\n')]); got != "node001 3 D" {
		t.Fatalf("untraced sequenced header changed: %q", got)
	}
	legacy := MarshalFrame(nil, Frame{Node: "node001", TraceID: 99})
	if got := string(legacy[:bytes.IndexByte(legacy, '\n')]); got != "node001" {
		t.Fatalf("legacy header must never carry options: %q", got)
	}
	f, err := ParseFrame(legacy)
	if err != nil || f.TraceID != 0 {
		t.Fatalf("legacy frame grew a trace: %+v err=%v", f, err)
	}
}

func TestParseFrameIgnoresUnknownAndMalformedOptions(t *testing.T) {
	cases := []struct {
		payload string
		trace   uint64
	}{
		{"node042 7 D t=zz\n", 0},                                         // non-hex
		{"node042 7 D t=0\n", 0},                                          // odd length
		{"node042 7 D t=00\n", 0},                                         // zero trace id
		{"node042 7 D t=\n", 0},                                           // empty
		{"node042 7 D x=1 q\n", 0},                                        // unknown options only
		{"node042 7 D x=1 t=0701\n", 7},                                   // unknown + valid trace
		{"node042 7 S t=0701 t=zz\n", 7},                                  // later malformed copy ignored
		{"node042 7 D t=ffffffffffffffffffffffffffffffffffffffffff\n", 0}, // too long
	}
	for _, c := range cases {
		f, err := ParseFrame([]byte(c.payload))
		if err != nil {
			t.Fatalf("ParseFrame(%q) must tolerate bad options: %v", c.payload, err)
		}
		if f.TraceID != c.trace {
			t.Fatalf("ParseFrame(%q) trace = %x, want %x", c.payload, f.TraceID, c.trace)
		}
		if f.Node != "node042" || f.Seq != 7 {
			t.Fatalf("ParseFrame(%q) mangled frame: %+v", c.payload, f)
		}
	}
	// Two fields is still malformed — options extend a full header only.
	if _, err := ParseFrame([]byte("node042 7\n")); err == nil {
		t.Fatal("two-field header must still be rejected")
	}
}

func TestParseTraceOptExactConsumption(t *testing.T) {
	b := appendTraceOpt(nil, 0xdead, 100)
	hex := string(b[len(" t="):])
	if _, _, ok := parseTraceOpt(hex); !ok {
		t.Fatalf("canonical option %q failed to parse", hex)
	}
	// Trailing garbage bytes after the two varints must be rejected.
	if _, _, ok := parseTraceOpt(hex + "00"); ok {
		t.Fatalf("option with trailing bytes %q should fail", hex+"00")
	}
}

// TestParseFrameDuplicateOptionsVoided pins the duplicate-option rule:
// two well-formed copies of the same known option are ambiguous — the
// sender cannot have meant both — so the option is voided entirely
// (never the frame). Malformed repeats stay ordinary skipped garbage.
func TestParseFrameDuplicateOptionsVoided(t *testing.T) {
	cases := []struct {
		payload string
		trace   uint64
		offer   uint8
	}{
		{"node042 7 D t=0701 t=0701\n", 0, 0},        // identical dup: voided
		{"node042 7 D t=0701 t=0902\n", 0, 0},        // conflicting dup: voided
		{"node042 7 D t=0701 t=0902 t=0b03\n", 0, 0}, // triplicate stays voided
		{"node042 7 D t=0701 t=zz\n", 7, 0},          // malformed repeat: not a dup
		{"node042 7 D t=zz t=0701\n", 7, 0},          // malformed first: later valid wins
		{"node042 7 D w=3 w=3\n", 0, 0},              // dup offers: voided
		{"node042 7 D w=3 w=4\n", 0, 0},              // conflicting offers: voided
		{"node042 7 D w=3 w=x\n", 0, 3},              // malformed repeat: not a dup
		{"node042 7 D w=2\n", 0, 0},                  // below WireV2 (an older build's offer): skipped
		{"node042 7 D w=1\n", 0, 0},
		{"node042 7 D w=0\n", 0, 0},
		{"node042 7 D w=256\n", 0, 0},   // overflows uint8
		{"node042 7 D w=99999\n", 0, 0}, // over the length bound
		{"node042 7 D w=\n", 0, 0},
		{"node042 7 D t=0701 w=3\n", 7, 3}, // independent options coexist
		{"node042 7 D w=3 t=0701\n", 7, 3}, // in either order
	}
	for _, c := range cases {
		f, err := ParseFrame([]byte(c.payload))
		if err != nil {
			t.Fatalf("ParseFrame(%q) must tolerate bad options: %v", c.payload, err)
		}
		if f.TraceID != c.trace {
			t.Fatalf("ParseFrame(%q) trace = %x, want %x", c.payload, f.TraceID, c.trace)
		}
		if f.WireOffer != c.offer {
			t.Fatalf("ParseFrame(%q) offer = %d, want %d", c.payload, f.WireOffer, c.offer)
		}
		if f.Node != "node042" || f.Seq != 7 {
			t.Fatalf("ParseFrame(%q) mangled frame: %+v", c.payload, f)
		}
	}
}

// TestParseFrameBoundsTraceOptBeforeDecode: a t= payload longer than any
// well-formed trace context is rejected by length alone, before the hex
// scan touches it (the corpus case is ~1 MiB of hex digits).
func TestParseFrameBoundsTraceOptBeforeDecode(t *testing.T) {
	huge := "node042 7 D t=" + strings.Repeat("ab", 1<<19) + "\n"
	f, err := ParseFrame([]byte(huge))
	if err != nil {
		t.Fatalf("huge trace option must not kill the frame: %v", err)
	}
	if f.TraceID != 0 {
		t.Fatalf("huge trace option parsed to %x", f.TraceID)
	}
	// The longest canonical option still parses: both varints maxed.
	b := appendTraceOpt(nil, ^uint64(0), -1)
	opt := string(b[len(" t="):])
	if len(opt) > maxTraceOptHex {
		t.Fatalf("canonical max option %d hex digits exceeds bound %d", len(opt), maxTraceOptHex)
	}
	f, err = ParseFrame([]byte("node042 7 D t=" + opt + "\n"))
	if err != nil || f.TraceID != ^uint64(0) || f.TraceNs != -1 {
		t.Fatalf("max-width trace context lost: %+v err=%v", f, err)
	}
}

// TestWireOfferRoundtrip: the w= option marshals only for sequenced
// frames and survives a parse; offer-free frames marshal byte-identically
// to the pre-offer format.
func TestWireOfferRoundtrip(t *testing.T) {
	in := Frame{Node: "node001", Seq: 3, WireOffer: WireV2}
	b := MarshalFrame(nil, in)
	if got := string(b[:bytes.IndexByte(b, '\n')]); got != "node001 3 D w=3" {
		t.Fatalf("offer header: %q", got)
	}
	out, err := ParseFrame(b)
	if err != nil || out.WireOffer != WireV2 {
		t.Fatalf("offer lost: %+v err=%v", out, err)
	}
	if again := MarshalFrame(nil, out); !bytes.Equal(again, b) {
		t.Fatalf("offer marshal not a fixpoint:\n%q\n%q", b, again)
	}
	// Legacy (unsequenced) frames have no option slot: no offer on the wire.
	legacy := MarshalFrame(nil, Frame{Node: "node001", WireOffer: WireV2})
	if got := string(legacy[:bytes.IndexByte(legacy, '\n')]); got != "node001" {
		t.Fatalf("legacy header grew an offer: %q", got)
	}
	plain := MarshalFrame(nil, Frame{Node: "node001", Seq: 3})
	if got := string(plain[:bytes.IndexByte(plain, '\n')]); got != "node001 3 D" {
		t.Fatalf("offer-free header changed: %q", got)
	}
}
