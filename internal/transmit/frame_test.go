package transmit

import (
	"reflect"
	"testing"

	"clusterworx/internal/consolidate"
)

func TestFrameHeaderRoundTrip(t *testing.T) {
	values := []consolidate.Value{
		{Name: "cpu.load.1min", Kind: consolidate.Dynamic, Num: 1.25},
		{Name: "os.release", Kind: consolidate.Static, IsText: true, Text: "Linux 2.4.18"},
	}
	cases := []Frame{
		{Node: "node042", Seq: 0, Kind: FrameDelta, Values: values}, // legacy header
		{Node: "node042", Seq: 7, Kind: FrameDelta, Values: values},
		{Node: "node042", Seq: 8, Kind: FrameSnapshot, Values: values},
		{Node: "n", Seq: 1, Kind: FrameDelta, Values: nil}, // sequenced heartbeat
	}
	for _, want := range cases {
		payload := MarshalFrame(nil, want)
		got, err := ParseFrame(payload)
		if err != nil {
			t.Fatalf("ParseFrame(%+v): %v", want, err)
		}
		if got.Node != want.Node || got.Seq != want.Seq || got.Kind != want.Kind {
			t.Fatalf("header roundtrip: got %+v, want %+v", got, want)
		}
		if len(want.Values) > 0 && !reflect.DeepEqual(got.Values, want.Values) {
			t.Fatalf("values roundtrip: got %+v, want %+v", got.Values, want.Values)
		}
	}
}

func TestParseFrameRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		payload string
	}{
		{"empty", ""},
		{"two-field header", "node042 7\n"},
		{"zero seq", "node042 0 D\n"},
		{"non-numeric seq", "node042 seven D\n"},
		{"negative seq", "node042 -3 D\n"},
		{"bad kind", "node042 7 X\n"},
		{"control frame", "!resync node042"},
		{"binary garbage name", "no\x01de\n"},
		{"name with del byte", "node\x7f\n"},
		{"bad value line", "node042 7 D\ncpu.load\n"},
		{"truncated quoted text", "node042\nos.release S t \"Linu\n"},
		// Unsequenced (name-only) headers reach the same value parser.
		{"missing value separator", "node042\nload.1Dn1.5\n"},
		{"truncated value line", "node042\nload.1 D\n"},
		{"whitespace node name", "\nload.1 D n 1.5\n"},
		{"binary garbage", "\x1f\x8b\x00\xff\xfe"},
	}
	for _, tc := range cases {
		if _, err := ParseFrame([]byte(tc.payload)); err == nil {
			t.Errorf("%s: ParseFrame(%q) accepted a malformed frame", tc.name, tc.payload)
		}
	}
}

func TestParseFrameLegacyHeader(t *testing.T) {
	// The bare name header (what old agents send) must keep parsing as an
	// unsequenced delta.
	f, err := ParseFrame([]byte("lonely"))
	if err != nil {
		t.Fatalf("legacy name-only frame: %v", err)
	}
	if f.Node != "lonely" || f.Seq != 0 || f.Kind != FrameDelta || len(f.Values) != 0 {
		t.Fatalf("legacy frame = %+v", f)
	}
}

func TestResyncRoundTrip(t *testing.T) {
	b := MarshalResync(nil, "node007")
	node, ok := ParseResync(b)
	if !ok || node != "node007" {
		t.Fatalf("ParseResync(%q) = %q, %v", b, node, ok)
	}
	// A resync request must never parse as a data frame, and vice versa.
	if _, err := ParseFrame(b); err == nil {
		t.Fatal("ParseFrame accepted a control frame")
	}
	if _, ok := ParseResync([]byte("node042 7 D\n")); ok {
		t.Fatal("ParseResync accepted a data frame")
	}
	if _, ok := ParseResync([]byte("!resync bad name")); ok {
		t.Fatal("ParseResync accepted a whitespace node name")
	}
	if _, ok := ParseResync([]byte("!resync ")); ok {
		t.Fatal("ParseResync accepted an empty node name")
	}
}

func TestFrameKindString(t *testing.T) {
	if FrameDelta.String() != "delta" || FrameSnapshot.String() != "snapshot" {
		t.Fatalf("kind strings: %q %q", FrameDelta.String(), FrameSnapshot.String())
	}
}
