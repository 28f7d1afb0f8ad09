package transmit

import (
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/history"
)

// One harness for both v2 frame families: a link adapter that hides
// what differs between them (how many nodes a frame carries, who owns
// the sequence number), a seeded frame generator, the golden wire
// fixture and the schedule property test.

// v2Sender and v2Receiver are the session operations both families
// share; the four codec types satisfy them as they are.
type v2Sender interface {
	Ack(n int)
	ResetTable()
	Rebase()
	TableLen() int
	Acked() int
}

type v2Receiver interface {
	PendingAck() (int, bool)
	TableLen() int
}

// v2Link is one sender/receiver pair of either family.
type v2Link struct {
	name   string
	snd    v2Sender
	rcv    v2Receiver
	encode func(seq uint64, sentNs int64, nodes []Frame) []byte
	// decode returns deep copies of what the decoder produced: every
	// sub-frame of a batch, or the one frame of a single-node payload
	// (header-only alongside ErrV2Desync).
	decode func(payload []byte) ([]Frame, error)
	// want is what a clean decode of encode's arguments must equal.
	want    func(seq uint64, sentNs int64, nodes []Frame) []Frame
	fresh   func() // replace the receiver with a restarted one
	restart func() // replace the sender with a restarted one
}

func cloneFrame(f Frame) Frame {
	if f.Values != nil {
		f.Values = append([]consolidate.Value{}, f.Values...)
	}
	return f
}

func newSingleLink() *v2Link {
	enc, dec := NewEncoderV2(), NewDecoderV2()
	l := &v2Link{name: "single", snd: enc, rcv: dec}
	stamp := func(seq uint64, sentNs int64, nodes []Frame) Frame {
		f := nodes[0]
		f.Seq, f.SentNs = seq, sentNs
		return f
	}
	l.encode = func(seq uint64, sentNs int64, nodes []Frame) []byte {
		return enc.Encode(nil, stamp(seq, sentNs, nodes))
	}
	l.decode = func(payload []byte) ([]Frame, error) {
		f, err := dec.Decode(payload)
		if err != nil && err != ErrV2Desync {
			return nil, err
		}
		return []Frame{cloneFrame(f)}, err
	}
	l.want = func(seq uint64, sentNs int64, nodes []Frame) []Frame {
		return []Frame{stamp(seq, sentNs, nodes)}
	}
	l.fresh = func() { dec = NewDecoderV2(); l.rcv = dec }
	l.restart = func() { enc = NewEncoderV2(); l.snd = enc }
	return l
}

func newBatchLink() *v2Link {
	enc, dec := NewBatchEncoderV2(), NewBatchDecoderV2()
	l := &v2Link{name: "batch", snd: enc, rcv: dec}
	l.encode = func(seq uint64, sentNs int64, nodes []Frame) []byte {
		return enc.Encode(nil, seq, sentNs, nodes)
	}
	l.decode = func(payload []byte) ([]Frame, error) {
		var out []Frame
		n, err := dec.Decode(payload, func(f Frame) { out = append(out, cloneFrame(f)) })
		if err == nil && n != len(out) {
			err = fmt.Errorf("decode reported %d nodes, emitted %d", n, len(out))
		}
		if err != nil && len(out) != 0 {
			err = fmt.Errorf("failed decode (%v) emitted %d sub-frames", err, len(out))
		}
		return out, err
	}
	l.want = func(_ uint64, sentNs int64, nodes []Frame) []Frame {
		out := make([]Frame, len(nodes))
		for i, f := range nodes {
			f.Seq, f.SentNs = 0, sentNs // sub-frames ride the link sequence
			out[i] = f
		}
		return out
	}
	l.fresh = func() { dec = NewBatchDecoderV2(); l.rcv = dec }
	l.restart = func() { enc = NewBatchEncoderV2(); l.snd = enc }
	return l
}

// testRand is splitmix64: the fixture and the failing-seed replay must
// not depend on a library generator's stream staying put.
type testRand uint64

func (r *testRand) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *testRand) intn(n int) int   { return int(r.next() % uint64(n)) }
func (r *testRand) oneIn(n int) bool { return r.intn(n) == 0 }

// frameGen draws frames whose shape covers the grammar: names that join
// the dictionary mid-session, text and numeric values of both kinds,
// short decimals, full-mantissa floats, non-finite values, unchanged
// repeats, snapshots and trace contexts.
type frameGen struct {
	r     *testRand
	batch bool
	last  map[string]float64 // node+metric → previous numeric value
}

func (g *frameGen) frames(round int) []Frame {
	if !g.batch {
		return []Frame{g.node("node042", round)}
	}
	out := make([]Frame, g.r.intn(5)) // an empty batch is legal
	for i := range out {
		name := "node" + strconv.Itoa(g.r.intn(4+round/16))
		if g.r.oneIn(6) {
			name = "rack/leaf" + strconv.Itoa(g.r.intn(2))
		}
		out[i] = g.node(name, round)
	}
	return out
}

func (g *frameGen) node(name string, round int) Frame {
	f := Frame{Node: name}
	if g.r.oneIn(7) {
		f.Kind = FrameSnapshot
	}
	if g.r.oneIn(5) {
		f.TraceID = g.r.next() | 1
		f.TraceNs = int64(g.r.next()) >> uint(g.r.intn(64))
	}
	for i, n := 0, g.r.intn(6); i < n; i++ {
		metric := "m" + strconv.Itoa(g.r.intn(3+round/8))
		kind := consolidate.Dynamic
		if g.r.oneIn(4) {
			kind = consolidate.Static
		}
		if g.r.oneIn(5) {
			text := strings.Repeat("2.4.19-smp ", g.r.intn(3))
			f.Values = append(f.Values, consolidate.TextValue(metric+".txt", kind, text))
			continue
		}
		key := name + "\x00" + metric
		v := g.last[key]
		switch g.r.intn(8) {
		case 0: // unchanged
		case 1:
			v = float64(g.r.intn(1<<20)) * math.Pi
		case 2:
			v = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}[g.r.intn(5)]
		case 3:
			v = float64(g.r.intn(1 << 30))
		default:
			v = float64(g.r.intn(20000)-10000) / 100
		}
		g.last[key] = v
		f.Values = append(f.Values, consolidate.NumValue(metric, kind, v))
	}
	return f
}

// renderDecode spells a decode outcome as one fixture line: values by
// their bit patterns, so NaN payloads and signed zeros are pinned too.
func renderDecode(frames []Frame, err error) string {
	var b strings.Builder
	switch err {
	case nil:
		b.WriteString("ok")
	case ErrV2Desync:
		b.WriteString("desync")
	case ErrV2NeedReset:
		b.WriteString("needreset")
	case ErrV2Malformed:
		b.WriteString("malformed")
	default:
		return "error " + err.Error()
	}
	for _, f := range frames {
		fmt.Fprintf(&b, " {%s seq=%d kind=%d sent=%d trace=%x/%d", f.Node, f.Seq, f.Kind, f.SentNs, f.TraceID, f.TraceNs)
		for _, v := range f.Values {
			if v.IsText {
				fmt.Fprintf(&b, " %s:%d:%q", v.Name, v.Kind, v.Text)
			} else {
				fmt.Fprintf(&b, " %s:%d:%016x", v.Name, v.Kind, math.Float64bits(v.Num))
			}
		}
		b.WriteString("}")
	}
	return b.String()
}

// requireFramesEqual compares decoded frames with what was encoded.
func requireFramesEqual(t *testing.T, got, want []Frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("frame count mismatch: got %d want %d", len(got), len(want))
	}
	for i := range want {
		requireV2Equal(t, got[i], want[i])
	}
}

// --- golden wire fixture -------------------------------------------------

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_*_v2.txt from the current codec")

// goldenTranscript runs the scripted session of one family and returns
// its transcript, one line per event:
//
//	F <seq> deliver|drop <payload hex>   a frame left the sender
//	R <decode outcome>                   what the receiver made of it
//	A deliver|withhold <n>               the dictionary ack it owed
//	X rebase|resettable|restart          a session event
//
// The script is fixed: 240 frames, one in eight dropped, one ack in
// four withheld, a send error (Rebase) every 37th frame, a receiver
// restart every 53rd, ResetTable whenever the receiver asks, and a
// Rebase after every other chain break.
func goldenTranscript(l *v2Link, batch bool) []string {
	r := testRand(17)
	if batch {
		r = testRand(23)
	}
	gen := frameGen{r: &r, batch: batch, last: map[string]float64{}}
	var out []string
	for round := 1; round <= 240; round++ {
		seq := uint64(round)
		if round%37 == 0 {
			l.snd.Rebase()
			out = append(out, "X rebase")
		}
		if round%53 == 0 {
			l.fresh()
			out = append(out, "X restart")
		}
		payload := l.encode(seq, int64(round)*1_000_000_000+int64(r.intn(1000)), gen.frames(round))
		if r.oneIn(8) {
			out = append(out, fmt.Sprintf("F %d drop %x", seq, payload))
			continue
		}
		out = append(out, fmt.Sprintf("F %d deliver %x", seq, payload))
		frames, err := l.decode(payload)
		out = append(out, "R "+renderDecode(frames, err))
		switch {
		case err == ErrV2NeedReset:
			l.snd.ResetTable()
			out = append(out, "X resettable")
		case err == ErrV2Desync && r.oneIn(2):
			l.snd.Rebase() // the resync answer reached the sender
			out = append(out, "X rebase")
		}
		if n, ok := l.rcv.PendingAck(); ok {
			if r.oneIn(4) {
				out = append(out, fmt.Sprintf("A withhold %d", n))
			} else {
				l.snd.Ack(n)
				out = append(out, fmt.Sprintf("A deliver %d", n))
			}
		}
	}
	return out
}

// TestGoldenWireV2 pins both families' bytes on the wire and what those
// bytes decode to. The fixture was captured at the commit before the two
// codecs were folded onto one session core; it is regenerated (with
// -update-golden) only by a change that means to alter the grammar.
// Two checks: the scripted session reproduces the transcript line for
// line (the encoder still writes the same bytes), and the recorded
// payloads alone, fed to fresh receivers, decode to the recorded
// outcomes (the decoder still reads old bytes, whatever the encoder
// does now).
func TestGoldenWireV2(t *testing.T) {
	for _, fam := range []struct {
		link func() *v2Link
		file string
	}{
		{newSingleLink, "testdata/golden_single_v2.txt"},
		{newBatchLink, "testdata/golden_batch_v2.txt"},
	} {
		l := fam.link()
		t.Run(l.name, func(t *testing.T) {
			got := goldenTranscript(l, l.name == "batch")
			if *updateGolden {
				if err := os.WriteFile(fam.file, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(fam.file)
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("%s line %d differs from the scripted session:\nfixture %s\nsession %s",
						fam.file, i+1, want[i], append(got, "<end>")[min(i, len(got))])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("session ran %d lines, fixture has %d", len(got), len(want))
			}

			replay := fam.link()
			frames, outcomes := 0, map[string]int{}
			for i, line := range want {
				kind, rest, _ := strings.Cut(line, " ")
				switch {
				case line == "X restart":
					replay.fresh()
				case kind == "F":
					frames++
					f := strings.Fields(rest)
					if f[1] != "deliver" {
						continue
					}
					payload, err := hex.DecodeString(f[2])
					if err != nil {
						t.Fatalf("line %d: %v", i+1, err)
					}
					res := "R " + renderDecode(replay.decode(payload))
					if res != want[i+1] {
						t.Fatalf("%s line %d: recorded payload decodes differently:\nfixture %s\ndecoder %s", fam.file, i+2, want[i+1], res)
					}
					outcomes[strings.Fields(res)[1]]++
					replay.rcv.PendingAck()
				}
			}
			if frames < 200 || outcomes["ok"] == 0 || outcomes["desync"] == 0 || outcomes["needreset"] == 0 {
				t.Fatalf("fixture too thin: %d frames, outcomes %v", frames, outcomes)
			}
		})
	}
}

// --- seeded schedule property test ------------------------------------------

var scheduleSeed = flag.Uint64("v2-schedule-seed", 0, "replay only this seed of TestV2ScheduleProperty")

// v2Prefix parses what every v2 payload starts with.
func v2Prefix(t *testing.T, payload []byte) (reset bool, seq, tailStart, tailCount uint64) {
	t.Helper()
	if len(payload) < 2 || payload[0] != V2Magic {
		t.Fatalf("encoder wrote a non-v2 payload % x", payload)
	}
	seq, p, ok1 := v2Uvarint(payload[2:])
	tailStart, p, ok2 := v2Uvarint(p)
	tailCount, _, ok3 := v2Uvarint(p)
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("encoder wrote a truncated prefix % x", payload)
	}
	return payload[1]&v2FlagReset != 0, seq, tailStart, tailCount
}

// runV2Schedule drives one random schedule of sends, drops, late and
// lost acks, send errors, lost and delivered "!wreset"s and restarts of
// either end over l, checking every decode against a model of the session:
// a frame whose tail starts past the receiver's table asks for a reset;
// otherwise a chain-reset frame always decodes, a frame continuing an
// unbroken chain decodes, and anything else is a chain break. A clean
// decode must equal what was encoded, bit for bit.
func runV2Schedule(t *testing.T, l *v2Link, seed uint64) {
	r := testRand(seed)
	gen := frameGen{r: &r, batch: l.name == "batch", last: map[string]float64{}}
	var (
		seq, lastOK uint64
		chainOK     bool
		ackN        int // dictionary ack in flight, 0 when none
		wantRebase  bool
		restarted   bool
	)
	for step := 0; step < 40; step++ {
		switch op := r.intn(12); {
		case op == 0:
			l.fresh()
			chainOK = false
		case op == 3 && r.oneIn(2):
			// A restarted sender's first frame rebases the receiver
			// wholesale. It is always delivered here: were it lost, what the
			// next frame's tail does to the old table depends on which names
			// the two incarnations happen to share.
			l.restart()
			ackN, wantRebase, restarted = 0, true, true
		case op == 1 && ackN > 0: // the ack lands, possibly frames late
			before := l.snd.Acked()
			l.snd.Ack(ackN)
			want := before
			if ackN > before && ackN <= l.snd.TableLen() {
				want = ackN // stale and absurd acks are ignored
			}
			if l.snd.Acked() != want {
				t.Fatalf("step %d: Ack(%d) moved the acked prefix %d → %d, want %d", step, ackN, before, l.snd.Acked(), want)
			}
			ackN = 0
		case op == 2:
			ackN = 0 // the ack is lost
		default:
			seq++
			nodes := gen.frames(step)
			sentNs := int64(step)*1_000_000_000 + int64(r.intn(2_000_000_000))
			acked := l.snd.Acked()
			payload := l.encode(seq, sentNs, nodes)
			reset, pseq, tailStart, tailCount := v2Prefix(t, payload)
			if pseq != seq || tailStart != uint64(acked) || tailStart+tailCount != uint64(l.snd.TableLen()) {
				t.Fatalf("step %d: prefix seq %d tail [%d,+%d), want seq %d tail [%d,%d): resends must stop once acked",
					step, pseq, tailStart, tailCount, seq, acked, l.snd.TableLen())
			}
			if wantRebase && !reset {
				t.Fatalf("step %d: frame after Rebase/ResetTable carries no chain reset", step)
			}
			deliver := restarted || !r.oneIn(4)
			wantRebase, restarted = false, false
			if !deliver { // lost in flight; half the time the sender notices
				if r.oneIn(2) {
					l.snd.Rebase()
					wantRebase = true
				}
				continue
			}
			var want error
			switch {
			case tailStart > uint64(l.rcv.TableLen()):
				want = ErrV2NeedReset
			case reset || chainOK && seq == lastOK+1:
			default:
				want = ErrV2Desync
			}
			got, err := l.decode(payload)
			if err != want {
				t.Fatalf("step %d: decode of seq %d (reset=%v tail [%d,+%d), receiver table %d, chain %v@%d): got %v, want %v",
					step, seq, reset, tailStart, tailCount, l.rcv.TableLen(), chainOK, lastOK, err, want)
			}
			chainOK = err == nil
			switch err {
			case nil:
				lastOK = seq
				requireFramesEqual(t, got, l.want(seq, sentNs, nodes))
			case ErrV2Desync:
				if len(got) == 1 { // the single-node family salvages the header
					hdr := l.want(seq, 0, nodes)[0]
					hdr.Values = nil
					requireFramesEqual(t, got, []Frame{hdr})
				}
			case ErrV2NeedReset:
				if r.intn(4) > 0 { // the "!wreset" reached the sender
					l.snd.ResetTable()
					wantRebase = true
					if l.snd.Acked() != 0 {
						t.Fatalf("step %d: ResetTable left %d entries acked", step, l.snd.Acked())
					}
				}
			}
			if n, ok := l.rcv.PendingAck(); ok {
				if n != l.rcv.TableLen() || tailCount == 0 {
					t.Fatalf("step %d: ack for %d entries (table %d) after a frame with a %d-entry tail", step, n, l.rcv.TableLen(), tailCount)
				}
				ackN = n
			}
		}
	}
}

// TestV2ScheduleProperty runs 1 200 seeded schedules per family. A
// failure names its family and seed; -v2-schedule-seed replays it alone.
func TestV2ScheduleProperty(t *testing.T) {
	for _, mk := range []func() *v2Link{newSingleLink, newBatchLink} {
		name := mk().name
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 1200; seed++ {
				if *scheduleSeed != 0 && seed != *scheduleSeed {
					continue
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("%s seed %d: panic: %v", name, seed, p)
						}
						if t.Failed() {
							t.Logf("replay: go test ./internal/transmit -run 'TestV2ScheduleProperty/%s' -v2-schedule-seed %d", name, seed)
						}
					}()
					runV2Schedule(t, mk(), seed)
				}()
			}
		})
	}
}

// --- chain and bound table tests --------------------------------------------

// warmLink returns a link whose receiver decoded frame 1 and whose
// sender had its whole dictionary acked, plus a frame generator for it.
func warmLink(t *testing.T, mk func() *v2Link) (*v2Link, func(seq uint64) []byte) {
	t.Helper()
	l := mk()
	next := func(seq uint64) []byte {
		return l.encode(seq, int64(seq), []Frame{{Node: "node042", Values: []consolidate.Value{
			consolidate.NumValue("cpu.load", consolidate.Dynamic, float64(seq))}}})
	}
	if _, err := l.decode(next(1)); err != nil {
		t.Fatalf("warmup decode: %v", err)
	}
	n, _ := l.rcv.PendingAck()
	l.snd.Ack(n)
	return l, next
}

// TestV2EveryErrorBreaksChain: a payload that fails anywhere past its
// magic byte leaves the receiver accepting only a chain-reset frame —
// even when the failed payload claimed the very seq the chain expected
// and the frame after it is the sender's genuine next one.
func TestV2EveryErrorBreaksChain(t *testing.T) {
	uv := func(b []byte, vs ...uint64) []byte {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	// Every case is seq 2 on a link whose table holds 2 entries.
	cases := []struct {
		name    string
		family  func() *v2Link
		payload []byte
		want    error
	}{
		{"single/unknown flag", newSingleLink, uv([]byte{V2Magic, 0x40}, 2, 2, 0, 0, 0), ErrV2Malformed},
		{"single/zero seq", newSingleLink, uv([]byte{V2Magic, 0}, 0, 2, 0, 0, 0), ErrV2Malformed},
		{"single/tail past table", newSingleLink, uv([]byte{V2Magic, 0}, 2, 3, 0, 0, 0), ErrV2NeedReset},
		{"single/no node id", newSingleLink, uv([]byte{V2Magic, 0}, 2, 2, 0), ErrV2Malformed},
		{"single/node id past table", newSingleLink, uv([]byte{V2Magic, 0}, 2, 2, 0, 9), ErrV2NeedReset},
		{"single/invalid node name", newSingleLink, uv(append(uv([]byte{V2Magic, 0}, 2, 2, 1, 3), "a b"...), 2, 0), ErrV2Malformed},
		{"single/zero trace id", newSingleLink, uv([]byte{V2Magic, v2FlagTrace}, 2, 2, 0, 0, 0, 0, 0), ErrV2Malformed},
		{"single/truncated trace", newSingleLink, uv([]byte{V2Magic, v2FlagTrace}, 2, 2, 0, 0, 7), ErrV2Malformed},
		{"single/no value count", newSingleLink, uv([]byte{V2Magic, 0}, 2, 2, 0, 0), ErrV2Malformed},
		{"single/metric id past table", newSingleLink, uv([]byte{V2Magic, 0}, 2, 2, 0, 0, 1, 9<<2), ErrV2NeedReset},
		{"single/no bit column", newSingleLink, uv([]byte{V2Magic, 0}, 2, 2, 0, 0, 1, 1<<2), ErrV2Malformed},
		{"batch/no node count", newBatchLink, uv([]byte{V2Magic, v2FlagBatch}, 2, 2, 0), ErrV2Malformed},
		{"batch/invalid node name", newBatchLink, uv(append(uv([]byte{V2Magic, v2FlagBatch}, 2, 2, 1, 3), "a b"...), 1, 2, 0), ErrV2Malformed},
		{"batch/zero trace id", newBatchLink, uv([]byte{V2Magic, v2FlagBatch}, 2, 2, 0, 1, 0, 1, 0, 0), ErrV2Malformed},
		{"batch/no bit column", newBatchLink, uv([]byte{V2Magic, v2FlagBatch}, 2, 2, 0, 1, 0, 1<<2, 1<<2), ErrV2Malformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, next := warmLink(t, tc.family)
			if l.rcv.TableLen() != 2 {
				t.Fatalf("warm table holds %d entries, the cases assume 2", l.rcv.TableLen())
			}
			if _, err := l.decode(tc.payload); err != tc.want {
				t.Fatalf("crafted payload: got %v, want %v", err, tc.want)
			}
			if _, err := l.decode(next(2)); err != ErrV2Desync {
				t.Fatalf("genuine in-sequence frame after the error: got %v, want ErrV2Desync", err)
			}
			l.snd.Rebase()
			if _, err := l.decode(next(3)); err != nil {
				t.Fatalf("chain-reset frame after the error: %v", err)
			}
		})
	}
}

// TestV2DictionaryBound: a peer cannot grow the receiver's dictionary
// past maxV2Entries — the entry that would is refused as corruption, for
// both families alike, while a table of exactly the bound is served.
func TestV2DictionaryBound(t *testing.T) {
	for _, mk := range []func() *v2Link{newSingleLink, newBatchLink} {
		l := mk()
		t.Run(l.name, func(t *testing.T) {
			if _, err := l.decode(dictionaryFlood(l.name == "batch", maxV2Entries)); err != nil {
				t.Fatalf("a %d-entry table: %v", maxV2Entries, err)
			}
			if l.rcv.TableLen() != maxV2Entries {
				t.Fatalf("table holds %d entries, want %d", l.rcv.TableLen(), maxV2Entries)
			}
			l.fresh()
			if _, err := l.decode(dictionaryFlood(l.name == "batch", maxV2Entries+1)); err != ErrV2Malformed {
				t.Fatalf("a %d-entry table: got %v, want ErrV2Malformed", maxV2Entries+1, err)
			}
			if l.rcv.TableLen() > maxV2Entries {
				t.Fatalf("table grew to %d entries", l.rcv.TableLen())
			}
		})
	}
}

// dictionaryFlood is a chain-reset frame whose tail defines n entries
// ("a", "b", … cycling) and whose body is one node, entry 0, no values.
func dictionaryFlood(batch bool, n int) []byte {
	p := []byte{V2Magic, v2FlagReset}
	if batch {
		p[1] |= v2FlagBatch
	}
	p = binary.AppendUvarint(p, 1)         // seq
	p = binary.AppendUvarint(p, 0)         // tailStart
	p = binary.AppendUvarint(p, uint64(n)) // tailCount
	for i := 0; i < n; i++ {
		p = append(p, 1, 'a'+byte(i%26))
	}
	if batch {
		p = append(p, 1) // nodeCount
	}
	return append(p, 0, 0, 0) // nodeID 0, no values, DoD(0)
}

// TestV2PairBound: the (node, metric) predictor table stops at
// maxV2Pairs, and a batch whose next value needs one more pair is
// refused as corruption. The nearly full table is a length, not storage
// the test touches: the runtime hands out untouched zero pages for it.
func TestV2PairBound(t *testing.T) {
	enc, dec := NewBatchEncoderV2(), NewBatchDecoderV2()
	frame := func(metrics ...string) []Frame {
		f := Frame{Node: "n"}
		for _, m := range metrics {
			f.Values = append(f.Values, consolidate.NumValue(m, consolidate.Dynamic, 1))
		}
		return []Frame{f}
	}
	if _, err := dec.Decode(enc.Encode(nil, 1, 1, frame("a")), func(Frame) {}); err != nil {
		t.Fatal(err)
	}
	nearlyFull := make([]history.ValueState, maxV2Pairs-1, maxV2Pairs)
	copy(nearlyFull, dec.preds.vals)
	dec.preds.vals = nearlyFull
	emitted := 0
	_, err := dec.Decode(enc.Encode(nil, 2, 2, frame("a", "b", "c")), func(Frame) { emitted++ })
	if err != ErrV2Malformed || emitted != 0 {
		t.Fatalf("batch needing pair %d: got %v (%d emitted), want ErrV2Malformed, nothing emitted", maxV2Pairs+1, err, emitted)
	}
	if len(dec.preds.vals) != maxV2Pairs {
		t.Fatalf("pair table holds %d predictors, want the bound %d", len(dec.preds.vals), maxV2Pairs)
	}
}
