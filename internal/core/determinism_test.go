package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/transmit"
)

// Same input, same bytes: the uplink's payloads and the rollup's
// emissions must be functions of the ingested data, never of the node
// and value tables' map iteration order. Go randomizes that order per
// map, so two runs inside one process are as good as two processes.

// leafToRoot drives a seeded workload through a leaf server with a rack
// rollup and an uplink wired straight into a root's receive path, and
// returns every payload the uplink sent. The root's control answers
// (version answer, dictionary acks) are delivered between flushes.
func leafToRoot(t *testing.T, seed int64) (payloads [][]byte, root *Server) {
	t.Helper()
	var now time.Duration
	clk := func() time.Duration { return now }
	leaf := NewServer(ServerConfig{Cluster: "leaf", Now: clk})
	root = NewServer(ServerConfig{Cluster: "root", Now: clk})
	ws := &wireServer{s: root}
	var ctl [][]byte
	up := NewUplink(leaf, UplinkConfig{Send: func(p []byte) error {
		payloads = append(payloads, bytes.Clone(p))
		if ws.handle(p, func(c []byte) { ctl = append(ctl, bytes.Clone(c)) }) {
			t.Errorf("root dropped the session on payload %d", len(payloads))
		}
		return nil
	}})
	leaf.SetUplink(up)
	roll := NewRollup(leaf, "rack/leaf0", "")

	const nodes, metrics = 48, 12
	rng := rand.New(rand.NewSource(seed))
	num := func() float64 { return math.Round(rng.Float64()*10000) / 100 }
	for round := 0; round < 12; round++ {
		now += time.Second
		for n := 0; n < nodes; n++ {
			f := transmit.Frame{Node: fmt.Sprintf("n%03d", n)}
			switch {
			case round == 0:
				f.Kind = transmit.FrameSnapshot
				for m := 0; m < metrics; m++ {
					f.Values = append(f.Values, consolidate.NumValue(fmt.Sprintf("m%02d", m), consolidate.Dynamic, num()))
				}
				f.Values = append(f.Values, consolidate.TextValue("sys.kernel", consolidate.Static, "2.4.18"))
			case rng.Intn(3) == 0:
				for _, m := range rng.Perm(metrics)[:4] {
					f.Values = append(f.Values, consolidate.NumValue(fmt.Sprintf("m%02d", m), consolidate.Dynamic, num()))
				}
			default:
				continue
			}
			if err := leaf.HandleFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		roll.Tick()
		if _, err := up.Flush(int64(now)); err != nil {
			t.Fatal(err)
		}
		for _, c := range ctl {
			up.HandleControl(c, int64(now))
		}
		ctl = ctl[:0]
	}
	if !up.Stats().V2 {
		t.Fatal("uplink never reached the batch wire")
	}
	return payloads, root
}

func TestUplinkSameInputSameBytes(t *testing.T) {
	a, rootA := leafToRoot(t, 7)
	for run := 0; run < 3; run++ {
		b, rootB := leafToRoot(t, 7)
		if len(a) != len(b) {
			t.Fatalf("run %d sent %d payloads, first run %d", run, len(b), len(a))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("run %d: payload %d differs (%d vs %d bytes)", run, i, len(b[i]), len(a[i]))
			}
		}
		for _, name := range rootA.NodeNames() {
			if diffs := syncDiff(rootB, name, rootA.NodeValues(name)); len(diffs) > 0 {
				t.Fatalf("run %d: roots differ: %v", run, diffs)
			}
		}
	}
}

// An untouched tree must fold to the same aggregate every time. Sums of
// two-decimal values differ in their last ulps with the order of
// addition, which used to re-emit an unchanged aggregate — spurious
// uplink bytes and root invalidations.
func TestRollupIdleTickEmitsNothing(t *testing.T) {
	srv := NewServer(ServerConfig{Cluster: "leaf"})
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 200; n++ {
		vals := []consolidate.Value{
			consolidate.NumValue("load.1", consolidate.Dynamic, math.Round(rng.Float64()*600)/100),
			consolidate.NumValue("hw.temp.cpu", consolidate.Dynamic, math.Round(rng.Float64()*900)/10),
		}
		srv.HandleValues(fmt.Sprintf("n%03d", n), vals)
	}
	roll := NewRollup(srv, "rack/leaf0", "")
	if got := roll.Tick(); got != 200 {
		t.Fatalf("first tick folded %d children, want 200", got)
	}
	gen := srv.Generation()
	for i := 0; i < 50; i++ {
		// Fresh rollups walk the tables afresh too: the fold must not
		// depend on which walk produced it.
		for _, r := range []*Rollup{roll, NewRollup(srv, "rack/leaf0", "")} {
			r.last = roll.last
			r.Tick()
			if got := srv.Generation(); got != gen {
				t.Fatalf("tick %d over an untouched tree re-emitted the aggregate (generation %d → %d)", i, gen, got)
			}
		}
	}
	// A late registration is still picked up.
	srv.HandleValues("n200", []consolidate.Value{consolidate.NumValue("load.1", consolidate.Dynamic, 1)})
	if got := roll.Tick(); got != 201 {
		t.Fatalf("tick after a registration folded %d children, want 201", got)
	}
}

// A peer built before the decimal value code speaks wire version 2: the
// same frame layout, a bit column this build cannot decode. Neither
// direction may upgrade — the session stays on v1 text and converges.
func TestWireNegotiationAcrossGrammarVersions(t *testing.T) {
	const older = transmit.WireV2 - 1
	vals := []consolidate.Value{
		consolidate.NumValue("load.1", consolidate.Dynamic, 0.42),
		consolidate.TextValue("sys.kernel", consolidate.Static, "2.4.18"),
	}

	// Older agent → this server: the "w=2" offer is below what the server
	// speaks, so it is no offer at all.
	srv := NewServer(ServerConfig{Cluster: "new"})
	ws := &wireServer{s: srv}
	payload := transmit.MarshalFrame(nil, transmit.Frame{Node: "old01", Seq: 1, Kind: transmit.FrameSnapshot, Values: vals})
	payload = bytes.Replace(payload, []byte("old01 1 S"), []byte(fmt.Sprintf("old01 1 S w=%d", older)), 1)
	var answers [][]byte
	if ws.handle(payload, func(c []byte) { answers = append(answers, bytes.Clone(c)) }) {
		t.Fatal("server dropped a v1 frame carrying an older offer")
	}
	if len(answers) != 0 {
		t.Fatalf("server answered an older offer: %q", answers)
	}
	if diffs := syncDiff(srv, "old01", vals); len(diffs) > 0 {
		t.Fatalf("older agent's frame not applied: %v", diffs)
	}

	// This agent → older server, which answers every offer with its own
	// version: the client must not switch, and keeps sending v1.
	wc := newWireClient("new01", true)
	olderAnswer := transmit.MarshalWireAnswer(nil, older)
	for seq := uint64(1); seq <= 3; seq++ {
		p := wc.marshal(transmit.Frame{Node: "new01", Seq: seq, Kind: transmit.FrameSnapshot, Values: vals})
		if transmit.IsV2Payload(p) {
			t.Fatalf("frame %d went out binary after an older answer", seq)
		}
		f, err := transmit.ParseFrame(p)
		if err != nil || f.WireOffer != transmit.WireV2 {
			t.Fatalf("frame %d: offer %d err %v, want offer %d", seq, f.WireOffer, err, transmit.WireV2)
		}
		if err := srv.HandleFrame(f); err != nil {
			t.Fatal(err)
		}
		wc.control(olderAnswer, 0)
	}
	if wc.V2() {
		t.Fatal("client switched on an answer naming a version it does not speak")
	}
	if diffs := syncDiff(srv, "new01", vals); len(diffs) > 0 {
		t.Fatalf("v1 fallback did not converge: %v", diffs)
	}

	// The uplink applies the same rule.
	up := NewUplink(srv, UplinkConfig{Send: func([]byte) error { return nil }})
	up.HandleControl(olderAnswer, 0)
	if up.Stats().V2 {
		t.Fatal("uplink switched on an older answer")
	}
	up.HandleControl(transmit.MarshalWireAnswer(nil, transmit.WireV2), 0)
	if !up.Stats().V2 {
		t.Fatal("uplink ignored an answer naming its own version")
	}
}
