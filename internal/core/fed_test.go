package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"clusterworx/internal/flight"
	"clusterworx/internal/leakcheck"
	"clusterworx/internal/serve"
)

// This file is the correctness suite for hierarchical federation: every
// tier must mirror its subtree byte for byte, subtree rollups must be
// exact at every level, the serving plane at an upper tier must stream
// leaf-originated changes, trace ids must survive the uplink hop with a
// journal record per forwarded traced sub-frame, and a v1-pinned leaf
// must converge over the per-node fallback wire. The fault schedules
// (loss, leaf kill/rejoin) live in faultinject_test.go.

// fedNodeNum returns a node's numeric metric at one tier's server, or
// fails the test.
func fedNodeNum(t *testing.T, srv *Server, node, metric string) float64 {
	t.Helper()
	for _, v := range srv.NodeValues(node) {
		if v.Name == metric {
			if v.IsText {
				t.Fatalf("%s %s is text %q, want numeric", node, metric, v.Text)
			}
			return v.Num
		}
	}
	t.Fatalf("%s has no %s at %s", node, metric, srv.cluster)
	return 0
}

// fedSettle runs quiet uplink periods so in-flight flushes land.
func fedSettle(f *Sim, periods int) {
	f.Advance(time.Duration(periods) * 100 * time.Millisecond)
}

// TestFedSyntheticMirrorsAndAggregates drives a 2x2-fanout 3-tier
// federation (16 synthetic nodes) through several monitoring rounds and
// requires (a) the root's mirror of every raw node to hold that node's
// latest value, (b) every tier's rollup chain — rack, row, grid — to
// fold its subtree exactly, and (c) an idle cluster to cost zero uplink
// bytes (per-hop suppression).
func TestFedSyntheticMirrorsAndAggregates(t *testing.T) {
	fed, err := NewSim(SimConfig{Fanout: 2, Tiers: 3, Nodes: 4, Synthetic: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	for r := 0; r < rounds; r++ {
		fed.InjectRound()
		fed.Advance(100 * time.Millisecond)
	}
	fedSettle(fed, 2)

	total := fed.TotalNodes()
	if total != 16 {
		t.Fatalf("topology built %d nodes, want 16", total)
	}
	// (a) Root mirrors every raw node's latest state, statics included.
	for g := 0; g < total; g++ {
		node := fmt.Sprintf("node%03d", g)
		if got, want := fedNodeNum(t, fed.Root.Server, node, "cpu.load"), SynthValue(g, rounds); got != want {
			t.Errorf("root mirror %s cpu.load = %v, want %v", node, got, want)
		}
		if got := fedNodeNum(t, fed.Root.Server, node, "mem.total"); got != 1024 {
			t.Errorf("root mirror %s mem.total = %v, want 1024 (round-1 static lost?)", node, got)
		}
	}
	// Mid tier mirrors exactly its half of the tree.
	mid0 := fed.Levels[1][0].Server
	if got := fedNodeNum(t, mid0, "node000", "cpu.load"); got != SynthValue(0, rounds) {
		t.Errorf("mid00 mirror node000 = %v, want %v", got, SynthValue(0, rounds))
	}
	if vals := mid0.NodeValues("node008"); vals != nil {
		t.Errorf("mid00 mirrors node008 (other subtree): %v", vals)
	}

	// (b) Rollup chain. Leaf racks fold 4 raw nodes; rows compose 2
	// racks; the grid composes 2 rows. Counts, mins, and maxes are exact;
	// sums are compared with a float tolerance because the hierarchical
	// fold reassociates the additions.
	for li, leaf := range fed.Leaves {
		agg := "rack/" + leaf.Name
		if got := fedNodeNum(t, fed.Root.Server, agg, "cpu.load.cnt"); got != 4 {
			t.Errorf("root %s cpu.load.cnt = %v, want 4", agg, got)
		}
		_ = li
	}
	cnt := fedNodeNum(t, fed.Root.Server, RootAggNode, "cpu.load.cnt")
	minV := fedNodeNum(t, fed.Root.Server, RootAggNode, "cpu.load.min")
	maxV := fedNodeNum(t, fed.Root.Server, RootAggNode, "cpu.load.max")
	sum := fedNodeNum(t, fed.Root.Server, RootAggNode, "cpu.load.sum")
	wantMin, wantMax, wantSum := math.Inf(1), math.Inf(-1), 0.0
	for g := 0; g < total; g++ {
		v := SynthValue(g, rounds)
		wantMin = math.Min(wantMin, v)
		wantMax = math.Max(wantMax, v)
		wantSum += v
	}
	if cnt != float64(total) || minV != wantMin || maxV != wantMax {
		t.Errorf("grid/root fold = cnt %v min %v max %v, want %d %v %v", cnt, minV, maxV, total, wantMin, wantMax)
	}
	if math.Abs(sum-wantSum) > 1e-9 {
		t.Errorf("grid/root cpu.load.sum = %v, want %v", sum, wantSum)
	}
	// mem.total rolls up too (4 * 1024 per rack, 16 * 1024 at the grid).
	if got := fedNodeNum(t, fed.Root.Server, RootAggNode, "mem.total.sum"); got != float64(total)*1024 {
		t.Errorf("grid/root mem.total.sum = %v, want %v", got, float64(total)*1024)
	}

	// (c) Idle per-hop suppression: with no new rounds, further flush
	// periods must move zero uplink bytes anywhere in the tree.
	before := make([]UplinkStats, 0, len(fed.Leaves)+len(fed.Levels[1]))
	for _, tier := range fed.Levels[:2] {
		for _, fs := range tier {
			before = append(before, fs.Uplink.Stats())
		}
	}
	fedSettle(fed, 5)
	i := 0
	for _, tier := range fed.Levels[:2] {
		for _, fs := range tier {
			if after := fs.Uplink.Stats(); after.Bytes != before[i].Bytes {
				t.Errorf("%s uplink moved %d bytes while the cluster was idle", fs.Name, after.Bytes-before[i].Bytes)
			}
			i++
		}
	}
	if in := fed.Root.Server.UplinkInStats(); in.Frames == 0 || in.RawNodes == 0 || in.Desyncs != 0 {
		t.Errorf("root uplink ingest counters off: %+v", in)
	}
}

// TestFedRealAgentsConverge runs full simulated agents under a 2-leaf
// federation and requires the root's mirror of every node to match the
// agent's own consolidator state byte for byte — the same invariant the
// single-tier fault suite pins, now across two hops.
func TestFedRealAgentsConverge(t *testing.T) {
	fed, err := NewSim(SimConfig{
		Fanout: 2, Tiers: 2, Nodes: 3, Transport: TransportSimnet,
		EchoSweep: -1, AntiEntropy: 20 * time.Second,
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Stop)
	fed.PowerOnAll()
	fed.Advance(30 * time.Second)
	fed.Stop()
	// Agents are frozen; drain in-flight frames and a few uplink periods.
	fed.Advance(5 * time.Second)

	for _, leaf := range fed.Leaves {
		st := leaf.Uplink.Stats()
		if !st.V2 || st.Frames == 0 {
			t.Errorf("%s uplink never negotiated the batch wire: %+v", leaf.Name, st)
		}
		for i, agent := range leaf.Agents {
			name := leaf.Nodes[i].Name()
			agentVals := agent.Consolidator().Snapshot()
			if diffs := syncDiff(leaf.Server, name, agentVals); len(diffs) > 0 {
				t.Errorf("leaf diverged from agent:\n%s", joinDiffs(diffs))
			}
			if diffs := syncDiff(fed.Root.Server, name, agentVals); len(diffs) > 0 {
				t.Errorf("root mirror diverged from agent across the hop:\n%s", joinDiffs(diffs))
			}
		}
	}
	in := fed.Root.Server.UplinkInStats()
	if in.RawNodes == 0 || in.Desyncs != 0 || in.Resets != 0 {
		t.Errorf("lossless run bent the uplink chain: %+v", in)
	}
}

// TestTreeWithInProcessAgentsConverges runs a two-tier tree whose agents
// use the default in-process link into their leaf: the tree and the
// agent link are independent choices, so the root must mirror every
// agent byte for byte here too.
func TestTreeWithInProcessAgentsConverges(t *testing.T) {
	sim, err := NewSim(SimConfig{Fanout: 2, Tiers: 2, Nodes: 3, EchoSweep: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Stop)
	sim.PowerOnAll()
	sim.Advance(30 * time.Second)
	sim.Stop()
	sim.Advance(time.Second) // a few uplink periods carry the last frames up

	if len(sim.Agents) != 6 || sim.TotalNodes() != 6 {
		t.Fatalf("tree built %d agents for %d nodes, want 6", len(sim.Agents), sim.TotalNodes())
	}
	for _, leaf := range sim.Leaves {
		for i, agent := range leaf.Agents {
			name := leaf.Nodes[i].Name()
			agentVals := agent.Consolidator().Snapshot()
			if diffs := syncDiff(leaf.Server, name, agentVals); len(diffs) > 0 {
				t.Errorf("leaf diverged from agent:\n%s", joinDiffs(diffs))
			}
			if diffs := syncDiff(sim.Server, name, agentVals); len(diffs) > 0 {
				t.Errorf("root diverged from agent:\n%s", joinDiffs(diffs))
			}
		}
	}
	for _, st := range sim.Leaves[0].Server.SyncStates() {
		if strings.HasPrefix(st.Node, "node") && (st.Seq == 0 || !st.Synced) {
			t.Errorf("in-process link was not sequenced: %+v", st)
		}
	}
}

// TestFedWatchAtRootStreams subscribes a watch client at the ROOT tier
// and requires a change injected at a leaf to reach the client as an
// incremental diff whose reconstruction matches what a polling client
// would read — serve-plane fan-out per hop, end to end.
func TestFedWatchAtRootStreams(t *testing.T) {
	t.Cleanup(leakcheck.Goroutines(t))
	fed, err := NewSim(SimConfig{Fanout: 2, Tiers: 2, Nodes: 2, Synthetic: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fed.InjectRound()
	fed.Advance(100 * time.Millisecond)

	cl := pipeClient(t, fed.Root.Server)
	if err := cl.Send("watch status"); err != nil {
		t.Fatal(err)
	}
	kind, lines := readWatchBlock(t, cl, 2*time.Second)
	if kind != "OK" {
		t.Fatalf("initial block kind %q, want OK", kind)
	}
	var v serve.View
	v.SetFull(lines)
	if got := v.Render(); !strings.Contains(got, "node000") || !strings.Contains(got, "node003") {
		t.Fatalf("root watch snapshot is missing mirrored nodes:\n%s", got)
	}

	// A fresh round at the leaves must flow leaf -> root -> watch client.
	fed.InjectRound()
	fed.Advance(100 * time.Millisecond)
	want := strings.Join(appendCtlBody(nil, fed.Root.Server.HandleCtl("status")), "\n")
	deadline := time.Now().Add(5 * time.Second)
	for v.Render() != want {
		if time.Now().After(deadline) {
			t.Fatalf("root watch never converged:\ngot:\n%s\nwant:\n%s", v.Render(), want)
		}
		kind, lines := readWatchBlock(t, cl, 2*time.Second)
		applyWatchBlock(t, &v, kind, lines)
	}
}

// TestFedJournalDifferential is the flight-recorder side of federation:
// with every frame sampled, each traced sub-frame the uplinks forward
// must leave exactly one KindUplinkForward journal record (counted
// against the uplinks' own TracedForwards counters), each snap-all
// flush exactly one KindUplinkResync record, and a forwarded trace id
// must reappear in an ingest-stage record on the parent tier — the
// causal chain crosses the hop intact.
func TestFedJournalDifferential(t *testing.T) {
	base := flight.Default().Cursor()
	prevRate := flight.SetRate(1)
	defer flight.SetRate(prevRate)

	fed, err := NewSim(SimConfig{
		Fanout: 2, Tiers: 2, Nodes: 2, Transport: TransportSimnet,
		EchoSweep: -1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Stop)
	fed.PowerOnAll()
	fed.Advance(12 * time.Second)
	fed.Stop()
	fed.Advance(2 * time.Second)

	recs := flightRecsSince(base)
	var wantForwards, wantSnapAlls int64
	for _, leaf := range fed.Leaves {
		st := leaf.Uplink.Stats()
		wantForwards += st.TracedForwards
		wantSnapAlls += st.SnapAlls
	}
	if wantForwards == 0 {
		t.Fatal("no traced sub-frames crossed the uplinks at sample rate 1")
	}
	if got := countKind(recs, flight.KindUplinkForward); got != wantForwards {
		t.Errorf("journal has %d uplink-forward records, uplink counters say %d", got, wantForwards)
	}
	var snapAllRecs int64
	for _, r := range recs {
		if r.Kind == flight.KindUplinkResync && r.A == 1 {
			snapAllRecs++
		}
	}
	if snapAllRecs != wantSnapAlls {
		t.Errorf("journal has %d snap-all records, uplink counters say %d", snapAllRecs, wantSnapAlls)
	}

	// Trace continuity: a forwarded trace id must carry at least two
	// ingest-stage records — the leaf's ingest and the root's.
	checked := false
	for _, r := range recs {
		if r.Kind != flight.KindUplinkForward || r.Trace == 0 {
			continue
		}
		ingests := 0
		for _, tr := range flight.Default().TraceRecords(r.Trace) {
			if tr.Kind == flight.KindStage && tr.Stage == flight.StageIngest {
				ingests++
			}
		}
		if ingests >= 2 {
			checked = true
			break
		}
	}
	if !checked {
		t.Error("no forwarded trace id shows ingest stages on both sides of the hop")
	}
}

// TestFedV1PinnedUplinkConverges pins one leaf's uplink to the v1
// per-node wire (a child that predates the batch format) and requires
// the mixed tree to converge all the same: the pinned leaf ships
// sequenced per-node frames, the other leaf batches, and the root's
// mirror is right either way.
func TestFedV1PinnedUplinkConverges(t *testing.T) {
	fed, err := NewSim(SimConfig{
		Fanout: 2, Tiers: 2, Nodes: 2, Synthetic: true,
		UplinkV1: func(leaf int) bool { return leaf == 0 },
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		fed.InjectRound()
		fed.Advance(100 * time.Millisecond)
	}
	fedSettle(fed, 2)

	pinned := fed.Leaves[0].Uplink.Stats()
	if pinned.V2 || pinned.Frames != 0 || pinned.V1Frames == 0 {
		t.Errorf("pinned leaf should speak only v1: %+v", pinned)
	}
	batched := fed.Leaves[1].Uplink.Stats()
	if !batched.V2 || batched.Frames == 0 {
		t.Errorf("unpinned leaf should upgrade to the batch wire: %+v", batched)
	}
	for g := 0; g < fed.TotalNodes(); g++ {
		node := fmt.Sprintf("node%03d", g)
		if got, want := fedNodeNum(t, fed.Root.Server, node, "cpu.load"), SynthValue(g, rounds); got != want {
			t.Errorf("root mirror %s = %v, want %v", node, got, want)
		}
	}
}
