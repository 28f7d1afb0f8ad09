package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/transmit"
)

// This file is the fault-injection harness for the loss-tolerant delta
// protocol: it drives the full agent→simnet→server stack through seeded
// loss, blackhole, latency, and partition schedules, then requires the
// server's view of every node to match the agent's consolidator state
// byte for byte. A control run with sequence numbers stripped
// demonstrates the silent divergence the sequenced protocol exists to
// fix.

// syncDiff compares the server's stored values for a node against the
// agent's own snapshot, returning one description per mismatch. The
// sims here disable the server-side echo sweep, so every stored value —
// including the agent's own net.echo.ok probe — must come from, and
// match, the agent.
func syncDiff(srv *Server, name string, agentVals []consolidate.Value) []string {
	var diffs []string
	server := make(map[string]consolidate.Value)
	for _, v := range srv.NodeValues(name) {
		server[v.Name] = v
	}
	for _, want := range agentVals {
		got, ok := server[want.Name]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: %s missing on server", name, want.Name))
			continue
		}
		if got.Render() != want.Render() {
			diffs = append(diffs, fmt.Sprintf("%s: %s = %q on server, %q on agent",
				name, want.Name, got.Render(), want.Render()))
		}
		delete(server, want.Name)
	}
	for stale := range server {
		diffs = append(diffs, fmt.Sprintf("%s: stale metric %s on server", name, stale))
	}
	return diffs
}

// faultSim builds a simulated cluster on the monitoring plane transport
// under test, boots it, and lets it settle losslessly so every node is
// registered and reporting before faults begin.
func faultSim(t *testing.T, nodes int, transport SimTransport, antiEntropy time.Duration, seed int64) *Sim {
	t.Helper()
	sim, err := NewSim(SimConfig{
		Nodes:       nodes,
		Cluster:     "faultlab",
		Transport:   transport,
		AntiEntropy: antiEntropy,
		EchoSweep:   -1, // keep server-side probe writes out of the comparison
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Stop)
	sim.PowerOnAll()
	return sim
}

// settleAndCompare stops the agents, drains in-flight packets, and
// returns the concatenated per-node diffs between server and agents.
func settleAndCompare(sim *Sim) []string {
	sim.Stop()
	// Agents no longer tick, so their consolidators are frozen; anything
	// already on the wire still needs to land.
	sim.Advance(5 * time.Second)
	var diffs []string
	for i, agent := range sim.Agents {
		name := sim.Nodes[i].Name()
		diffs = append(diffs, syncDiff(sim.Server, name, agent.Consolidator().Snapshot())...)
	}
	return diffs
}

// TestLossToleranceConverges is the acceptance test: 12 nodes through a
// 15% loss regime with a blackhole phase, a latency shift, and a
// monitoring-plane partition, and after the network heals the server
// converges to a byte-identical view of every agent.
func TestLossToleranceConverges(t *testing.T) {
	sim := faultSim(t, 12, TransportSimnet, 20*time.Second, 42)
	sim.Advance(30 * time.Second) // boot + first lossless reports

	// Phase 1: 15% random loss across the fabric.
	sim.Net.SetLoss(0.15)
	sim.Advance(60 * time.Second)
	// Phase 2: ten-second total blackhole.
	sim.Net.SetLoss(1)
	sim.Advance(10 * time.Second)
	// Phase 3: back to lossy, with degraded latency, plus one node's
	// monitoring link physically down for 20 s.
	sim.Net.SetLoss(0.15)
	sim.Net.SetLatency(2 * time.Millisecond)
	mon := sim.Net.Endpoint("node003.mon")
	mon.SetUp(false)
	sim.Advance(20 * time.Second)
	mon.SetUp(true)
	sim.Advance(20 * time.Second)
	// Heal and settle for longer than anti-entropy + max retry backoff.
	sim.Net.SetLoss(0)
	sim.Advance(90 * time.Second)

	states := sim.Server.SyncStates()
	var gaps, snapshots, resyncReqs int64
	for _, st := range states {
		gaps += st.Gaps
		snapshots += st.Snapshots
		resyncReqs += st.ResyncReqs
		if !st.Synced {
			t.Errorf("node %s still diverged after heal: %+v", st.Node, st)
		}
	}
	if gaps == 0 {
		t.Fatal("fault schedule produced no sequence gaps: the protocol was not exercised")
	}
	if snapshots == 0 || resyncReqs == 0 {
		t.Fatalf("no healing traffic observed: snapshots=%d resyncReqs=%d", snapshots, resyncReqs)
	}
	var sendErrs, resyncsSent int
	for _, a := range sim.Agents {
		sendErrs += a.SendErrors()
		resyncsSent += a.ResyncsSent()
		if a.PendingRetransmit() != 0 {
			t.Errorf("agent still has %d values banked after heal", a.PendingRetransmit())
		}
	}
	if sendErrs == 0 {
		t.Error("the partitioned node should have seen link-down send failures")
	}
	if resyncsSent == 0 {
		t.Error("no agent shipped a resync snapshot")
	}
	// The operator's view of all of the above: the ctl "sync" verb.
	out := sim.Server.HandleCtl("sync")
	if !strings.Contains(out, "synced") || strings.Contains(out, "DIVERGED") {
		t.Errorf("ctl sync should show every node synced:\n%s", out)
	}
	if diffs := settleAndCompare(sim); len(diffs) > 0 {
		t.Fatalf("server diverged from agents after heal (%d diffs):\n%s",
			len(diffs), joinDiffs(diffs))
	}
}

// TestLegacyProtocolDivergesUnderLoss is the control run: the same agents
// on the same fabric minus sequence numbers. The unsequenced protocol
// exists only here, as the reference the sequenced one is measured
// against: each agent's frames leave with Seq stripped, on the v1 text
// wire (the v2 grammar has no unsequenced frame), with anti-entropy off.
// Loss from the first transmission means some node's initial full change
// set — statics included — is dropped, and change suppression guarantees
// those values are never sent again. The server must be demonstrably,
// permanently wrong.
func TestLegacyProtocolDivergesUnderLoss(t *testing.T) {
	sim, err := NewSim(SimConfig{
		Nodes:       16,
		Cluster:     "faultlab",
		Transport:   TransportSimnet,
		AntiEntropy: -1,
		EchoSweep:   -1,
		WireV1:      func(int) bool { return true },
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Stop)
	for _, a := range sim.Agents {
		send := a.cfg.SendFrame
		a.cfg.SendFrame = func(f transmit.Frame) error {
			f.Seq = 0
			return send(f)
		}
	}
	sim.PowerOnAll()
	sim.Net.SetLoss(0.2) // lossy from the very first frame
	sim.Advance(60 * time.Second)
	sim.Net.SetLoss(0)
	sim.Advance(60 * time.Second) // plenty of lossless heartbeats to "recover"

	diffs := settleAndCompare(sim)
	if len(diffs) == 0 {
		t.Fatal("legacy protocol converged under 20% loss; the control run should diverge " +
			"(if a protocol change made this reliable, the sequenced path is redundant)")
	}
	t.Logf("legacy protocol diverged as expected: %d mismatches, e.g. %s", len(diffs), diffs[0])
}

// TestInProcessSimIsSequenced: the in-process link speaks the production
// protocol. Every node's frames arrive numbered and anti-entropy
// snapshots land; a regression forced on one node — a forged snapshot far
// ahead of its agent's numbering, carrying a wrong value — makes the
// agent's next delta read as a restart, and the synchronous resync
// back-channel heals the node within two agent periods.
func TestInProcessSimIsSequenced(t *testing.T) {
	sim, err := NewSim(SimConfig{Nodes: 4, Cluster: "seqlab", EchoSweep: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Stop)
	sim.PowerOnAll()
	sim.Advance(90 * time.Second) // boot, first reports, one anti-entropy refresh
	state := func(node string) SyncState {
		for _, st := range sim.Server.SyncStates() {
			if st.Node == node {
				return st
			}
		}
		t.Fatalf("no sync state for %s", node)
		return SyncState{}
	}
	for _, n := range sim.Nodes {
		if st := state(n.Name()); st.Seq == 0 || st.Snapshots < 1 || !st.Synced {
			t.Errorf("node %s after boot: %+v, want sequenced frames and a snapshot", st.Node, st)
		}
	}

	before := state("node001")
	sim.Server.HandleFrame(transmit.Frame{ //nolint:errcheck // a snapshot never asks for a resync
		Node: "node001", Seq: before.Seq + 1000, Kind: transmit.FrameSnapshot,
		Values: []consolidate.Value{consolidate.NumValue("load.1", consolidate.Dynamic, -1)},
	})
	sim.Advance(2 * time.Second) // two agent periods
	after := state("node001")
	if after.ResyncReqs <= before.ResyncReqs || after.Regressions <= before.Regressions {
		t.Fatalf("forced regression was not detected: before %+v, after %+v", before, after)
	}
	if !after.Synced {
		t.Fatalf("node001 still diverged two periods after the regression: %+v", after)
	}
	if diffs := settleAndCompare(sim); len(diffs) > 0 {
		t.Fatalf("server diverged from agents (%d diffs):\n%s", len(diffs), joinDiffs(diffs))
	}
}

// TestPartitionHealRetransmits pins down the agent-side banking path: a
// down local link is a visible send error, so the agent must bank the
// change set, back off, and deliver the union in-order after the link
// heals — no sequence gap, no snapshot needed.
func TestPartitionHealRetransmits(t *testing.T) {
	// Anti-entropy off: convergence here must come from retransmission
	// alone, not be rescued by a periodic snapshot.
	sim := faultSim(t, 3, TransportSimnet, -1, 11)
	sim.Advance(30 * time.Second)

	mon := sim.Net.Endpoint("node001.mon")
	mon.SetUp(false)
	sim.Node("node001").SetLoad(4) // state changes while unreachable
	sim.Advance(25 * time.Second)
	mon.SetUp(true)
	sim.Advance(60 * time.Second) // past max retry backoff

	a := sim.Agents[1]
	if a.SendErrors() == 0 {
		t.Fatal("partitioned agent saw no send errors")
	}
	if a.Retransmits() == 0 {
		t.Fatal("healed agent never shipped its banked change sets")
	}
	for _, st := range sim.Server.SyncStates() {
		if st.Gaps != 0 {
			t.Errorf("node %s: %d gaps — link-down failures must not burn sequence numbers", st.Node, st.Gaps)
		}
		if !st.Synced {
			t.Errorf("node %s diverged", st.Node)
		}
	}
	if diffs := settleAndCompare(sim); len(diffs) > 0 {
		t.Fatalf("server diverged after partition heal:\n%s", joinDiffs(diffs))
	}
}

// TestHandleFrameConcurrent hammers the sequenced ingest path from many
// goroutines — gaps, regressions, and snapshots interleaved with the
// read-side APIs — to hold the PR 1 guarantee that protocol state rides
// the per-node locks, not a new global one. Run with -race.
func TestHandleFrameConcurrent(t *testing.T) {
	srv := NewServer(ServerConfig{Cluster: "race"})
	const workers = 8
	const frames = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := fmt.Sprintf("node%03d", w)
			vals := []consolidate.Value{consolidate.NumValue("load.1", consolidate.Dynamic, float64(w))}
			seq := uint64(0)
			for i := 0; i < frames; i++ {
				seq++
				switch i % 10 {
				case 3: // lose a frame: next delta gaps
					seq++
					srv.HandleFrame(transmit.Frame{Node: node, Seq: seq, Kind: transmit.FrameDelta, Values: vals}) //nolint:errcheck
				case 7: // heal with a snapshot
					srv.HandleFrame(transmit.Frame{Node: node, Seq: seq, Kind: transmit.FrameSnapshot, Values: vals}) //nolint:errcheck
				default:
					srv.HandleFrame(transmit.Frame{Node: node, Seq: seq, Kind: transmit.FrameDelta, Values: vals}) //nolint:errcheck
				}
			}
			// Agent restart: sequence regression.
			srv.HandleFrame(transmit.Frame{Node: node, Seq: 1, Kind: transmit.FrameDelta, Values: vals}) //nolint:errcheck
		}()
	}
	// Read-side churn while ingest runs.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			srv.SyncStates()
			srv.Status()
		}
	}()
	wg.Wait()
	<-done
	states := srv.SyncStates()
	if len(states) != workers {
		t.Fatalf("nodes = %d, want %d", len(states), workers)
	}
	for _, st := range states {
		if st.Gaps == 0 || st.Snapshots == 0 || st.Regressions == 0 {
			t.Fatalf("node %s missed protocol transitions: %+v", st.Node, st)
		}
		if st.Synced {
			t.Fatalf("node %s synced after a trailing regression: %+v", st.Node, st)
		}
	}
}

func joinDiffs(diffs []string) string {
	if len(diffs) > 12 {
		diffs = append(diffs[:12:12], fmt.Sprintf("... and %d more", len(diffs)-12))
	}
	out := ""
	for _, d := range diffs {
		out += "  " + d + "\n"
	}
	return out
}

// TestMixedVersionClusterConverges is the v2 rollout's differential
// acceptance run: half the agents are pinned to the v1 text protocol
// (old builds), half negotiate the binary v2 format, and the whole
// cluster rides the same seeded loss/blackhole/partition schedule as
// TestLossToleranceConverges. After the heal the server must hold a
// byte-identical view of every agent regardless of which wire each
// session spoke — v2's predictor chains and dictionary resync must be
// exactly as loss-tolerant as v1's deflated text.
func TestMixedVersionClusterConverges(t *testing.T) {
	sim, err := NewSim(SimConfig{
		Nodes:       12,
		Cluster:     "faultlab",
		Transport:   TransportSimnet,
		AntiEntropy: 20 * time.Second,
		EchoSweep:   -1,
		WireV1:      func(i int) bool { return i%2 == 0 },
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Stop)
	sim.PowerOnAll()
	sim.Advance(30 * time.Second)

	sim.Net.SetLoss(0.15)
	sim.Advance(60 * time.Second)
	sim.Net.SetLoss(1)
	sim.Advance(10 * time.Second)
	sim.Net.SetLoss(0.15)
	sim.Net.SetLatency(2 * time.Millisecond)
	mon := sim.Net.Endpoint("node003.mon")
	mon.SetUp(false)
	sim.Advance(20 * time.Second)
	mon.SetUp(true)
	sim.Advance(20 * time.Second)
	sim.Net.SetLoss(0)
	sim.Advance(90 * time.Second)

	// The version split must have taken: pinned agents stayed v1, and
	// every unpinned agent upgraded (offers ride every v1 frame, so even
	// the lossy phases cannot starve the negotiation forever).
	var v1, v2 int
	for i, wc := range sim.wires {
		switch {
		case i%2 == 0:
			if wc.V2() {
				t.Errorf("agent %d was pinned to v1 but negotiated v2", i)
			}
			v1++
		default:
			if !wc.V2() {
				t.Errorf("agent %d never negotiated v2", i)
			}
			v2++
		}
	}
	if v1 == 0 || v2 == 0 {
		t.Fatalf("not a mixed cluster: %d v1, %d v2", v1, v2)
	}

	states := sim.Server.SyncStates()
	var gaps int64
	for _, st := range states {
		gaps += st.Gaps
		if !st.Synced {
			t.Errorf("node %s still diverged after heal: %+v", st.Node, st)
		}
	}
	if gaps == 0 {
		t.Fatal("fault schedule produced no sequence gaps: the protocol was not exercised")
	}
	if diffs := settleAndCompare(sim); len(diffs) > 0 {
		t.Fatalf("mixed-version cluster diverged after heal (%d diffs):\n%s",
			len(diffs), joinDiffs(diffs))
	}
}

// fedFaultSchedule drives one federation (or the flat control) through
// the shared fault timeline: boot, 15% fabric loss with a 20 s fault
// window mid-loss, heal, settle. The timeline is identical for every
// topology — down/up only toggle state, never advance the clock — so
// the runs end at the same virtual instant with identical
// (clock-driven) agent state.
func fedFaultSchedule(fed *Sim, down, up func(*Sim)) {
	fed.PowerOnAll()
	fed.Advance(30 * time.Second) // lossless boot: registration + first uplink snap-alls
	fed.Net.SetLoss(0.15)
	fed.Advance(40 * time.Second)
	if down != nil {
		down(fed) // topology-specific fault begins
	}
	fed.Advance(20 * time.Second)
	if up != nil {
		up(fed)
	}
	fed.Advance(40 * time.Second)
	fed.Net.SetLoss(0)
	fed.Advance(90 * time.Second) // past agent AND uplink anti-entropy
	fed.Stop()
	fed.Advance(5 * time.Second) // drain in-flight frames and final flushes
}

// TestFedLossKillRejoinConverges is federation's fault acceptance run: a
// 2-leaf tree (one leaf's uplink pinned to v1) rides 15% fabric loss
// while the batching leaf's daemon is killed and rejoined
// mid-schedule. After the heal the root must hold a byte-identical view
// of every agent — and byte-identical to a flat single-server control
// run over the same seeds and timeline, proving the extra hop and the
// healing machinery (link desync -> "!uresync" -> snap-all, per-node
// resync on the v1 leaf, a killed daemon's fresh session) add no divergence.
func TestFedLossKillRejoinConverges(t *testing.T) {
	fed, err := NewSim(SimConfig{
		Fanout: 2, Tiers: 2, Nodes: 3, Transport: TransportSimnet,
		EchoSweep: -1, AntiEntropy: 20 * time.Second,
		UplinkAntiEntropy: 20 * time.Second,
		UplinkV1:          func(leaf int) bool { return leaf == 1 },
		Seed:              42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Stop)
	// Cut the batching leaf off for the 20 s fault window, then kill its
	// daemon and rejoin as a fresh process from its last checkpoint: a new
	// session, so negotiation, sequences and dictionary start over.
	var cut UplinkStats
	fedFaultSchedule(fed,
		func(f *Sim) { f.Leaves[0].UpEp.SetUp(false) },
		func(f *Sim) {
			f.Leaves[0].UpEp.SetUp(true)
			cut = f.Leaves[0].Uplink.Stats()
			f.Kill(f.Leaves[0])
		})

	// The flat control: the same six agents, same seeds, same timeline,
	// one server, no federation. Its converged state is the ground truth
	// the federated root must reproduce byte for byte.
	flat, err := NewSim(SimConfig{
		Nodes: 6, Transport: TransportSimnet,
		EchoSweep: -1, AntiEntropy: 20 * time.Second,
		Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(flat.Stop)
	fedFaultSchedule(flat, nil, nil)

	// The schedule must actually have hurt: link-down send failures on
	// the killed leaf, loss-induced batch desyncs healed by snap-alls,
	// and per-node resyncs on the v1-pinned leaf.
	killed := fed.Leaves[0].Uplink.Stats()
	if cut.SendFails == 0 {
		t.Error("killed leaf saw no uplink send failures")
	}
	if !killed.V2 || killed.Frames == 0 {
		t.Errorf("rejoined leaf never renegotiated the batch wire: %+v", killed)
	}
	pinned := fed.Leaves[1].Uplink.Stats()
	if pinned.V2 || pinned.V1Frames == 0 {
		t.Errorf("pinned leaf should have stayed on v1 frames: %+v", pinned)
	}
	if pinned.NodeResyncs == 0 {
		t.Error("15% loss produced no per-node resync requests on the v1 uplink")
	}
	in := fed.Root.Server.UplinkInStats()
	if in.Desyncs == 0 {
		t.Errorf("15%% loss produced no batch chain breaks: %+v", in)
	}
	snapAlls := killed.SnapAlls
	if snapAlls < 2 {
		t.Errorf("kill/rejoin + desyncs should force repeated snap-alls, got %d", snapAlls)
	}

	// Convergence, three ways: root matches each agent, the flat control
	// matches each agent, and root matches the flat control byte for
	// byte on every raw node.
	var diffs []string
	for _, leaf := range fed.Leaves {
		for i, agent := range leaf.Agents {
			name := leaf.Nodes[i].Name()
			diffs = append(diffs, syncDiff(fed.Root.Server, name, agent.Consolidator().Snapshot())...)
		}
	}
	if len(diffs) > 0 {
		t.Fatalf("federated root diverged from agents after heal (%d diffs):\n%s", len(diffs), joinDiffs(diffs))
	}
	flatSrv := flat.Root.Server
	for i, agent := range flat.Agents {
		name := flat.Nodes[i].Name()
		if d := syncDiff(flatSrv, name, agent.Consolidator().Snapshot()); len(d) > 0 {
			t.Fatalf("flat control diverged from its own agents:\n%s", joinDiffs(d))
		}
		if d := syncDiff(fed.Root.Server, name, flatSrv.NodeValues(name)); len(d) > 0 {
			t.Fatalf("federated root != flat control for %s:\n%s", name, joinDiffs(d))
		}
	}
}
