package core

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/cloning"
	"clusterworx/internal/consolidate"
	"clusterworx/internal/events"
	"clusterworx/internal/image"
	"clusterworx/internal/node"
	"clusterworx/internal/simnet"
	"clusterworx/internal/transmit"
)

// bootSim builds an n-node sim, powers everything up, and settles.
func bootSim(t *testing.T, n int) *Sim {
	t.Helper()
	sim, err := NewSim(SimConfig{Nodes: n, Cluster: "test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Stop)
	sim.PowerOnAll()
	sim.Advance(30 * time.Second)
	return sim
}

func TestSimBootsAndReports(t *testing.T) {
	sim := bootSim(t, 12)
	status := sim.Server.Status()
	if len(status) != 12 {
		t.Fatalf("status rows = %d", len(status))
	}
	for _, st := range status {
		if !st.Alive {
			t.Fatalf("node %s not alive: %+v", st.Name, st)
		}
		if st.Values < 40 {
			t.Fatalf("node %s has %d values, want >40", st.Name, st.Values)
		}
	}
	if len(sim.Boxes) != 2 {
		t.Fatalf("boxes = %d for 12 nodes", len(sim.Boxes))
	}
}

func TestServerSeesLoadChange(t *testing.T) {
	sim := bootSim(t, 2)
	sim.Node("node001").SetLoad(3)
	sim.Advance(5 * time.Minute)
	v, ok := sim.Server.NodeValue("node001", "load.1")
	if !ok || v.Num < 2 {
		t.Fatalf("load.1 = %+v", v)
	}
	// History accumulated.
	series := sim.Server.History().Series("node001", "load.1")
	if series == nil || series.Len() < 10 {
		t.Fatal("no load history")
	}
	slope, ok := series.Trend(0, sim.Clk.Now())
	if !ok || slope <= 0 {
		t.Fatalf("trend = %v, %v", slope, ok)
	}
}

func TestDeadNodeGoesStale(t *testing.T) {
	sim := bootSim(t, 2)
	sim.Node("node000").Crash("wedged")
	sim.Advance(time.Minute)
	for _, st := range sim.Server.Status() {
		switch st.Name {
		case "node000":
			if st.Alive {
				t.Fatal("crashed node still alive on server")
			}
		case "node001":
			if !st.Alive {
				t.Fatal("healthy node marked down")
			}
		}
	}
}

func TestEventEnginePowersDownOverheatingNode(t *testing.T) {
	sim := bootSim(t, 4)
	sim.Server.Engine().AddRule(events.Rule{
		Name: "overtemp", Metric: "hw.temp.cpu", Op: events.GT, Threshold: 85,
		Action: events.ActPowerOff, Notify: true,
	})
	victim := sim.Node("node002")
	victim.SetLoad(1)
	sim.Advance(3 * time.Minute)
	victim.FailFan()
	// The temperature climbs toward 105 °C; damage at 95 °C. The rule must
	// cut power first.
	sim.Advance(20 * time.Minute)
	if victim.Damaged() {
		t.Fatalf("node burned at %.1f°C despite the event engine", victim.Temperature())
	}
	if victim.State() != node.PowerOff {
		t.Fatalf("victim state = %v, want off", victim.State())
	}
	// Exactly one notification for the incident.
	if got := sim.Mailer.Count(); got != 1 {
		t.Fatalf("mails = %d", got)
	}
	msg := sim.Mailer.Messages()[0]
	if !strings.Contains(msg.Body, "node002") || !strings.Contains(msg.Body, "power-off") {
		t.Fatalf("mail body:\n%s", msg.Body)
	}
	// Other nodes untouched.
	if sim.Node("node001").State() != node.Up {
		t.Fatal("bystander node affected")
	}
}

func TestConsoleThroughServer(t *testing.T) {
	sim := bootSim(t, 1)
	sim.Node("node000").Crash("post-mortem me")
	data, err := sim.Server.Console("node000")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "post-mortem me") {
		t.Fatal("console dump missing panic")
	}
	if _, err := sim.Server.Console("ghost"); err == nil {
		t.Fatal("console for unknown node succeeded")
	}
}

func TestPowerControlThroughServer(t *testing.T) {
	sim := bootSim(t, 2)
	if err := sim.Server.PowerOff("node001"); err != nil {
		t.Fatal(err)
	}
	if sim.Node("node001").State() != node.PowerOff {
		t.Fatal("power off failed")
	}
	if err := sim.Server.PowerOn("node001"); err != nil {
		t.Fatal(err)
	}
	sim.Advance(10 * time.Second)
	if sim.Node("node001").State() != node.Up {
		t.Fatal("power on failed")
	}
	if err := sim.Server.Reset("node001"); err != nil {
		t.Fatal(err)
	}
	sim.Advance(10 * time.Second)
	if sim.Node("node001").State() != node.Up {
		t.Fatal("reset failed")
	}
	if err := sim.Server.PowerCycle("node001"); err != nil {
		t.Fatal(err)
	}
	sim.Advance(15 * time.Second)
	if sim.Node("node001").State() != node.Up {
		t.Fatal("cycle failed")
	}
	if err := sim.Server.PowerOn("ghost"); err == nil {
		t.Fatal("power to unknown node succeeded")
	}
}

func TestSimClone(t *testing.T) {
	sim := bootSim(t, 5)
	img, err := image.Prebuilt("nfsboot")
	if err != nil {
		t.Fatal(err)
	}
	targets := []string{"node001", "node002", "node003"}
	res, err := sim.Clone(img, targets, 0.02, cloningParamsForTest())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeUp) != 3 {
		t.Fatalf("cloned %d nodes", len(res.NodeUp))
	}
	for _, name := range targets {
		if sim.NodeImage(name) != img.ID() {
			t.Fatalf("node %s image = %q", name, sim.NodeImage(name))
		}
	}
	sim.Advance(30 * time.Second)
	for _, name := range targets {
		if sim.Node(name).State() != node.Up {
			t.Fatalf("cloned node %s = %v", name, sim.Node(name).State())
		}
	}
	// Untouched node kept its (empty) image.
	if sim.NodeImage("node000") != "" {
		t.Fatal("non-target node cloned")
	}
	if _, err := sim.Clone(img, []string{"ghost"}, 0, cloningParamsForTest()); err == nil {
		t.Fatal("clone of unknown node succeeded")
	}
	if _, err := sim.Clone(img, nil, 0, cloningParamsForTest()); err == nil {
		t.Fatal("clone without targets succeeded")
	}
}

// TestSimCloneKeepsFabricLoss: a clone's loss is its own links', so a run
// under fabric loss is still under it once the clone is done.
func TestSimCloneKeepsFabricLoss(t *testing.T) {
	sim := bootSim(t, 2)
	sim.Net.SetLoss(0.15)
	img, err := image.Prebuilt("nfsboot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Clone(img, []string{"node001"}, 0.01, cloning.Params{}); err != nil {
		t.Fatal(err)
	}
	a, b := sim.Net.Attach("probe.a", simnet.GigE), sim.Net.Attach("probe.b", simnet.GigE)
	const sent = 2000
	for i := 0; i < sent; i++ {
		a.Send(b.Addr(), nil, 100)
	}
	sim.Advance(time.Second)
	if lost := float64(b.Stats().Dropped) / sent; lost < 0.12 || lost > 0.18 {
		t.Fatalf("after the clone the fabric lost %.3f of a probe's packets, want ≈0.15", lost)
	}
}

func TestAgentStopsWithNode(t *testing.T) {
	sim := bootSim(t, 1)
	a := sim.Agents[0]
	before := a.Transmissions()
	sim.Advance(10 * time.Second)
	if a.Transmissions() <= before {
		t.Fatal("agent not transmitting while node up")
	}
	sim.Node("node000").PowerOff()
	mid := a.Transmissions()
	sim.Advance(time.Minute)
	if a.Transmissions() != mid {
		t.Fatal("agent transmitted while node off")
	}
	sim.Node("node000").PowerOn()
	sim.Advance(30 * time.Second)
	if a.Transmissions() <= mid {
		t.Fatal("agent did not resume after reboot")
	}
}

func TestChangeOnlyTransmission(t *testing.T) {
	sim := bootSim(t, 1)
	sim.Advance(2 * time.Minute)
	st := sim.Agents[0].Consolidator().Stats()
	if st.Suppressed == 0 {
		t.Fatal("no suppression on an idle node")
	}
	if st.Collected != st.Changed+st.Suppressed {
		t.Fatal("consolidation stats unbalanced")
	}
}

func TestHandleCtl(t *testing.T) {
	sim := bootSim(t, 2)
	cases := []struct {
		req     string
		wantPfx string
		want    string
	}{
		{"ping", "OK", "pong"},
		{"status", "OK", "node000"},
		{"nodes", "OK", "node001"},
		{"values node000", "OK", "load.1"},
		{"value node000 host.name", "OK", "node000"},
		{"history node000 load.1 5", "OK", ""},
		{"trend node000 uptime.sec", "OK", "per hour"},
		{"power off node001", "OK", ""},
		{"power on node001", "OK", ""},
		{"reset node000", "OK", ""},
		{"console node000", "OK", "LinuxBIOS"},
		{"rules", "OK", ""},
		{"eventlog", "OK", ""},
		{"images", "OK", ""},
		{"value ghost x", "ERR", ""},
		{"values ghost", "ERR", ""},
		{"history node000 load.1 bogus", "ERR", ""},
		{"history node000 nothere", "ERR", ""},
		{"trend node000 nothere", "ERR", ""},
		{"power fry node000", "ERR", ""},
		{"power on", "ERR", "usage"},
		{"reset", "ERR", "usage"},
		{"console ghost", "ERR", ""},
		{"eventlog x", "ERR", ""},
		{"wat", "ERR", "unknown"},
		{"", "ERR", ""},
	}
	for _, tc := range cases {
		resp := sim.Server.HandleCtl(tc.req)
		if !strings.HasPrefix(resp, tc.wantPfx) {
			t.Errorf("%q -> %q, want prefix %s", tc.req, firstLine(resp), tc.wantPfx)
		}
		if tc.want != "" && !strings.Contains(resp, tc.want) {
			t.Errorf("%q -> missing %q in %q", tc.req, tc.want, firstLine(resp))
		}
		sim.Advance(time.Second)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func TestCtlOverTCP(t *testing.T) {
	sim := bootSim(t, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go sim.Server.ServeCtl(l) //nolint:errcheck // ends with listener

	c, err := DialCtl(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do("ping")
	if err != nil || !strings.Contains(resp, "pong") {
		t.Fatalf("ping: %q %v", resp, err)
	}
	resp, err = c.Do("status")
	if err != nil || !strings.Contains(resp, "node000") {
		t.Fatalf("status: %q %v", resp, err)
	}
	if _, err := c.Do("definitely not a command"); err == nil {
		t.Fatal("bad request returned no error")
	}
}

func TestAgentOverTCP(t *testing.T) {
	srv := NewServer(ServerConfig{Cluster: "net"})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.ServeAgents(l) //nolint:errcheck // ends with listener

	ac, err := DialAgent(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	vals := []consolidate.Value{
		consolidate.NumValue("load.1", consolidate.Dynamic, 0.75),
		consolidate.TextValue("cpu.type", consolidate.Static, "Pentium III"),
	}
	if err := ac.SendFrame(transmit.Frame{Node: "netnode", Seq: 1, Kind: transmit.FrameSnapshot, Values: vals}); err != nil {
		t.Fatal(err)
	}
	// The server processes asynchronously; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, ok := srv.NodeValue("netnode", "load.1"); ok && v.Num == 0.75 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("value never arrived over TCP")
		}
		time.Sleep(5 * time.Millisecond)
	}
	raw, wire := ac.Stats()
	if raw <= 0 || wire <= 0 {
		t.Fatalf("stats = %d/%d", raw, wire)
	}
}

// TestResyncOverTCP exercises the sequenced protocol's TCP back-channel:
// a sequence gap on the wire must come back to the agent side as a
// resync request, and a snapshot frame must clear the divergence.
func TestResyncOverTCP(t *testing.T) {
	srv := NewServer(ServerConfig{Cluster: "net"})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.ServeAgents(l) //nolint:errcheck // ends with listener

	ac, err := DialAgent(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	resyncs := make(chan string, 4)
	ac.OnResync(func(node string) { resyncs <- node })

	vals := []consolidate.Value{consolidate.NumValue("load.1", consolidate.Dynamic, 0.5)}
	if err := ac.SendFrame(transmit.Frame{Node: "netnode", Seq: 1, Kind: transmit.FrameDelta, Values: vals}); err != nil {
		t.Fatal(err)
	}
	// Seq 3: frame 2 "was lost" — the server must ask for a resync.
	if err := ac.SendFrame(transmit.Frame{Node: "netnode", Seq: 3, Kind: transmit.FrameDelta, Values: vals}); err != nil {
		t.Fatal(err)
	}
	select {
	case node := <-resyncs:
		if node != "netnode" {
			t.Fatalf("resync for %q", node)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no resync request arrived over TCP")
	}
	// Heal with a snapshot and confirm the server agrees.
	if err := ac.SendFrame(transmit.Frame{Node: "netnode", Seq: 4, Kind: transmit.FrameSnapshot, Values: vals}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		states := srv.SyncStates()
		if len(states) == 1 && states[0].Synced && states[0].Snapshots == 1 {
			if states[0].Gaps != 1 {
				t.Fatalf("gaps = %d, want 1", states[0].Gaps)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never healed the node: %+v", states)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCorruptCompressedWireFrame drives corrupted deflate bodies through
// the full wire path. Raw deflate carries no checksum, so a flipped byte
// can decode "successfully" into garbage — the decode+parse pipeline as
// a whole must reject the frame rather than yield a mangled node name.
func TestCorruptCompressedWireFrame(t *testing.T) {
	vals := make([]consolidate.Value, 0, 64)
	for i := 0; i < 64; i++ {
		vals = append(vals, consolidate.NumValue(fmt.Sprintf("metric.%02d.value", i), consolidate.Dynamic, float64(i)))
	}
	for flip := 6; flip < 20; flip++ {
		var buf bytes.Buffer
		frame := transmit.MarshalFrame(nil, transmit.Frame{Node: "node042", Seq: 3, Kind: transmit.FrameDelta, Values: vals})
		if err := transmit.NewWriter(&buf, true).WriteFrame(frame); err != nil {
			t.Fatal(err)
		}
		wire := buf.Bytes()
		wire[flip] ^= 0xff
		payload, err := transmit.NewReader(bytes.NewReader(wire)).ReadFrame()
		if err != nil {
			continue // rejected at the framing layer: fine
		}
		if f, err := transmit.ParseFrame(payload); err == nil && f.Node != "node042" {
			t.Fatalf("flip at %d: corrupt frame accepted with node name %q", flip, f.Node)
		}
	}
}

func TestNewSimValidation(t *testing.T) {
	if _, err := NewSim(SimConfig{Nodes: 0}); err == nil {
		t.Fatal("empty sim accepted")
	}
}

// cloningParamsForTest keeps clone tests quick.
func cloningParamsForTest() cloning.Params {
	return cloning.Params{}
}

func TestServerAccessors(t *testing.T) {
	sim := bootSim(t, 1)
	if sim.Server.Cluster() != "test" {
		t.Fatalf("Cluster = %q", sim.Server.Cluster())
	}
	if len(sim.Server.ICEBoxes()) != 1 {
		t.Fatal("ICEBoxes wrong")
	}
	if sim.Server.Images() == nil || sim.Server.History() == nil || sim.Server.Engine() == nil {
		t.Fatal("nil subsystem accessor")
	}
}

func TestActuatorResetAndHalt(t *testing.T) {
	sim := bootSim(t, 1)
	// Drive the Reset and Halt actions through the event engine, which
	// uses the serverActuator adapter.
	sim.Server.Engine().AddRule(events.Rule{
		Name: "wedge-reset", Metric: "plugin.watchdog.wedged", Op: events.GE, Threshold: 1,
		Action: events.ActReset,
	})
	sim.Server.Engine().AddRule(events.Rule{
		Name: "drain-halt", Metric: "plugin.admin.drain", Op: events.GE, Threshold: 1,
		Action: events.ActHalt,
	})
	sim.Server.Engine().ObserveMap("node000", map[string]float64{"plugin.watchdog.wedged": 1})
	sim.Advance(10 * time.Second)
	if sim.Node("node000").State() != node.Up {
		t.Fatalf("after reset action: %v", sim.Node("node000").State())
	}
	sim.Server.Engine().ObserveMap("node000", map[string]float64{"plugin.admin.drain": 1})
	sim.Advance(time.Second)
	// Halt is delivered as a power-off (the outlet is the reliable lever).
	if st := sim.Node("node000").State(); st != node.PowerOff {
		t.Fatalf("after halt action: %v", st)
	}
}

func TestAgentSendErrorsCounted(t *testing.T) {
	clk := sims(t)
	n := node.New(clk, node.Config{Name: "err"})
	n.PowerOn()
	clk.Advance(10 * time.Second)
	fails := 0
	a, err := NewAgent(clk, AgentConfig{
		Node: n,
		SendFrame: func(transmit.Frame) error {
			fails++
			return errTransport
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	clk.Advance(10 * time.Second)
	if a.SendErrors() == 0 || a.Transmissions() != 0 || a.Seq() != 0 {
		t.Fatalf("errors=%d sent=%d seq=%d: a failed send must not burn a sequence number", a.SendErrors(), a.Transmissions(), a.Seq())
	}
}

var errTransport = fmt.Errorf("transport down")

func sims(t *testing.T) *clock.Clock {
	t.Helper()
	return clock.New()
}

func TestSimIncrementalUpdate(t *testing.T) {
	sim := bootSim(t, 3)
	v1 := image.NewBuilder("os", "1.0", image.BootDisk, 32<<20).
		AddPackage("kernel-a", 4<<20).Build()
	v2 := image.NewBuilder("os", "1.1", image.BootDisk, 32<<20).
		AddPackage("kernel-b", 4<<20).Build()
	targets := []string{"node001", "node002"}
	if _, err := sim.Clone(v1, targets, 0, cloning.Params{}); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Update(v1, v2, targets, 0.01, cloning.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MulticastBytes > 8<<20 {
		t.Fatalf("update moved %d bytes for a 4 MB kernel", res.MulticastBytes)
	}
	for _, name := range targets {
		if sim.NodeImage(name) != v2.ID() {
			t.Fatalf("%s image = %q", name, sim.NodeImage(name))
		}
	}
	sim.Advance(30 * time.Second)
	for _, name := range targets {
		if sim.Node(name).State() != node.Up {
			t.Fatalf("%s = %v after update", name, sim.Node(name).State())
		}
	}
}
