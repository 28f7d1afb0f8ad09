package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/firmware"
	"clusterworx/internal/node"
)

func TestCtlChartAndSpark(t *testing.T) {
	sim := bootSim(t, 2)
	sim.Node("node000").SetLoad(2)
	sim.Advance(5 * time.Minute)

	resp := sim.Server.HandleCtl("chart node000 load.1")
	if !strings.HasPrefix(resp, "OK") || !strings.Contains(resp, "*") {
		t.Fatalf("chart response:\n%s", resp)
	}
	if !strings.Contains(resp, "+---") {
		t.Fatalf("chart missing axis:\n%s", resp)
	}
	resp = sim.Server.HandleCtl("spark node000 load.1")
	if !strings.HasPrefix(resp, "OK ") || len(resp) < 10 {
		t.Fatalf("spark response: %q", resp)
	}
	for _, bad := range []string{"chart ghost load.1", "chart node000", "spark ghost x", "spark x"} {
		if resp := sim.Server.HandleCtl(bad); !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("%q -> %q", bad, firstLine(resp))
		}
	}
}

func TestCtlCompare(t *testing.T) {
	sim := bootSim(t, 3)
	sim.Node("node002").SetLoad(3)
	sim.Advance(5 * time.Minute)
	resp := sim.Server.HandleCtl("compare load.1")
	if !strings.HasPrefix(resp, "OK") {
		t.Fatalf("compare: %s", firstLine(resp))
	}
	for _, n := range []string{"node000", "node001", "node002"} {
		if !strings.Contains(resp, n) {
			t.Fatalf("compare missing %s:\n%s", n, resp)
		}
	}
	if resp := sim.Server.HandleCtl("compare"); !strings.HasPrefix(resp, "ERR") {
		t.Fatal("compare without metric accepted")
	}
}

func TestCtlCorrelate(t *testing.T) {
	sim := bootSim(t, 1)
	// Ramp the load so load.1 and cpu temperature co-vary.
	for i := 0; i < 30; i++ {
		sim.Node("node000").SetLoad(float64(i%10) / 3)
		sim.Advance(30 * time.Second)
	}
	resp := sim.Server.HandleCtl("correlate node000 load.1 hw.temp.cpu")
	if !strings.HasPrefix(resp, "OK r=") {
		t.Fatalf("correlate: %s", firstLine(resp))
	}
	if resp := sim.Server.HandleCtl("correlate node000 load.1"); !strings.HasPrefix(resp, "ERR") {
		t.Fatal("short correlate accepted")
	}
	if resp := sim.Server.HandleCtl("correlate ghost a b"); !strings.HasPrefix(resp, "ERR") {
		t.Fatal("correlate on ghost accepted")
	}
}

func TestCtlHistMem(t *testing.T) {
	sim := bootSim(t, 2)
	sim.Advance(5 * time.Minute)
	resp := sim.Server.HandleCtl("histmem")
	if !strings.HasPrefix(resp, "OK") {
		t.Fatalf("histmem: %s", firstLine(resp))
	}
	for _, want := range []string{"B/sample", "node000", "total:", "vs raw ring"} {
		if !strings.Contains(resp, want) {
			t.Fatalf("histmem missing %q:\n%s", want, resp)
		}
	}
	if resp := sim.Server.HandleCtl("histmem 1"); !strings.Contains(resp, "more series") {
		t.Fatalf("histmem 1 did not truncate:\n%s", resp)
	}
	for _, bad := range []string{"histmem 0", "histmem x", "histmem 1 2"} {
		if resp := sim.Server.HandleCtl(bad); !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("%q -> %q", bad, firstLine(resp))
		}
	}
}

func TestCtlBIOS(t *testing.T) {
	sim := bootSim(t, 2)
	resp := sim.Server.HandleCtl("bios settings node000")
	if !strings.Contains(resp, "version=") || !strings.Contains(resp, "console=ttyS0,115200") {
		t.Fatalf("bios settings:\n%s", resp)
	}
	if resp := sim.Server.HandleCtl("bios set node000 boot_order disk,net"); !strings.HasPrefix(resp, "OK") {
		t.Fatalf("bios set: %s", resp)
	}
	if resp := sim.Server.HandleCtl("bios settings node000"); !strings.Contains(resp, "boot_order=disk,net") {
		t.Fatalf("setting did not stick:\n%s", resp)
	}
	if resp := sim.Server.HandleCtl("bios flash node000 1.1.4"); !strings.HasPrefix(resp, "OK") {
		t.Fatalf("bios flash: %s", resp)
	}
	if resp := sim.Server.HandleCtl("bios settings node000"); !strings.Contains(resp, "version=1.1.4") {
		t.Fatalf("flash did not stick:\n%s", resp)
	}
	for _, bad := range []string{"bios settings ghost", "bios set node000 k", "bios flash node000", "bios fry node000", "bios"} {
		if resp := sim.Server.HandleCtl(bad); !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("%q -> %q", bad, firstLine(resp))
		}
	}
}

func TestBIOSManagementRequiresLinuxBIOS(t *testing.T) {
	// A node on a legacy BIOS cannot be managed remotely — the paper's §2
	// keyboard-and-monitor problem.
	srv := NewServer(ServerConfig{Cluster: "legacy"})
	srv.RegisterFirmware("old-node", firmware.NewLegacyBIOS())
	if _, err := srv.BIOSSettings("old-node"); err == nil || !strings.Contains(err.Error(), "not remotely configurable") {
		t.Fatalf("legacy BIOS settings err = %v", err)
	}
	if err := srv.BIOSSet("old-node", "k", "v"); err == nil {
		t.Fatal("legacy BIOS set succeeded")
	}
	if err := srv.BIOSFlash("old-node", "2"); err == nil {
		t.Fatal("legacy BIOS flash succeeded")
	}
	if _, err := srv.BIOSSettings("unknown"); err == nil {
		t.Fatal("unknown node BIOS succeeded")
	}
}

func TestBIOSFlashVisibleOnNextBoot(t *testing.T) {
	sim := bootSim(t, 1)
	if err := sim.Server.BIOSFlash("node000", "9.9.9"); err != nil {
		t.Fatal(err)
	}
	if err := sim.Server.PowerCycle("node000"); err != nil {
		t.Fatal(err)
	}
	sim.Advance(15 * time.Second)
	if sim.Node("node000").State() != node.Up {
		t.Fatal("node did not reboot")
	}
	if !strings.Contains(string(sim.Node("node000").Serial().PostMortem()), "LinuxBIOS-9.9.9") {
		t.Fatal("flashed version not active after reboot")
	}
}

func TestCtlEfficiency(t *testing.T) {
	sim := bootSim(t, 2)
	sim.Node("node001").SetLoad(2)
	sim.Advance(5 * time.Minute)
	resp := sim.Server.HandleCtl("efficiency")
	if !strings.Contains(resp, "cluster efficiency:") || !strings.Contains(resp, "node001") {
		t.Fatalf("efficiency:\n%s", resp)
	}
}

// TestCtlClone: "clone" starts a job and answers at once; the job runs as
// the clock does, holds its master and nodes until it is done, and
// "clone status" shows it running and then its summary.
func TestCtlClone(t *testing.T) {
	sim := bootSim(t, 3)
	if resp := sim.Server.HandleCtl("clone lnxi-nfs@2.1 node001 node002"); resp != "OK job 1: cloning lnxi-nfs@2.1 to 2 node(s)" {
		t.Fatalf("clone: %s", resp)
	}
	if resp := sim.Server.HandleCtl("clone status"); resp != "OK\njob 1: cloning lnxi-nfs@2.1 to 2 node(s)" {
		t.Fatalf("clone status, job running: %q", resp)
	}
	for _, busy := range []string{"clone lnxi-nfs@2.1 node000", "clone lnxi-nfs@2.1 node002"} {
		if resp := sim.Server.HandleCtl(busy); resp != "ERR core: master is running a clone job" {
			t.Fatalf("%q while job 1 runs -> %q", busy, resp)
		}
	}
	sim.Advance(time.Minute)
	if sim.NodeImage("node001") != "lnxi-nfs@2.1" || sim.NodeImage("node002") != "lnxi-nfs@2.1" {
		t.Fatal("image not recorded")
	}
	if resp := sim.Server.HandleCtl("CLONE Status"); !strings.HasPrefix(resp, "OK\njob 1: cloned lnxi-nfs@2.1 to 2 node(s) in ") {
		t.Fatalf("clone status, job done: %q", resp)
	}
	sim.Advance(30 * time.Second)
	if sim.Node("node001").State() != node.Up {
		t.Fatalf("cloned node = %v", sim.Node("node001").State())
	}
	for _, bad := range []string{"clone", "clone onlyimage", "clone ghost@1 node001", "clone lnxi-nfs@2.1 ghostnode", "clone lnxi-nfs@2.1 node000 node000"} {
		if resp := sim.Server.HandleCtl(bad); !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("%q -> %q", bad, firstLine(resp))
		}
	}
	// A refused job holds nothing: the next one starts.
	if resp := sim.Server.HandleCtl("clone lnxi-nfs@2.1 node000"); resp != "OK job 2: cloning lnxi-nfs@2.1 to 1 node(s)" {
		t.Fatalf("clone after refusals: %s", resp)
	}
	// The image library is stocked.
	if resp := sim.Server.HandleCtl("images"); !strings.Contains(resp, "lnxi-node@2.1") {
		t.Fatalf("images: %s", resp)
	}
}

// TestCtlCloneJobsOverlap: in a tree, each leaf runs a job of its own, in
// a multicast group of its own, alongside the other's.
func TestCtlCloneJobsOverlap(t *testing.T) {
	sim, err := NewSim(SimConfig{Nodes: 2, Tiers: 2, Fanout: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Stop)
	sim.PowerOnAll()
	sim.Advance(30 * time.Second)
	ask := func(leaf int, req, want string) {
		t.Helper()
		if resp := sim.Leaves[leaf].Server.HandleCtl(req); resp != want {
			t.Fatalf("leaf%03d %q -> %q, want %q", leaf, req, resp, want)
		}
	}
	ask(0, "clone lnxi-nfs@2.1 node000", "OK job 1: cloning lnxi-nfs@2.1 to 1 node(s)")
	// A job holds its leaf's master and its nodes, whichever leaf asks next.
	ask(0, "clone lnxi-nfs@2.1 node002", "ERR core: leaf000 is running a clone job")
	ask(1, "clone lnxi-nfs@2.1 node003 node000", "ERR core: node000 is already being cloned")
	ask(1, "clone lnxi-nfs@2.1 node002", "OK job 1: cloning lnxi-nfs@2.1 to 1 node(s)")
	sim.Advance(2 * time.Second)
	for _, leaf := range sim.Leaves {
		if n := sim.Net.GroupSize(leaf.Name + ".clone"); n != 1 {
			t.Fatalf("%s's group has %d member(s) while its job runs, want 1", leaf.Name, n)
		}
	}
	sim.Advance(time.Minute)
	for i, leaf := range sim.Leaves {
		if resp := leaf.Server.HandleCtl("clone status"); !strings.HasPrefix(resp, "OK\njob 1: cloned lnxi-nfs@2.1 to 1 node(s) in ") {
			t.Fatalf("%s: clone status: %q", leaf.Name, resp)
		}
		if got := sim.NodeImage(fmt.Sprintf("node%03d", 2*i)); got != "lnxi-nfs@2.1" {
			t.Fatalf("%s's node holds %q", leaf.Name, got)
		}
	}
}

func TestCloneWithoutBackend(t *testing.T) {
	srv := NewServer(ServerConfig{})
	if _, err := srv.CloneNodes("x@1", []string{"n"}); err == nil {
		t.Fatal("clone without backend succeeded")
	}
}

// TestCtlHistoryAndValueFormat pins the two uncached reads against the
// fmt verbs they were written with ("%.3f %g" per point, the value's
// Render), across a count inside the head, one reaching into sealed
// blocks, and one past everything retained.
func TestCtlHistoryAndValueFormat(t *testing.T) {
	var nowNs atomic.Int64
	s := NewServer(ServerConfig{
		Now:             func() time.Duration { return time.Duration(nowNs.Load()) },
		HistoryCapacity: 20,
	})
	var lines []string
	vals := []float64{0.5, -3, 1e21, 1e-7, 2.675, math.Inf(1), 42, 100, 0.1}
	for i := 0; i < 31; i++ {
		nowNs.Add(int64(1500 * time.Millisecond))
		v := vals[i%len(vals)]
		s.HandleValues("n1", []consolidate.Value{consolidate.NumValue("load.1", consolidate.Dynamic, v)})
		lines = append(lines, fmt.Sprintf("%.3f %g", time.Duration(nowNs.Load()).Seconds(), v))
	}
	lines = lines[len(lines)-20:] // what a 20-point series retains
	for _, n := range []int{1, 3, 7, 19, 20, 500} {
		want := "OK\n" + strings.Join(lines[max(0, len(lines)-n):], "\n")
		if got := s.HandleCtl(fmt.Sprintf("history n1 load.1 %d", n)); got != want {
			t.Fatalf("history %d:\n%s\nwant:\n%s", n, got, want)
		}
	}
	if got, want := s.HandleCtl("value n1 load.1"), "OK 1e-07"; got != want || want != fmt.Sprintf("OK %g", vals[30%len(vals)]) {
		t.Fatalf("value = %q, want %q", got, want)
	}
	s.HandleValues("n1", []consolidate.Value{consolidate.TextValue("os.kernel", consolidate.Static, "2.4.18 #1 SMP")})
	if got := s.HandleCtl("value n1 os.kernel"); got != "OK 2.4.18 #1 SMP" {
		t.Fatalf("text value = %q", got)
	}
}

// TestCtlPanicClosesConnectionOnly: a handler that panics answers that
// request "ERR internal: …", is counted, and costs the client its
// connection — on the request path and on a watch stream — while the
// server keeps serving everyone else.
func TestCtlPanicClosesConnectionOnly(t *testing.T) {
	armed := true
	nodes := ctlByName["nodes"]
	open := nodes.open
	defer func() { nodes.open = open }()
	nodes.open = func(p *plane, args []string) func() string {
		build := open(p, args)
		return func() string {
			if armed {
				panic("boom")
			}
			return build()
		}
	}
	s, _ := planeServer()
	planeIngest(s, "node000", 1, 50, 20)
	before := mCtlPanics.Load()
	for _, req := range []string{"nodes", "watch nodes"} {
		cl := pipeClient(t, s)
		if err := cl.Send(req); err != nil {
			t.Fatal(err)
		}
		if block, err := cl.ReadBlock(); err != nil || block != "ERR internal: boom" {
			t.Fatalf("%q answered %q, %v", req, block, err)
		}
		cl.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // net.Pipe deadlines cannot fail
		if _, err := cl.ReadBlock(); err != io.EOF {
			t.Fatalf("after the panic on %q the connection gave %v, want EOF", req, err)
		}
	}
	if got := mCtlPanics.Load() - before; got != 2 {
		t.Fatalf("cwx_ctl_panics_total moved by %d, want 2", got)
	}
	armed = false
	cl := pipeClient(t, s)
	if resp, err := cl.Do("nodes"); err != nil || resp != "OK\nnode000" {
		t.Fatalf("after the panics: nodes = %q, %v", resp, err)
	}
}

// TestCtlOverlongLineAnswered: a request line past maxCtlLine used to
// close the connection with no answer and no count. It is answered "ERR
// request line too long", counted, and the connection closed (the scanner
// cannot find the next line), after the requests before it were answered;
// a line just inside the bound is an ordinary unknown request.
func TestCtlOverlongLineAnswered(t *testing.T) {
	s, _ := planeServer()
	planeIngest(s, "node000", 1, 50, 20)
	before := mCtlLongLines.Load()

	cl := pipeClient(t, s)
	long := append(bytes.Repeat([]byte{'x'}, maxCtlLine), '\n')
	sent := make(chan error, 1)
	go func() {
		_, err := cl.conn.Write(append([]byte("ping\n"), long...))
		sent <- err // the server stops reading mid-line: the pipe's write fails when it closes
	}()
	cl.conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // net.Pipe deadlines cannot fail
	for _, want := range []string{"OK pong", "ERR request line too long"} {
		if block, err := cl.ReadBlock(); err != nil || block != want {
			t.Fatalf("answered %q, %v; want %q", block, err, want)
		}
	}
	if _, err := cl.ReadBlock(); err != io.EOF {
		t.Fatalf("after the long line the connection gave %v, want EOF", err)
	}
	<-sent
	if got := mCtlLongLines.Load() - before; got != 1 {
		t.Fatalf("cwx_ctl_long_lines_total moved by %d, want 1", got)
	}

	cl = pipeClient(t, s)
	go cl.conn.Write(append(bytes.Repeat([]byte{'x'}, maxCtlLine-1), '\n')) //nolint:errcheck // read back below
	cl.conn.SetReadDeadline(time.Now().Add(10 * time.Second))               //nolint:errcheck // net.Pipe deadlines cannot fail
	if block, err := cl.ReadBlock(); err != nil || !strings.HasPrefix(block, "ERR unknown request xxx") {
		t.Fatalf("a line of maxCtlLine-1 bytes answered %.40q, %v", block, err)
	}
	if resp, err := cl.Do("ping"); err != nil || resp != "OK pong" {
		t.Fatalf("after it: ping = %q, %v", resp, err)
	}
}
