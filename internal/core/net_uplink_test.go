package core

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/consolidate"
	"clusterworx/internal/history"
	"clusterworx/internal/leakcheck"
	"clusterworx/internal/transmit"
)

// runDaemon starts a daemon from cfg on a clock of its own and drives it
// as cwxd does, from one goroutine: a 10 ms step every 2 ms of wall time.
// stop drains it through Drive, as SIGTERM does, and fails t unless that
// returns within leakcheck.Settle.
func runDaemon(t *testing.T, cfg DaemonConfig) (d *Daemon, stop func()) {
	t.Helper()
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.New()
	if err := d.Start(clk, nil); err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal)
	done := make(chan error, 1)
	tick := time.NewTicker(2 * time.Millisecond)
	go func() { done <- d.Drive(tick.C, sig, func() { clk.Advance(10 * time.Millisecond) }) }()
	var stopped bool
	stop = func() {
		if !stopped {
			stopped = true
			leakcheck.Returns(t, "a daemon's Stop through Drive", func() {
				sig <- os.Interrupt
				if err := <-done; err != nil {
					t.Errorf("stop: %v", err)
				}
			})
			tick.Stop()
		}
	}
	t.Cleanup(stop)
	return d, stop
}

// TestUplinkOverTCP federates two daemons over loopback: the child
// ingests a frame, its uplink batches it upstream, and the parent's
// mirror and both rollups converge. Then the parent's daemon stops — its
// listener and every session with it go — and a new one comes back on the
// same address. The child must notice on its own, dial a new session (a
// new Uplink, renegotiating the batch wire) and converge again: the
// parent's values equal the child's.
func TestUplinkOverTCP(t *testing.T) {
	t.Cleanup(leakcheck.Goroutines(t))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	parentCfg := DaemonConfig{AgentAddr: addr, Cluster: "parent", Rollup: "grid/root,rack/", UplinkPeriod: 10 * time.Millisecond}
	parent, stopParent := runDaemon(t, parentCfg)
	child, _ := runDaemon(t, DaemonConfig{
		Cluster:           "child",
		Uplink:            addr,
		UplinkPeriod:      10 * time.Millisecond,
		UplinkAntiEntropy: 100 * time.Millisecond,
		Rollup:            "rack/child",
	})
	srv := child.Server()

	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	converged := func(p *Daemon) func() bool {
		return func() bool {
			for _, node := range []string{"fednode", "rack/child"} {
				if len(syncDiff(p.Server(), node, srv.NodeValues(node))) > 0 {
					return false
				}
			}
			return true
		}
	}
	vals := []consolidate.Value{consolidate.NumValue("load.1", consolidate.Dynamic, 0.25)}
	if err := srv.HandleFrame(transmit.Frame{Node: "fednode", Seq: 1, Kind: transmit.FrameSnapshot, Values: vals}); err != nil {
		t.Fatal(err)
	}
	// The child's rollup ticks with its flush and publishes rack/child
	// upstream; the parent's rollup composes that mirror into grid/root.
	waitFor("parent mirror", converged(parent))
	waitFor("grid/root composed aggregate", func() bool {
		v, ok := parent.Server().NodeValue("grid/root", "load.1"+consolidate.RollupSum)
		return ok && v.Num == 0.25
	})
	first := srv.UplinkSession()
	waitFor("batch-wire upgrade", func() bool { return first.Stats().V2 })
	waitFor("first batch ingested", func() bool {
		st := parent.Server().UplinkInStats()
		return st.Frames > 0 && st.RawNodes > 0
	})

	// The parent goes away and comes back, empty, on the same address;
	// meanwhile the child's value changes.
	stopParent()
	vals[0].Num = 0.5
	if err := srv.HandleFrame(transmit.Frame{Node: "fednode", Seq: 2, Kind: transmit.FrameDelta, Values: vals}); err != nil {
		t.Fatal(err)
	}
	parent, _ = runDaemon(t, parentCfg)
	waitFor("a new uplink session", func() bool {
		u := srv.UplinkSession()
		return u != nil && u != first && u.Stats().V2
	})
	waitFor("the new parent's mirror", converged(parent))
	if v, _ := parent.Server().NodeValue("fednode", "load.1"); v.Num != 0.5 {
		t.Fatalf("the new parent holds load.1 = %g, want 0.5", v.Num)
	}
}

// saveCounter is a Persist that counts saves.
type saveCounter struct{ n atomic.Int32 }

func (c *saveCounter) Load(*history.Store) error { return nil }
func (c *saveCounter) Save(*history.Store) error { c.n.Add(1); return nil }

// TestUplinkWedgedParent federates a daemon to a parent that accepts every
// connection and never reads one. Once the socket buffers fill, a write to
// it blocks; each must end its session at its deadline, so the child
// redials, its minute checkpoint still lands, and a stop through Drive, as
// SIGTERM stops cwxd, returns and saves.
func TestUplinkWedgedParent(t *testing.T) {
	t.Cleanup(leakcheck.Goroutines(t))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn // accepted, never read
	)
	accepted := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(conns)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})

	d, err := NewDaemon(DaemonConfig{Cluster: "child", Uplink: l.Addr().String(), UplinkPeriod: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	clk, saves := clock.New(), &saveCounter{}
	if err := d.Start(clk, saves); err != nil {
		t.Fatal(err)
	}
	// A step moves the clock 2 s and gives 64 nodes a fresh 4 KiB value
	// each, so the loopback buffers (a few MB) fill within a second.
	rng, raw, seq := rand.New(rand.NewSource(1)), make([]byte, 2048), uint64(0)
	step := func() {
		seq++
		for i := 0; i < 64; i++ {
			rng.Read(raw)
			f := transmit.Frame{Node: fmt.Sprintf("n%02d", i), Seq: seq, Kind: transmit.FrameDelta,
				Values: []consolidate.Value{consolidate.TextValue("blob", consolidate.Dynamic, hex.EncodeToString(raw))}}
			if seq == 1 {
				f.Kind = transmit.FrameSnapshot
			}
			d.Server().HandleFrame(f) //nolint:errcheck // in sequence
		}
		clk.Advance(2 * time.Second)
	}
	sig, done := make(chan os.Signal, 1), make(chan error, 1)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	go func() { done <- d.Drive(tick.C, sig, step) }()

	for deadline := time.Now().Add(20 * time.Second); accepted() < 2 || saves.n.Load() == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after 20 s: %d sessions dialed, %d minute saves; want a redial and a save", accepted(), saves.n.Load())
		}
	}
	before := saves.n.Load()
	sig <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stop did not return in 10 s")
	}
	if saves.n.Load() == before {
		t.Fatal("stop did not save")
	}
}

// TestSimNodesDaemonCloneJob drives a daemon hosting a simulated cluster
// (cwxd -sim-nodes) as cwxd does. A clone asked for over the control port
// is answered at once, runs on the daemon's clock while the driver steps
// it, and shows in "clone status" once done. Of four clones asked for at
// once, one starts and three are refused, the cluster's master being
// taken; the daemon stops with that job still running and none of its
// goroutines left behind.
func TestSimNodesDaemonCloneJob(t *testing.T) {
	t.Cleanup(leakcheck.Goroutines(t))
	d, stop := runDaemon(t, DaemonConfig{SimNodes: 4, CtlAddr: "127.0.0.1:0", Cluster: "simd"})
	cl, err := DialCtl(d.ls[1].Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ask := func(req string) string {
		t.Helper()
		cl.conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a loopback socket
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatalf("%q: %v", req, err)
		}
		return resp
	}
	if resp := ask("clone lnxi-nfs@2.1 node001"); resp != "OK job 1: cloning lnxi-nfs@2.1 to 1 node(s)" {
		t.Fatalf("clone: %q", resp)
	}
	start := time.Now()
	for resp := ask("clone status"); !strings.HasPrefix(resp, "OK\njob 1: cloned lnxi-nfs@2.1 to 1 node(s) in "); resp = ask("clone status") {
		if time.Since(start) > time.Minute {
			t.Fatalf("clone status a minute on: %q", resp)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cl.Close()

	answers := make(chan string, 4)
	for i := range 4 {
		go func() { answers <- d.Server().HandleCtl(fmt.Sprintf("clone lnxi-nfs@2.1 node%03d", i)) }()
	}
	started := 0
	for range 4 {
		switch resp := <-answers; {
		case resp == "OK job 2: cloning lnxi-nfs@2.1 to 1 node(s)":
			started++
		case resp != "ERR core: master is running a clone job":
			t.Fatalf("concurrent clone: %q", resp)
		}
	}
	if started != 1 {
		t.Fatalf("%d of four concurrent clones started, want 1", started)
	}
	stop()
}
