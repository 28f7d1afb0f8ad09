package bench

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
)

// These tests run each workload's round logic in process, at 64 nodes and
// for a few rounds, with no cwxd: a byte sink stands in for the agent port
// and the leaf's own plane for the ctl port.

const smokeNodes = 64

// sinkDaemon is a Daemon whose agent port accepts one connection and
// discards what arrives. received waits for that connection to end and
// returns how many bytes it carried.
func sinkDaemon(t *testing.T) (d *Daemon, received func() int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		n, _ := io.Copy(io.Discard, c)
		got.Store(n)
		c.Close()
	}()
	received = func() int64 {
		ln.Close()
		<-done
		return got.Load()
	}
	t.Cleanup(func() { received() })
	return &Daemon{AgentAddr: ln.Addr().String()}, received
}

func TestSmokeFlat(t *testing.T) {
	d, received := sinkDaemon(t)
	relay, err := newBurstRelay()
	if err != nil {
		t.Fatal(err)
	}
	th := &flatThread{relay: relay}
	if th.sess, err = NewAgentSession(relay.addr(), "flat000", 1); err != nil {
		t.Fatal(err)
	}
	if err := relay.connect(d); err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	const rounds = 3
	for r := 0; r < rounds; r++ {
		if err := th.round(tr, r); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	_, wire := th.sess.WireStats()
	if th.sent != wire || d.WireBytes() != wire {
		t.Errorf("relay forwarded %d bytes, counted %d, the session wrote %d", th.sent, d.WireBytes(), wire)
	}
	if th.sess.Frames < rounds*flatTicks/2 || th.sess.Seq() != uint64(th.sess.Frames) {
		t.Errorf("%d frames, seq %d after %d ticks", th.sess.Frames, th.sess.Seq(), rounds*flatTicks)
	}
	// Default anti-entropy: one tick in sixty ships a snapshot.
	if want := int64(rounds * flatTicks / 60); th.sess.Snapshots < want-1 || th.sess.Snapshots > want+1 {
		t.Errorf("%d snapshots in %d ticks, want about %d", th.sess.Snapshots, rounds*flatTicks, want)
	}
	_, _, count := spanTotals(tr.Spans())
	if count["round"] != rounds || count["agent.ticks"] != rounds || count["wire.send"] != rounds {
		t.Errorf("span counts %v", count)
	}
	th.sess.Close()
	relay.close()
	if got := received(); got != wire {
		t.Errorf("the sink received %d of %d bytes", got, wire)
	}
}

// smokeTree is a loaded 64-node tree whose uplink goes nowhere. With nobody
// to answer the wire offer the uplink stays on per-node v1 frames, which
// count node sections just the same.
func smokeTree(t *testing.T, withRollup bool) *tree {
	t.Helper()
	tr := newLeafTree(NewLeaf(nil, withRollup), 1, smokeNodes)
	for _, kind := range []loadKind{loadSnapshot, loadFull, loadNamed} {
		if err := tr.loadSample(kind); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestSmokeFed(t *testing.T) {
	w := &fedWorkload{t: smokeTree(t, true)}
	defer w.close()
	touched := w.opsPerRound()
	if touched != smokeNodes {
		t.Fatalf("a tree smaller than the window is touched whole: %d", touched)
	}
	before := w.t.leaf.Uplink()
	const rounds = 4
	for r := 0; r < rounds; r++ {
		if err := w.touch(r); err != nil {
			t.Fatal(err)
		}
		if err := w.flush(nil, -1, r); err != nil {
			t.Fatal(err)
		}
	}
	after := w.t.leaf.Uplink()
	if got, want := after.Nodes-before.Nodes, int64(rounds*(touched+1)); got != want {
		t.Errorf("%d node sections went up, want %d (touched nodes and the rack aggregate)", got, want)
	}
	if w.idle != 0 {
		t.Errorf("%d idle node sections crossed the uplink", w.idle)
	}
	// A round that touches nothing sends no node. The rack aggregate may
	// still go up: the rollup sums in map order, so the same values can fold
	// to a sum that differs in its last bits.
	w.t.leaf.Step()
	w.t.leaf.RollupTick()
	if sent, err := w.t.leaf.Flush(); err != nil || sent > 1 {
		t.Errorf("an idle flush sent %d node sections (%v)", sent, err)
	}
	want := fmt.Sprintf("%-28s %d", roundMetric, w.t.seq)
	if got := w.t.leaf.Ctl("values " + nodeName(w.t.sentinel)); !strings.Contains(got, want) {
		t.Errorf("the sentinel does not carry the last round counter %d:\n%s", w.t.seq, got)
	}
	if got := w.t.leaf.Ctl("value " + LeafAggregate + " load.1.cnt"); got != fmt.Sprintf("OK %d", smokeNodes) {
		t.Errorf("rack aggregate count: %q", got)
	}
}

// serveLeafCtl answers the ctl protocol on conn from the leaf's plane, as
// cwxd's request loop does.
func serveLeafCtl(conn net.Conn, leaf *Leaf) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		resp := leaf.Ctl(strings.TrimSpace(sc.Text()))
		fmt.Fprintf(w, "%s\n.\n", strings.ReplaceAll(resp, "\n.", "\n.."))
		if w.Flush() != nil {
			return
		}
	}
}

func smokeQuery(t *testing.T, churn bool) *queryWorkload {
	t.Helper()
	w := &queryWorkload{churn: churn, t: smokeTree(t, false)}
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveLeafCtl(server, w.t.leaf)
	}()
	w.ctl = &ctlConn{c: client, sc: newBlockScanner(client)}
	t.Cleanup(func() { w.close(); <-done })
	w.buildScripts()
	return w
}

func TestSmokeQueryHot(t *testing.T) {
	w := smokeQuery(t, false)
	if len(w.scripts) != queryRotation {
		t.Fatalf("%d scripts", len(w.scripts))
	}
	for r := 0; r < 2*queryRotation; r++ {
		if err := w.runScript(w.scripts[r%len(w.scripts)]); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	// A write behind the script's back must be caught as a changed answer.
	if err := w.t.touchSentinel(); err != nil {
		t.Fatal(err)
	}
	var err error
	for r := 0; r < queryRotation && err == nil; r++ {
		err = w.runScript(w.scripts[r])
	}
	if err == nil || !strings.Contains(err.Error(), "changed while nothing was written") {
		t.Errorf("a changed answer went unnoticed: %v", err)
	}
}

func TestSmokeQueryChurn(t *testing.T) {
	w := smokeQuery(t, true)
	for r := 0; r < 5; r++ {
		if err := w.t.touchSentinel(); err != nil {
			t.Fatal(err)
		}
		if err := w.t.flush(); err != nil {
			t.Fatal(err)
		}
		if err := w.runScript(w.scripts[0]); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	// A read that does not see the round's write must fail the round.
	w.t.fresh[0].Num++
	if err := w.runScript(w.scripts[0]); err == nil {
		t.Error("a stale read went unnoticed")
	}
}
