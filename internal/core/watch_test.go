package core

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"clusterworx/internal/leakcheck"
	"clusterworx/internal/serve"
)

// pipeClient wires a CtlClient to an in-process server connection over a
// synchronous net.Pipe: no kernel socket buffering, so a client that
// stops reading exerts immediate backpressure on the push loop — exactly
// the slow-consumer shape the bounded watch queues exist for.
func pipeClient(t *testing.T, s *Server) *CtlClient {
	t.Helper()
	srvConn, cliConn := net.Pipe()
	go func() {
		defer srvConn.Close()
		s.serveCtlConn(srvConn)
	}()
	t.Cleanup(func() { cliConn.Close() })
	return &CtlClient{conn: cliConn, br: bufio.NewReader(cliConn)}
}

// readWatchBlock reads one pushed block with a deadline.
func readWatchBlock(t *testing.T, cl *CtlClient, timeout time.Duration) (kind string, lines []string) {
	t.Helper()
	cl.conn.SetReadDeadline(time.Now().Add(timeout)) //nolint:errcheck // net.Pipe deadlines cannot fail
	block, err := cl.ReadBlock()
	if err != nil {
		t.Fatalf("reading watch block: %v", err)
	}
	kind, _, lines, err = serve.ParseBlock(block)
	if err != nil {
		t.Fatalf("parsing watch block %q: %v", block, err)
	}
	return kind, lines
}

// applyWatchBlock folds one pushed block into the client's view.
func applyWatchBlock(t *testing.T, v *serve.View, kind string, lines []string) {
	t.Helper()
	switch kind {
	case serve.BlockUpdate:
		if err := v.Apply(lines); err != nil {
			t.Fatalf("applying diff: %v", err)
		}
	case serve.BlockResync, serve.BlockRefresh:
		v.SetFull(lines)
	default:
		t.Fatalf("unexpected block kind %q", kind)
	}
}

// TestWatchStatusConverges: a watch client applying change-only diffs
// reconstructs, byte for byte, what a polling client would read — across
// value changes, node additions, and a liveness flip.
func TestWatchStatusConverges(t *testing.T) {
	t.Cleanup(leakcheck.Goroutines(t))
	s, nowNs := planeServer()
	for i := 0; i < 4; i++ {
		planeIngest(s, nodeName(i), float64(i), 50, 20)
	}
	cl := pipeClient(t, s)
	if err := cl.Send("watch status"); err != nil {
		t.Fatal(err)
	}
	kind, lines := readWatchBlock(t, cl, 2*time.Second)
	if kind != "OK" {
		t.Fatalf("initial block kind %q, want OK", kind)
	}
	var v serve.View
	v.SetFull(lines)
	if got, want := v.Render(), strings.Join(appendCtlBody(nil, s.HandleCtl("status")), "\n"); got != want {
		t.Fatalf("initial snapshot diverged:\n%s\nvs\n%s", got, want)
	}

	rounds := []func(){
		func() { planeIngest(s, "node001", 7.25, 40, 60) }, // value change
		func() { planeIngest(s, "node009", 1, 99, 5) },     // node appears
		func() {
			nowNs.Add(int64(DownAfter) + int64(time.Second)) // everyone but node000 falls silent
			planeIngest(s, "node000", 2, 50, 20)
		},
	}
	for ri, mutate := range rounds {
		mutate()
		want := strings.Join(appendCtlBody(nil, s.HandleCtl("status")), "\n")
		deadline := time.Now().Add(5 * time.Second)
		for v.Render() != want {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: watch view never converged:\ngot:\n%s\nwant:\n%s", ri, v.Render(), want)
			}
			kind, lines := readWatchBlock(t, cl, 2*time.Second)
			applyWatchBlock(t, &v, kind, lines)
		}
	}

	// quit ends the stream and releases the subscription.
	if err := cl.Send("quit"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.plane.watchHub().Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("watch subscription leaked after quit")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchSlowConsumerResync: a subscriber that stops draining overflows
// its bounded queue; when it comes back it gets a full RESYNC block and
// its reconstruction matches the polled rendering again.
func TestWatchSlowConsumerResync(t *testing.T) {
	t.Cleanup(leakcheck.Goroutines(t))
	s, _ := planeServer()
	planeIngest(s, "node000", 1, 50, 20)
	cl := pipeClient(t, s)
	if err := cl.Send("watch status"); err != nil {
		t.Fatal(err)
	}
	kind, lines := readWatchBlock(t, cl, 2*time.Second)
	if kind != "OK" {
		t.Fatalf("initial block kind %q", kind)
	}
	var v serve.View
	v.SetFull(lines)

	// Stall: the pipe is synchronous, so the push loop blocks on its
	// first write while further generation bumps pile into the bounded
	// queue and overflow it.
	before := serve.ReadStats()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; serve.ReadStats().WatchOverflows == before.WatchOverflows; i++ {
		if time.Now().After(deadline) {
			t.Fatal("subscriber queue never overflowed")
		}
		planeIngest(s, "node000", float64(i), 50, 20)
		time.Sleep(2 * time.Millisecond) // let the dispatcher handle each wake separately
	}

	// Drain: a RESYNC block must arrive, and after applying it the view
	// matches the polled rendering.
	sawResync := false
	for i := 0; i < SubQueueDrainBlocks; i++ {
		kind, lines := readWatchBlock(t, cl, 2*time.Second)
		applyWatchBlock(t, &v, kind, lines)
		if kind == serve.BlockResync {
			sawResync = true
			break
		}
	}
	if !sawResync {
		t.Fatal("overflowed watcher never received a RESYNC block")
	}
	want := strings.Join(appendCtlBody(nil, s.HandleCtl("status")), "\n")
	for v.Render() != want {
		kind, lines := readWatchBlock(t, cl, 2*time.Second)
		applyWatchBlock(t, &v, kind, lines)
	}
	if after := serve.ReadStats(); after.WatchResyncs == before.WatchResyncs {
		t.Fatal("resync delivery not counted")
	}
}

// SubQueueDrainBlocks bounds the drain loop above: the stalled write plus
// a full queue's worth of pushes, with headroom.
const SubQueueDrainBlocks = serve.SubQueue + 4

// TestWatchRejectsBadRequests: non-watchable verbs and bad arity are
// refused with an ERR block and the connection keeps serving requests.
func TestWatchRejectsBadRequests(t *testing.T) {
	t.Cleanup(leakcheck.Goroutines(t))
	s, _ := planeServer()
	planeIngest(s, "node000", 1, 50, 20)
	cl := pipeClient(t, s)
	for _, req := range []string{"watch", "watch ping", "watch values"} {
		if err := cl.Send(req); err != nil {
			t.Fatal(err)
		}
		cl.conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // net.Pipe deadlines cannot fail
		resp, err := cl.ReadBlock()
		if err != nil {
			t.Fatalf("%q: %v", req, err)
		}
		if !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("%q accepted: %s", req, resp)
		}
	}
	// The connection is still in request/response mode.
	cl.conn.SetReadDeadline(time.Time{}) //nolint:errcheck // net.Pipe deadlines cannot fail
	if resp, err := cl.Do("ping"); err != nil || resp != "OK pong" {
		t.Fatalf("connection unusable after rejected watch: %q %v", resp, err)
	}
}

func nodeName(i int) string {
	return [...]string{"node000", "node001", "node002", "node003"}[i]
}

// TestWatchIdleWakeAllocs: the hub wakes every subscription for every
// applied frame, and most frames leave a given view alone — a root with
// one watcher of one node's values sees a thousand wakes a second for
// other nodes. Such a wake must cost the whole push path nothing: the
// signal's waiter, the dispatcher, the subscription's queue, the gate hit
// and the watch stream's look at it allocate 0 times and push 0 blocks.
func TestWatchIdleWakeAllocs(t *testing.T) {
	t.Cleanup(leakcheck.Goroutines(t))
	s, _ := planeServer()
	planeIngest(s, "node000", 1, 50, 20)
	other := (shardIndex("node000") + 1) % uint32(len(s.gens)) // a stripe the watched node is not on
	hub := s.plane.watchHub()
	sub := hub.Register()
	defer leakcheck.Returns(t, "the last Unregister", func() { hub.Unregister(sub) })
	ws := watchStream{srv: s, verb: ctlByName["values"], inner: []byte("values node000")}
	ws.start(s.HandleCtl(string(ws.inner)))
	stop := make(chan struct{})
	before := serve.ReadStats().WatchPushes
	wakes := 0
	allocs := testing.AllocsPerRun(1000, func() {
		wakes++
		s.bumpIngest(other, time.Duration(wakes))
		gen, lost, ok := sub.Next(stop)
		if !ok || lost {
			t.Fatalf("wake %d: Next = (%d, lost %v, ok %v)", wakes, gen, lost, ok)
		}
		if block, alive := ws.next(gen, lost); len(block) != 0 || !alive {
			t.Fatalf("wake %d moved a view it did not touch: %q", wakes, block)
		}
	})
	if pushes := serve.ReadStats().WatchPushes - before; allocs != 0 || pushes != 0 {
		t.Fatalf("%d idle wakes cost %.0f allocations each and %d pushes, want 0 and 0", wakes, allocs, pushes)
	}
	// The stream is still live: a change to the watched node is pushed.
	planeIngest(s, "node000", 2, 50, 20)
	for {
		gen, lost, _ := sub.Next(stop)
		if block, _ := ws.next(gen, lost); len(block) != 0 {
			if !bytes.HasPrefix(block, []byte(serve.BlockUpdate)) || !bytes.Contains(block, []byte("\n=load.1")) {
				t.Fatalf("pushed block %q, want an UPDATE of load.1", block)
			}
			break
		}
	}
}
