package bench

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// burstRelay sits between an agent session and cwxd's agent port so that a
// round's frames reach cwxd in one write. The session writes each frame
// into the relay's socket as a real agent writes it into cwxd's; Forward
// then hands the whole burst over, and cwxd wakes once and decodes it
// without sleeping. Without it cwxd is woken per frame, and the cost of
// those wake-ups (14–22 µs a frame against about 6 µs of program work in
// the prototype) swings with how the two processes happen to interleave.
// Control frames from cwxd pass straight back.
type burstRelay struct {
	ln   net.Listener
	in   net.Conn // from the agent session
	out  net.Conn // to cwxd, counted
	buf  []byte
	done chan struct{}
}

func newBurstRelay() (*burstRelay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &burstRelay{ln: ln, done: make(chan struct{})}, nil
}

func (r *burstRelay) addr() string { return r.ln.Addr().String() }

// connect accepts the session that has dialled the relay and opens the
// onward connection.
func (r *burstRelay) connect(d *Daemon) error {
	in, err := r.ln.Accept()
	if err != nil {
		return err
	}
	r.in = in
	if r.out, err = d.Dial(d.AgentAddr); err != nil {
		return err
	}
	go r.pumpBack()
	return nil
}

func (r *burstRelay) pumpBack() {
	defer close(r.done)
	io.Copy(r.in, r.out) //nolint:errcheck // ends when either side closes
}

// forward moves the n bytes the session has written on to cwxd in one
// write.
func (r *burstRelay) forward(n int64) error {
	if int64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	buf := r.buf[:n]
	if _, err := io.ReadFull(r.in, buf); err != nil {
		return fmt.Errorf("relay read: %w", err)
	}
	if _, err := r.out.Write(buf); err != nil {
		return fmt.Errorf("relay write: %w", err)
	}
	return nil
}

func (r *burstRelay) close() {
	r.ln.Close()
	if r.in != nil {
		r.in.Close()
	}
	if r.out != nil {
		r.out.Close()
		<-r.done
	}
}

// flatThread is one generator thread's agent session and relay.
type flatThread struct {
	sess  *AgentSession
	relay *burstRelay
	sent  int64 // wire bytes already forwarded
	v1    int64 // wire bytes written before the session went binary
	v1n   int64 // frames written before the session went binary
	// frames the agent had produced when tracing began
	tracedFrom int64
	tracing    bool
}

// burst puts the captured frames on the wire and hands them to cwxd.
func (t *flatThread) burst(tr *Tracer, parent int32, r int) error {
	sp := tr.Begin("wire.send", parent, r)
	_, err := t.sess.SendCaptured()
	tr.End(sp)
	if err != nil {
		return fmt.Errorf("send: %w", err)
	}
	_, wire := t.sess.WireStats()
	sp = tr.Begin("relay.forward", parent, r)
	err = t.relay.forward(wire - t.sent)
	tr.End(sp)
	t.sent = wire
	return err
}

func (t *flatThread) round(tr *Tracer, r int) error {
	if tr != nil && !t.tracing {
		t.tracing, t.tracedFrom = true, t.sess.Frames
	}
	root := tr.Begin("round", -1, r)
	defer tr.End(root)
	sp := tr.Begin("agent.ticks", root, r)
	t.sess.Tick(flatTicks)
	tr.End(sp)
	return t.burst(tr, root, r)
}

// flatWorkload is the paper's §5.3 pipeline on a flat cluster: per thread
// one real agent on its own simulated node, gather → monitor → consolidate
// → encode → frame write, and in cwxd decode → ingest → history → events.
// The uplink, the batch codec and the serving plane do nothing.
type flatWorkload struct {
	threads []*flatThread
	ctl     *ctlConn
}

func (w *flatWorkload) daemonFlags() []string { return nil }
func (w *flatWorkload) warmupRounds() int     { return 64 }
func (w *flatWorkload) opsPerRound() int      { return flatTicks * len(w.threads) }

func (w *flatWorkload) setup(e *env) error {
	for i := 0; i < max(1, e.cfg.Threads); i++ {
		relay, err := newBurstRelay()
		if err != nil {
			return err
		}
		t := &flatThread{relay: relay}
		w.threads = append(w.threads, t)
		// One node name per session, so binding a session to its node name
		// (ROADMAP item 3) cannot break the workload.
		name := fmt.Sprintf("flat%03d", i)
		if t.sess, err = NewAgentSession(relay.addr(), name, e.cfg.Seed+int64(i)); err != nil {
			return err
		}
		if err := relay.connect(e.d); err != nil {
			return err
		}
		// The first frame goes out as v1 text offering the upgrade; every
		// measured frame must be binary.
		deadline := time.Now().Add(barrierLimit)
		for !t.sess.WireV2() {
			if time.Now().After(deadline) {
				return errNoV2
			}
			t.sess.Tick(1)
			if err := t.burst(nil, -1, 0); err != nil {
				return err
			}
			t.v1n++
			time.Sleep(time.Millisecond)
		}
		t.v1 = t.sent
	}
	var err error
	w.ctl, err = dialCtl(e.d, false)
	return err
}

func (w *flatWorkload) round(e *env, r int) error {
	if len(w.threads) == 1 {
		return w.threads[0].round(e.tr, r)
	}
	// Threads run their rounds side by side and meet at the end; only one
	// thread is traced.
	errs := make([]error, len(w.threads))
	var wg sync.WaitGroup
	for i, t := range w.threads {
		wg.Add(1)
		go func(i int, t *flatThread) {
			defer wg.Done()
			var tr *Tracer
			if i == 0 {
				tr = e.tr
			}
			errs[i] = t.round(tr, r)
		}(i, t)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// syncLine is one node's row of the ctl sync view.
type syncLine struct {
	seq                      uint64
	state                    string
	gaps, regressions, resyn int64
}

func parseSyncLine(resp, node string) (syncLine, error) {
	var sl syncLine
	for _, line := range strings.Split(resp, "\n") {
		f := strings.Fields(line)
		if len(f) != 7 || f[0] != node {
			continue
		}
		var err error
		if sl.seq, err = strconv.ParseUint(f[1], 10, 64); err != nil {
			return sl, fmt.Errorf("sync seq: %w", err)
		}
		sl.state = f[2]
		sl.gaps, _ = strconv.ParseInt(f[3], 10, 64)
		sl.regressions, _ = strconv.ParseInt(f[4], 10, 64)
		sl.resyn, _ = strconv.ParseInt(f[5], 10, 64)
		return sl, nil
	}
	return sl, fmt.Errorf("no sync row for %s", node)
}

// drain waits until cwxd has applied the last frame of every session. Bursts
// are not acknowledged, so this is the one place the harness polls; it is
// inside the window, so ops_per_s counts only applied ticks.
func (w *flatWorkload) drain(e *env) error {
	deadline := time.Now().Add(barrierLimit)
	for _, t := range w.threads {
		for {
			resp, err := w.ctl.do("sync")
			if err != nil {
				return err
			}
			sl, err := parseSyncLine(string(resp), t.sess.NodeName())
			if err == nil && sl.seq == t.sess.Seq() {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cwxd did not reach seq %d of %s within %s (at %d)", t.sess.Seq(), t.sess.NodeName(), barrierLimit, sl.seq)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	return nil
}

// check: cwxd holds exactly what each agent last sent, and the delta
// protocol saw no gap, regression or resync.
func (w *flatWorkload) check(e *env) error {
	var errs []error
	for _, t := range w.threads {
		name := t.sess.NodeName()
		got, err := CtlDo(e.d.CtlAddr, "values "+name)
		if err != nil {
			return err
		}
		if want := renderValues(t.sess.State()); got != want {
			errs = append(errs, fmt.Errorf("%s: cwxd's values differ from the agent's state:\n got %q\nwant %q", name, got, want))
		}
		resp, err := CtlDo(e.d.CtlAddr, "sync")
		if err != nil {
			return err
		}
		sl, err := parseSyncLine(resp, name)
		if err != nil {
			return err
		}
		if sl.state != "synced" || sl.gaps != 0 || sl.regressions != 0 || sl.resyn != 0 || t.sess.Resyncs() != 0 {
			errs = append(errs, fmt.Errorf("%s: sync row %+v, %d resync requests received", name, sl, t.sess.Resyncs()))
		}
	}
	return errors.Join(errs...)
}

func (w *flatWorkload) close() {
	if w.ctl != nil {
		w.ctl.close()
	}
	for _, t := range w.threads {
		if t.sess != nil {
			t.sess.Close()
		}
		t.relay.close()
	}
}
