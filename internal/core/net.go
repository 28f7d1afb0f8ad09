package core

import (
	"net"
	"sync"
	"time"

	"clusterworx/internal/transmit"
)

// This file carries agent traffic over real TCP for the daemons: agents
// dial the server's agent port and stream framed change sets (the
// §5.3.3 transmission stage on an actual socket) — deflate-compressed
// v1 text until the session negotiates the v2 binary format (wire.go),
// which ships raw since it is already dictionary/XOR-coded. The server
// writes control frames (resync requests, wire answers, dict acks) back
// down the same connection.

// ServeAgents accepts agent connections until the listener closes. Each
// frame is decoded and fed to HandleFrame.
func (s *Server) ServeAgents(l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			s.serveAgentConn(conn)
		}()
	}
}

func (s *Server) serveAgentConn(conn net.Conn) {
	r := transmit.NewReader(conn)
	// Control frames are a few bytes; compression would only inflate them.
	w := transmit.NewWriter(conn, false)
	ws := &wireServer{s: s}
	send := func(ctl []byte) {
		if w.WriteFrame(ctl) != nil {
			conn.Close() // unblocks ReadFrame below; session ends
		}
	}
	for {
		frame, err := r.ReadFrame()
		if err != nil {
			return // io.EOF on clean agent shutdown, anything else likewise ends the session
		}
		if ws.handle(frame, send) {
			return // protocol violation: drop the connection
		}
	}
}

// AgentConn is a server connection from the agent side.
type AgentConn struct {
	conn net.Conn
	w    *transmit.Writer
	ws   *wireClient
}

// DialAgent connects an agent to the server's agent port with wire
// compression enabled and the v2 wire upgrade on offer.
func DialAgent(addr string, timeout time.Duration) (*AgentConn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &AgentConn{conn: conn, w: transmit.NewWriter(conn, true), ws: newWireClient("", true)}, nil
}

// WireV2 reports whether the session has negotiated the binary v2 wire
// format.
func (a *AgentConn) WireV2() bool { return a.ws.V2() }

// SendFrame ships one sequenced frame — wire AgentConfig.SendFrame to it
// for the loss-tolerant protocol, and install OnResync so the server's
// gap detection (and the wire negotiation) can reach the agent.
func (a *AgentConn) SendFrame(f transmit.Frame) error {
	payload := a.ws.marshal(f)
	var err error
	if transmit.IsV2Payload(payload) {
		err = a.w.WriteFrameRaw(payload)
	} else {
		err = a.w.WriteFrame(payload)
	}
	if err != nil {
		a.ws.sendFailed()
	}
	return err
}

// OnResync starts the connection's read side: a goroutine decoding
// server control frames and invoking fn for each resync request (fn must
// be safe to call from that goroutine — Agent.RequestResync is). Wire
// negotiation answers and dictionary acks are consumed here too, so
// install it even on sessions that never expect a resync. Call at most
// once; the goroutine exits when the connection closes.
func (a *AgentConn) OnResync(fn func(node string)) {
	go func() {
		r := transmit.NewReader(a.conn)
		for {
			frame, err := r.ReadFrame()
			if err != nil {
				return
			}
			if a.ws.control(frame, 0) {
				if node, ok := transmit.ParseResync(frame); ok {
					fn(node)
				}
			}
		}
	}()
}

// Stats returns raw and on-wire byte counts (the compression win).
func (a *AgentConn) Stats() (raw, wire int64) { return a.w.RawBytes(), a.w.WireBytes() }

// Close ends the connection.
func (a *AgentConn) Close() error { return a.conn.Close() }

// UplinkClientConfig configures a TCP federation session (cwxd -uplink).
type UplinkClientConfig struct {
	// Addr is the parent server's agent-port address. Uplink batches ride
	// the same port as agent frames; the parent routes on the payload.
	Addr string
	// Period is the flush cadence (0 = 1s).
	Period time.Duration
	// AntiEntropy forces periodic snap-all flushes (0 disables).
	AntiEntropy time.Duration
	// Rollup, if set, is Ticked immediately before every flush so the
	// tier's subtree aggregate rides the same uplink batch as the raw
	// deltas it summarizes (cwxd -rollup; a simulated tree orders its virtual
	// timer chains the same way).
	Rollup *Rollup
}

// UplinkClient maintains a child server's federation session to a parent
// over TCP: it dials the parent's agent port, attaches an Uplink to the
// server, flushes it every period, feeds parent control traffic back,
// and redials — with a session restart, so negotiation and full state
// re-establish — whenever the connection drops. The connection fields
// are confined to the run goroutine (dial, Flush, and teardown all
// execute there), so they need no lock; the Uplink's own session lock
// serializes Flush against the reader's HandleControl calls.
type UplinkClient struct {
	s   *Server
	u   *Uplink
	cfg UplinkClientConfig

	conn net.Conn
	w    *transmit.Writer

	stop chan struct{}
	done chan struct{}
}

// errUplinkDown is returned by the Send hook between connections; the
// uplink re-marks the affected nodes and the next flush retries.
var errUplinkDown = net.ErrClosed

// StartUplink attaches a federation uplink to s and starts the forwarder
// goroutine. Stop it with Close.
func StartUplink(s *Server, cfg UplinkClientConfig) *UplinkClient {
	if cfg.Period <= 0 {
		cfg.Period = time.Second
	}
	c := &UplinkClient{
		s:    s,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	c.u = NewUplink(s, UplinkConfig{
		Send:        c.send,
		AntiEntropy: cfg.AntiEntropy,
	})
	s.SetUplink(c.u)
	go c.run()
	return c
}

// Uplink exposes the session for stats.
func (c *UplinkClient) Uplink() *Uplink { return c.u }

// send ships one payload on the current connection. Batch and v2 frames
// are already dictionary/XOR-coded, so they skip wire compression just
// as agent v2 traffic does.
func (c *UplinkClient) send(payload []byte) error {
	if c.w == nil {
		return errUplinkDown
	}
	if transmit.IsV2Payload(payload) {
		return c.w.WriteFrameRaw(payload)
	}
	return c.w.WriteFrame(payload)
}

// run is the forwarder loop: one Flush per period, dialing (or redialing
// after a send failure) at most once per period so a dead parent costs
// one connect attempt per second, not a hot loop.
func (c *UplinkClient) run() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.Period) //cwx:allow clockdet -- daemon-only transport (cwxd -uplink): flush cadence is real wall time; simulations drive uplinks from the simulator's virtual timer chains instead
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			c.drop()
			return
		case <-t.C:
			if c.cfg.Rollup != nil {
				c.cfg.Rollup.Tick()
			}
			if c.conn == nil && !c.dial() {
				continue
			}
			if _, err := c.u.Flush(int64(c.s.now())); err != nil {
				c.drop()
			}
		}
	}
}

// dial opens a fresh connection and restarts the uplink session: the
// parent's receive state is per-connection, so negotiation and the full
// snapshot must re-run from scratch.
func (c *UplinkClient) dial() bool {
	conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.Period)
	if err != nil {
		return false
	}
	c.conn = conn
	c.w = transmit.NewWriter(conn, true)
	c.u.Restart()
	u, s := c.u, c.s
	// Per-connection control reader; exits when the connection closes
	// (locally via drop, or remotely when the parent goes away — the next
	// flush's send error then triggers the redial).
	go func() {
		r := transmit.NewReader(conn)
		for {
			ctl, err := r.ReadFrame()
			if err != nil {
				return
			}
			u.HandleControl(ctl, int64(s.now()))
		}
	}()
	return true
}

// drop closes the current connection (unblocking its reader goroutine).
func (c *UplinkClient) drop() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.w = nil, nil
	}
}

// Close stops the forwarder, waits for it to exit, and detaches the
// uplink from the server.
func (c *UplinkClient) Close() {
	close(c.stop)
	<-c.done
	c.s.SetUplink(nil)
}

// RollupRunner drives a tier's Rollup on a wall-clock cadence for
// servers with no uplink to piggyback on (the root of a daemon tree, or
// a standalone server that wants subtree aggregates). Uplinked tiers
// should instead set UplinkClientConfig.Rollup so the aggregate rides
// the same flush as the deltas it summarizes.
type RollupRunner struct {
	stop chan struct{}
	done chan struct{}
}

// StartRollup ticks r every period (0 = 1s). Stop it with Close.
func StartRollup(r *Rollup, period time.Duration) *RollupRunner {
	if period <= 0 {
		period = time.Second
	}
	rr := &RollupRunner{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rr.done)
		t := time.NewTicker(period) //cwx:allow clockdet -- daemon-only (cwxd -rollup without -uplink): aggregate cadence is real wall time; simulations drive rollups from the simulator's virtual timer chains instead
		defer t.Stop()
		for {
			select {
			case <-rr.stop:
				return
			case <-t.C:
				r.Tick()
			}
		}
	}()
	return rr
}

// Close stops the runner and waits for it to exit.
func (rr *RollupRunner) Close() {
	close(rr.stop)
	<-rr.done
}
