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
func (s *Server) ServeAgents(l net.Listener) error { return serveConns(l, s.serveAgentConn) }

// serveConns serves each connection l accepts until l closes, and then
// ends every one still open: a closed port is a server its peers can no
// longer reach, so they see their sessions drop and redial.
func serveConns(l net.Listener, serve func(net.Conn)) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
	)
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		mu.Lock()
		if err != nil {
			for c := range conns {
				c.Close()
			}
			mu.Unlock()
			return err
		}
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			serve(conn)
			conn.Close()
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
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
	go readControl(a.conn, func(frame []byte) {
		if a.ws.control(frame, 0) {
			if node, ok := transmit.ParseResync(frame); ok {
				fn(node)
			}
		}
	})
}

// Stats returns raw and on-wire byte counts (the compression win).
func (a *AgentConn) Stats() (raw, wire int64) { return a.w.RawBytes(), a.w.WireBytes() }

// Close ends the connection.
func (a *AgentConn) Close() error { return a.conn.Close() }

// readControl hands fn each frame conn carries until it fails or closes.
func readControl(conn net.Conn, fn func([]byte)) {
	r := transmit.NewReader(conn)
	for {
		frame, err := r.ReadFrame()
		if err != nil {
			return
		}
		fn(frame)
	}
}
