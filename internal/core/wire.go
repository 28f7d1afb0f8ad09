package core

import (
	"strings"
	"sync"

	"clusterworx/internal/flight"
	"clusterworx/internal/transmit"
)

// This file is the session layer of the v2 wire negotiation (see
// internal/transmit/framev2.go for the format): wireClient rides inside
// the agent-side transports (AgentConn over TCP, the simnet SendFrame
// closures), wireServer inside the server-side receive loops. Both the
// real socket path and the simulated fabric share these, so the
// fault-injection harness exercises the exact state machine production
// runs.
//
// The protocol choice is per-session and monotone: every v1 frame offers
// "w=3" (transmit.WireV2, an ignorable header option — old servers skip
// it); a v2-capable server answers each offer with "!wire 3" (an unknown
// control payload — old agents ignore it); the client switches on the
// first answer naming exactly its own version and speaks v2 for the rest
// of the session. Either side being old — or built with a different
// binary grammar — leaves the session on v1 with zero extra round trips.

// wireClient is one agent connection's negotiation state and v2 encoder.
// marshal runs on the agent's clock goroutine; control on the
// transport's receive goroutine — hence the mutex.
type wireClient struct {
	mu    sync.Mutex //cwx:lockrank wire 8
	offer bool       // still offering v2 (enabled by config, not yet switched)
	v2    bool
	enc   *transmit.EncoderV2
	buf   []byte // marshal scratch
	sym   flight.Sym
}

// newWireClient builds the session state. offerV2 false keeps the session
// on the v1 text protocol, as an agent built before v2 would (the
// simulator's SimConfig.WireV1 models such peers). node may be empty
// for transports that learn it from the first frame (TCP dial).
func newWireClient(node string, offerV2 bool) *wireClient {
	c := &wireClient{offer: offerV2}
	if node != "" {
		c.sym = fjournal.Sym(node)
	}
	return c
}

// marshal renders f in the session's negotiated wire version into an
// internal scratch buffer, valid until the next call. Check the payload
// with transmit.IsV2Payload to pick the raw or deflate write path.
func (c *wireClient) marshal(f transmit.Frame) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sym == 0 {
		c.sym = fjournal.Sym(f.Node)
	}
	if c.v2 {
		c.buf = c.enc.Encode(c.buf[:0], f)
	} else {
		if c.offer {
			f.WireOffer = transmit.WireV2
		}
		c.buf = transmit.MarshalFrame(c.buf[:0], f)
	}
	return c.buf
}

// V2 reports whether the session switched to the binary v2 format.
func (c *wireClient) V2() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v2
}

// sendFailed tells the encoder the receiver may not have seen the last
// frame: the next one must carry a chain reset so it decodes regardless.
func (c *wireClient) sendFailed() {
	c.mu.Lock()
	if c.v2 {
		c.enc.Rebase()
	}
	c.mu.Unlock()
}

// control dispatches one server→agent control payload: version answers,
// dictionary acks, and dictionary resets are consumed here; resync
// reports whether the payload was a resync request the agent loop must
// act on. nowNs timestamps the journal records (0 when the transport has
// no clock, like the TCP reader goroutine).
func (c *wireClient) control(payload []byte, nowNs int64) (resync bool) {
	if _, ok := transmit.ParseResync(payload); ok {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case transmit.IsWireReset(payload):
		if c.v2 {
			c.enc.ResetTable()
			fjournal.Append(int(c.sym), flight.Entry{Kind: flight.KindWireReset, Node: c.sym, TimeNs: nowNs})
		}
	default:
		if ver, ok := transmit.ParseWireAnswer(payload); ok {
			// Switch only onto a version we actually speak; an answer
			// naming a version we do not know leaves the session on v1
			// (the same fallback rule the server applies to offers).
			if c.offer && !c.v2 && ver == transmit.WireV2 {
				c.v2 = true
				c.offer = false
				if c.enc == nil {
					c.enc = transmit.NewEncoderV2()
				}
				fjournal.Append(int(c.sym), flight.Entry{Kind: flight.KindWireUpgrade, Node: c.sym, TimeNs: nowNs, A: int64(ver)})
			}
		} else if n, ok := transmit.ParseDictAck(payload); ok {
			if c.v2 {
				c.enc.Ack(n)
			}
		}
	}
	return false
}

// wireServer is one agent session's server-side receive state: the v2
// decoder (lazily built on the first v2 payload) plus the negotiation
// back-channel. Not safe for concurrent use — one per TCP connection or
// per datagram source.
type wireServer struct {
	s        *Server
	dec      *transmit.DecoderV2
	ctl      []byte // control marshal scratch
	answered bool   // journal the upgrade answer once, re-send it per offer

	// Batch uplink ingest state (federation: this server as the parent
	// side of a child tier's uplink). The emit closure is bound once so
	// the steady-state decode path allocates nothing.
	bdec   *transmit.BatchDecoderV2
	bemit  func(transmit.Frame)
	bnodes int // sub-frames in the current batch
	braw   int // of those, raw (non-aggregate) nodes
}

// handle processes one arriving frame payload in either wire version:
// decode, ingest through the sequenced machinery, and emit whatever
// control traffic the session owes (version answers, dict acks and
// resets, resync requests). send ships a control payload back to the
// agent; the payload is scratch-backed and must be consumed (or copied)
// synchronously. fatal reports a protocol violation after which the
// transport should drop the session, exactly as v1 readers always did
// with unparseable frames.
func (ws *wireServer) handle(payload []byte, send func([]byte)) (fatal bool) {
	if transmit.IsV2BatchPayload(payload) {
		// Checked before the single-frame v2 path: a batch payload is a
		// v2 payload with an extra flag bit the single decoder rejects.
		return ws.handleBatch(payload, send)
	}
	var f transmit.Frame
	if transmit.IsV2Payload(payload) {
		if ws.dec == nil {
			ws.dec = transmit.NewDecoderV2()
		}
		// A chain break (ErrV2Desync) still yields the header: its seq
		// feeds HandleFrame below, so the gap→diverge→resync flow runs
		// unchanged and the healing snapshot (a chain-reset frame) fixes
		// both layers at once.
		var err error
		f, err = ws.dec.Decode(payload)
		if fatal = ws.reply(err, ws.dec, send); fatal || err == transmit.ErrV2NeedReset {
			return fatal
		}
	} else {
		var err error
		f, err = transmit.ParseFrame(payload)
		if err != nil {
			return true
		}
		if f.WireOffer >= transmit.WireV2 {
			// Answer every offer (not just the first): on a lossy fabric
			// a dropped answer then costs one frame interval, not the
			// upgrade. The client stops offering once switched.
			if !ws.answered {
				ws.answered = true
				fjournal.Append(0, flight.Entry{Kind: flight.KindWireUpgrade, Node: fjournal.Sym(f.Node), TimeNs: int64(ws.s.now()), A: transmit.WireV2})
			}
			ws.ctl = transmit.MarshalWireAnswer(ws.ctl[:0], transmit.WireV2)
			send(ws.ctl)
		}
	}
	if err := ws.s.HandleFrame(f); err == ErrResyncNeeded {
		ws.ctl = transmit.MarshalResync(ws.ctl[:0], f.Node)
		send(ws.ctl)
	}
	return false
}

// initBatch builds the lazy batch-ingest state (kept out of the hot
// decode path so its one-time allocations never land there).
func (ws *wireServer) initBatch() {
	ws.bdec = transmit.NewBatchDecoderV2()
	ws.bemit = func(f transmit.Frame) {
		ws.bnodes++
		if strings.IndexByte(f.Node, '/') < 0 {
			ws.braw++
		}
		// Sub-frames are unsequenced (Seq 0 — continuity is link-level),
		// so HandleFrame never requests a per-node resync here.
		ws.s.HandleFrame(f) //nolint:errcheck
	}
}

// handleBatch ingests one uplink batch frame from a child tier. The
// all-or-nothing decode contract keeps recovery simple: a chain break
// emits nothing and the "!uresync" answer makes the child snap-all, so
// partial batches never need unwinding.
//
//cwx:hotpath
func (ws *wireServer) handleBatch(payload []byte, send func([]byte)) (fatal bool) {
	if ws.bdec == nil {
		ws.initBatch() //cwx:allow staticalloc -- inlined one-time session setup (decoder + emit closure); every later frame takes the non-nil path
	}
	ws.bnodes, ws.braw = 0, 0
	_, err := ws.bdec.Decode(payload, ws.bemit)
	switch err {
	case nil:
		ws.s.upIn.frames.Add(1)
		ws.s.upIn.nodes.Add(int64(ws.bnodes))
		ws.s.upIn.rawNodes.Add(int64(ws.braw))
		mUplinkInFrames.Inc()
		mUplinkInNodes.Add(int64(ws.bnodes))
	case transmit.ErrV2Desync:
		// A lost batch broke the link chain; nothing was emitted. The
		// "!uresync" answer makes the child rebase and forward full state
		// for every node, healing all suppressed deltas in one round trip.
		ws.s.upIn.desyncs.Add(1)
		mUplinkInDesyncs.Inc()
		fjournal.Append(0, flight.Entry{Kind: flight.KindUplinkResync, TimeNs: int64(ws.s.now())})
		ws.ctl = transmit.MarshalUplinkResync(ws.ctl[:0])
		send(ws.ctl)
	case transmit.ErrV2NeedReset:
		// The child's dictionary references entries this (restarted)
		// server never saw: reply asks for a full table resend.
		ws.s.upIn.resets.Add(1)
	}
	return ws.reply(err, ws.bdec, send)
}

// reply sends the dictionary control traffic a v2 decode of either frame
// family owes its sender: "!wreset" when the dictionaries diverged, else
// the "!wack" for a tail the frame carried. fatal reports corruption —
// any error that is not one of the two protocol states.
//
//cwx:hotpath
func (ws *wireServer) reply(err error, dec interface{ PendingAck() (int, bool) }, send func([]byte)) (fatal bool) {
	switch err {
	case nil, transmit.ErrV2Desync:
	case transmit.ErrV2NeedReset:
		fjournal.Append(0, flight.Entry{Kind: flight.KindWireReset, TimeNs: int64(ws.s.now())})
		ws.ctl = transmit.MarshalWireReset(ws.ctl[:0])
		send(ws.ctl)
		return false
	default:
		return true
	}
	if n, ok := dec.PendingAck(); ok {
		ws.ctl = transmit.MarshalDictAck(ws.ctl[:0], n)
		send(ws.ctl)
	}
	return false
}
