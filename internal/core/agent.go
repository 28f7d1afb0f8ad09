package core

import (
	"errors"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/consolidate"
	"clusterworx/internal/flight"
	"clusterworx/internal/monitor"
	"clusterworx/internal/node"
	"clusterworx/internal/telemetry"
	"clusterworx/internal/transmit"
)

// FrameTransport ships one sequenced wire frame from an agent to the
// server — the loss-tolerant §5.3.3 protocol, and the agent's only
// output. f.Values is backed by the consolidator's reusable scratch
// buffer (see Consolidator.Delta) and is only valid for the duration of
// the call: implementations must marshal or deliver it synchronously, and
// must copy it before retaining it or handing it to another goroutine
// (e.g. an asynchronous send queue).
type FrameTransport func(f transmit.Frame) error

// AgentConfig configures a node agent.
type AgentConfig struct {
	Node *node.Node
	// Period is the consolidation tick (default one second; the paper's
	// pipeline benchmarks sample far faster, but one hertz is the
	// practical monitoring default).
	Period time.Duration
	// Heartbeat forces a transmission even with no changes, so the server
	// can distinguish "idle node" from "dead node" (default 5 s).
	Heartbeat time.Duration
	// Plugins is the optional administrator plug-in set.
	Plugins *monitor.PluginSet
	// SendFrame delivers sequenced frames: per-frame sequence numbers,
	// full-snapshot resyncs on request (RequestResync), and a periodic
	// anti-entropy snapshot refresh. Nil runs the agent without
	// transmitting (gathering and consolidation only).
	SendFrame FrameTransport
	// AntiEntropy is the period of the unconditional full-snapshot
	// refresh that heals server-side divergence even when every resync
	// request is lost in flight (default 60 s; negative disables).
	AntiEntropy time.Duration
}

// Agent is the per-node monitoring daemon: gathering + consolidation +
// transmission, driven by the virtual clock. The agent only runs while the
// node's OS runs — when the node dies, so does its agent, which is exactly
// how the server notices.
//
// Failed transmissions do not lose data: the change set is banked in a
// pending buffer and merged into the next attempt, which is delayed by a
// jittered exponential backoff so a down server is not hammered once per
// period by the whole fleet.
type Agent struct {
	cfg     AgentConfig
	clk     *clock.Clock
	cons    *consolidate.Consolidator
	set     *monitor.Set
	timer   *clock.Timer
	stopped bool

	lastSent time.Duration
	sendErrs int
	sent     int

	// Loss-tolerant protocol state. seq only advances on successful
	// hand-off, so an erroring transport never burns sequence numbers and
	// the retransmitted union arrives in order. needResync is atomic
	// because a resync request may arrive from a network reader goroutine
	// while the clock goroutine ticks.
	seq          uint64
	needResync   atomic.Bool
	lastSnap     time.Duration
	fails        int           // consecutive send failures
	nextTryAt    time.Duration // virtual-time gate while backing off
	rng          *rand.Rand
	pending      map[string]consolidate.Value // values awaiting retransmit
	pendingNames []string                     // merge scratch: sorted names
	pendingBuf   []consolidate.Value          // merge scratch: combined set
	retransmits  int
	resyncsSent  int

	// Causal tracing state (internal/flight). ticks counts agent periods;
	// together with salt it drives the deterministic 1-in-N trace sampling
	// decision. traceID/traceNs are the pending trace context: minted on a
	// sampled tick, carried through banking and backoff, stamped onto the
	// frame, and cleared when the send succeeds — so a trace born on a
	// tick that banked still covers the eventual delivery.
	ticks   uint64
	salt    uint32
	fsym    flight.Sym
	traceID uint64
	traceNs int64
}

// NewAgent builds and starts an agent on the node's clock.
func NewAgent(clk *clock.Clock, cfg AgentConfig) (*Agent, error) {
	if cfg.Period <= 0 {
		cfg.Period = time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 5 * time.Second
	}
	if cfg.AntiEntropy == 0 {
		cfg.AntiEntropy = 60 * time.Second
	}
	n := cfg.Node
	// The backoff jitter is seeded by a hash of the node name, so a fleet
	// that fails together still spreads its retries.
	var retrySeed int64
	for i := 0; i < len(n.Name()); i++ {
		retrySeed = retrySeed*131 + int64(n.Name()[i])
	}
	set, err := monitor.NewSet(monitor.Config{
		FS:       n.FS(),
		Hostname: n.Name(),
		Now:      clk.Now,
		Probes:   n,
		Echo:     n.Reachable,
		Plugins:  cfg.Plugins,
	})
	if err != nil {
		return nil, err
	}
	cons := consolidate.New()
	if err := set.Install(cons); err != nil {
		set.Close()
		return nil, err
	}
	a := &Agent{cfg: cfg, clk: clk, cons: cons, set: set,
		rng:  rand.New(rand.NewSource(retrySeed)),
		salt: flight.Salt(n.Name()),
		fsym: fjournal.Sym(n.Name())}
	a.timer = clk.AfterFunc(cfg.Period, a.tick)
	return a, nil
}

// Consolidator exposes the agent's consolidation stage (for stats).
func (a *Agent) Consolidator() *consolidate.Consolidator { return a.cons }

// SendErrors returns the number of failed transmissions.
func (a *Agent) SendErrors() int { return a.sendErrs }

// Transmissions returns the number of change sets shipped.
func (a *Agent) Transmissions() int { return a.sent }

// Retransmits returns the number of sends that carried previously failed
// (banked) change sets.
func (a *Agent) Retransmits() int { return a.retransmits }

// ResyncsSent returns the number of full-snapshot frames shipped
// (requested resyncs plus anti-entropy refreshes).
func (a *Agent) ResyncsSent() int { return a.resyncsSent }

// Seq returns the last successfully handed-off sequence number.
func (a *Agent) Seq() uint64 { return a.seq }

// PendingRetransmit returns the number of values banked for retransmit.
func (a *Agent) PendingRetransmit() int { return len(a.pending) }

// RequestResync asks the agent to ship a full snapshot on its next tick.
// The server sends this (through the transport's back-channel) when it
// detects a sequence gap. Safe to call from any goroutine.
func (a *Agent) RequestResync() {
	a.needResync.Store(true)
	// Journal the arrival of the request itself: paired with the server's
	// resync-sent record it shows whether the back-channel survived.
	fjournal.Append(int(a.salt), flight.Entry{Kind: flight.KindResyncRecv, Node: a.fsym, TimeNs: int64(a.clk.Now())})
}

// Stop halts the agent loop and releases gatherer files.
func (a *Agent) Stop() {
	if a.stopped {
		return
	}
	a.stopped = true
	if a.timer != nil {
		a.timer.Stop()
	}
	a.set.Close() //nolint:errcheck // shutdown path
}

// tick is one agent period: consolidate, then transmit changes (or a
// heartbeat). The agent process only exists while the OS runs.
func (a *Agent) tick() {
	if a.stopped {
		return
	}
	a.timer = a.clk.AfterFunc(a.cfg.Period, a.tick)
	if a.cfg.Node.State() != node.Up {
		return // dead agent: no gathering, no transmission
	}
	on := telemetry.On()
	a.cons.Tick()
	now := a.clk.Now()
	delta := a.cons.Delta()
	// Trace sampling happens at gather time: a sampled tick mints the
	// trace id that every downstream hop — including the server side of
	// the wire — will journal under.
	a.ticks++
	if id := flight.NextTrace(a.salt, a.ticks); id != 0 {
		a.traceID, a.traceNs = id, int64(now)
		// The agent-local hops of the sampled tick. Durations are zero
		// when telemetry is off; the hops still anchor the span tree.
		var gather, cons time.Duration
		var collected int
		if on {
			gather, cons, collected = a.cons.TickTelemetry()
		}
		fjournal.Append(int(a.salt), flight.Entry{Kind: flight.KindStage, Stage: flight.StageGather, Node: a.fsym, Trace: a.traceID, TimeNs: int64(now), A: int64(gather), B: int64(collected)})
		fjournal.Append(int(a.salt), flight.Entry{Kind: flight.KindStage, Stage: flight.StageConsolidate, Node: a.fsym, Trace: a.traceID, TimeNs: int64(now), A: int64(cons), B: int64(len(delta))})
	}
	if a.cfg.SendFrame == nil {
		return
	}
	// Backoff gate: while waiting out a failed send, bank this tick's
	// changes so the eventual retransmit carries them too.
	if a.fails > 0 && now < a.nextTryAt {
		a.bank(delta)
		if len(delta) > 0 {
			fjournal.Append(int(a.salt), flight.Entry{Kind: flight.KindBank, Node: a.fsym, Trace: a.traceID, TimeNs: int64(now), A: int64(len(delta)), B: int64(a.fails)})
		}
		return
	}
	resyncRequested := a.needResync.Load()
	resync := resyncRequested ||
		(a.cfg.AntiEntropy > 0 && now-a.lastSnap >= a.cfg.AntiEntropy)
	retrans := len(a.pending) > 0
	if len(delta) == 0 && !resync && !retrans && now-a.lastSent < a.cfg.Heartbeat {
		return
	}
	values := delta
	kind := transmit.FrameDelta
	switch {
	case resync:
		// A snapshot is a superset of both the delta and anything banked,
		// so it heals every form of divergence at once. The delta was
		// still consumed above: its changes are in the snapshot.
		values = a.cons.Snapshot()
		kind = transmit.FrameSnapshot
	case retrans:
		values = a.mergedPending(delta)
	}
	// Transmit timing covers delivery end to end: over the wire that is
	// marshal + compress + send; with the in-process transport it also
	// includes the server's synchronous ingest. Only a traced frame's
	// transmit hop is journaled, so only a traced send is timed.
	timed := on && a.traceID != 0
	var t0 time.Time
	if timed {
		t0 = time.Now() //cwx:allow clockdet -- transmit-latency telemetry measures real delivery cost
	}
	err := a.cfg.SendFrame(transmit.Frame{
		Node: a.cfg.Node.Name(), Seq: a.seq + 1, Kind: kind, Values: values,
		TraceID: a.traceID, TraceNs: a.traceNs, SentNs: int64(now),
	})
	if err != nil {
		a.sendErrs++
		mAgentSendFailures.Inc()
		fjournal.Append(int(a.salt), flight.Entry{Kind: flight.KindSendFail, Node: a.fsym, Trace: a.traceID, TimeNs: int64(now), A: int64(len(values)), B: int64(a.fails + 1)})
		if kind == transmit.FrameSnapshot {
			// The snapshot still owes the server its state; retry as a
			// snapshot (it subsumes the pending set, which stays banked
			// for the case where the resync flag is cleared elsewhere).
			a.needResync.Store(true)
		} else {
			a.bank(values)
		}
		a.fails++
		a.nextTryAt = now + a.backoff()
		return
	}
	var sendDur time.Duration
	if timed {
		sendDur = time.Since(t0) //cwx:allow clockdet -- closes the wall-clock transmit span
	}
	a.seq++
	a.sent++
	a.lastSent = now
	a.fails = 0
	a.nextTryAt = 0
	switch {
	case kind == transmit.FrameSnapshot:
		a.needResync.Store(false)
		a.lastSnap = now
		a.resyncsSent++
		mAgentResyncSnapshots.Inc()
		a.clearPending()
		fjournal.Append(int(a.salt), flight.Entry{Kind: flight.KindResyncSnap, Node: a.fsym, Trace: a.traceID, TimeNs: int64(now), A: int64(len(values)), B: boolToInt64(resyncRequested)})
	case retrans:
		a.retransmits++
		mAgentRetransmits.Inc()
		a.clearPending()
		fjournal.Append(int(a.salt), flight.Entry{Kind: flight.KindRetransmit, Node: a.fsym, Trace: a.traceID, TimeNs: int64(now), A: int64(len(values))})
	}
	if a.traceID != 0 {
		// Close out the sampled frame's transmit hop. With the in-process
		// transport the server's ingest ran inside SendFrame, so its
		// journal records precede this one; sendDur covers them.
		fjournal.Append(int(a.salt), flight.Entry{Kind: flight.KindStage, Stage: flight.StageTransmit, Node: a.fsym, Trace: a.traceID, TimeNs: int64(now), A: int64(sendDur), B: int64(len(values))})
		a.traceID, a.traceNs = 0, 0
	}
}

func boolToInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// bank copies values into the pending-retransmit buffer (newest payload
// wins per name). Only failure and backoff paths pay its allocations; the
// happy path never touches it.
func (a *Agent) bank(values []consolidate.Value) {
	if len(values) == 0 {
		return
	}
	if a.pending == nil {
		a.pending = make(map[string]consolidate.Value, len(values))
	}
	for _, v := range values {
		a.pending[v.Name] = v
	}
}

// mergedPending folds delta into the banked set and returns the union in
// stable name order, reusing the merge scratch buffers.
func (a *Agent) mergedPending(delta []consolidate.Value) []consolidate.Value {
	a.bank(delta)
	names := a.pendingNames[:0]
	for name := range a.pending {
		names = append(names, name)
	}
	sort.Strings(names)
	out := a.pendingBuf[:0]
	for _, name := range names {
		out = append(out, a.pending[name])
	}
	a.pendingNames, a.pendingBuf = names, out
	return out
}

func (a *Agent) clearPending() {
	if len(a.pending) > 0 {
		clear(a.pending)
	}
}

// backoff is the delay before the next attempt after a.fails consecutive
// failures: retryBase doubled per failure, capped at retryMax, with ±25%
// deterministic jitter so a fleet that failed together (a server restart)
// does not retry in lockstep.
func (a *Agent) backoff() time.Duration {
	d := retryBase
	for i := 1; i < a.fails && d < retryMax; i++ {
		d *= 2
	}
	d = min(d, retryMax)
	return time.Duration(float64(d) * (0.75 + 0.5*a.rng.Float64()))
}

// retryBase and retryMax bound the jittered exponential backoff between
// attempts after a failed send.
const (
	retryBase = time.Second
	retryMax  = 30 * time.Second
)

// ErrLinkDown is returned by transports whose local link is down; the
// agent reacts with banking + backoff like any other send failure.
var ErrLinkDown = errors.New("core: local network link down")
