package bench

// Every call into the product lives in this file, so a change to the
// product's API breaks the benchmark in one place. The surface is kept to
// entry points ROADMAP item 2 does not plan to delete: the agent, the
// server's frame and ctl handlers, the uplink, the rollup, and the bare
// history store, event engine and gatherers. The v2 codecs, the
// simulators, HandleCtlUncached and the v1 escape hatches are never named.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/consolidate"
	"clusterworx/internal/core"
	"clusterworx/internal/events"
	"clusterworx/internal/gather"
	"clusterworx/internal/history"
	"clusterworx/internal/node"
	"clusterworx/internal/transmit"
)

// Value and Frame are the product's datum and transmission, aliased so the
// generator and the workloads need not import the product.
type (
	Value = consolidate.Value
	Frame = transmit.Frame
)

// Num builds a dynamic numeric value.
func Num(name string, v float64) Value { return consolidate.NumValue(name, consolidate.Dynamic, v) }

// Text builds a static text value.
func Text(name, s string) Value { return consolidate.TextValue(name, consolidate.Static, s) }

// snapshotFrame and deltaFrame build unsequenced frames, as a tier's own
// agents hand them to its server.
func snapshotFrame(nodeName string, vals []Value) Frame {
	return Frame{Node: nodeName, Kind: transmit.FrameSnapshot, Values: vals}
}

func deltaFrame(nodeName string, vals []Value) Frame {
	return Frame{Node: nodeName, Kind: transmit.FrameDelta, Values: vals}
}

const dialTimeout = 2 * time.Second

// agentPeriod is the virtual sampling period of the flat workload's agent,
// cwxagent's default.
const agentPeriod = time.Second

// AgentSession is one real node agent — simulated node, virtual clock,
// gather → monitor → consolidate — on a core.DialAgent session. The agent's
// SendFrame hook only captures, so a round can run its ticks back to back
// and then put the captured frames on the wire in one burst.
type AgentSession struct {
	clk   *clock.Clock
	node  *node.Node
	agent *core.Agent
	conn  *core.AgentConn

	frames  []Frame // captured since the last SendCaptured
	arena   []Value // backing store of the captured frames' values
	resyncs atomic.Int64

	Frames, Snapshots int64 // frames the agent produced, and full snapshots among them
}

// NewAgentSession boots a simulated node at load 0.8 and starts its agent
// with default heartbeat and anti-entropy, dialled to addr.
func NewAgentSession(addr, name string, seed int64) (*AgentSession, error) {
	conn, err := core.DialAgent(addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial agent port: %w", err)
	}
	s := &AgentSession{clk: clock.New(), conn: conn}
	s.node = node.New(s.clk, node.Config{Name: name, Seed: seed})
	s.node.PowerOn()
	s.clk.Advance(10 * time.Second) // boot
	s.node.SetLoad(0.8)
	s.agent, err = core.NewAgent(s.clk, core.AgentConfig{
		Node:      s.node,
		Period:    agentPeriod,
		SendFrame: s.capture,
	})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("start agent: %w", err)
	}
	// The read side consumes the wire answer and dictionary acks; a resync
	// request means the server saw a gap, which the workload counts as a
	// failure.
	conn.OnResync(func(string) { s.resyncs.Add(1) })
	return s, nil
}

// capture is the agent's transport: it copies the frame, whose values are
// backed by the consolidator's scratch buffer.
func (s *AgentSession) capture(f Frame) error {
	start := len(s.arena)
	s.arena = append(s.arena, f.Values...)
	f.Values = s.arena[start:len(s.arena):len(s.arena)]
	s.frames = append(s.frames, f)
	s.Frames++
	if f.Kind == transmit.FrameSnapshot {
		s.Snapshots++
	}
	return nil
}

// Tick runs n agent periods back to back and returns how many frames they
// produced.
func (s *AgentSession) Tick(n int) int {
	before := len(s.frames)
	for i := 0; i < n; i++ {
		s.clk.Advance(agentPeriod)
	}
	return len(s.frames) - before
}

// CapturedCopy returns a deep copy of the frames waiting to be sent,
// renumbered from sequence 1 so a fresh server takes them as one unbroken
// session.
func (s *AgentSession) CapturedCopy() []Frame {
	out := make([]Frame, len(s.frames))
	for i, f := range s.frames {
		f.Values = append([]Value(nil), f.Values...)
		f.Seq = uint64(i + 1)
		out[i] = f
	}
	return out
}

// isSnapshot reports whether f replaces its node's state wholesale.
func isSnapshot(f Frame) bool { return f.Kind == transmit.FrameSnapshot }

// SendCaptured encodes and writes every captured frame and returns how many
// went out.
func (s *AgentSession) SendCaptured() (int, error) {
	n := 0
	var err error
	for _, f := range s.frames {
		if err = s.conn.SendFrame(f); err != nil {
			break
		}
		n++
	}
	s.DropCaptured()
	return n, err
}

// DropCaptured forgets the frames waiting to be sent.
func (s *AgentSession) DropCaptured() {
	s.frames = s.frames[:0]
	s.arena = s.arena[:0]
}

// WireV2 reports whether the session negotiated the binary wire.
func (s *AgentSession) WireV2() bool { return s.conn.WireV2() }

// WireStats returns the payload and on-wire bytes written so far.
func (s *AgentSession) WireStats() (raw, wire int64) { return s.conn.Stats() }

// Resyncs is the number of resync requests the server sent.
func (s *AgentSession) Resyncs() int64 { return s.resyncs.Load() }

// Seq is the sequence number of the last frame the agent produced.
func (s *AgentSession) Seq() uint64 { return s.agent.Seq() }

// NodeName is the simulated node's host name.
func (s *AgentSession) NodeName() string { return s.node.Name() }

// State is the agent's full current value set, which is what the server
// must hold once every frame has been applied.
func (s *AgentSession) State() []Value { return s.agent.Consolidator().Snapshot() }

// ConsolidateStats reads the consolidation stage's counters.
func (s *AgentSession) ConsolidateStats() (ticks, collected, changed int64) {
	st := s.agent.Consolidator().Stats()
	return st.Ticks, st.Collected, st.Changed
}

// Close stops the agent and ends the session.
func (s *AgentSession) Close() {
	s.agent.Stop()
	s.conn.Close()
}

// GatherProbe times the five production gatherers and a raw procfs read on
// a simulated node's /proc, outside any agent.
type GatherProbe struct {
	Names []string
	fns   []func() error
	close []func() error
}

// NewGatherProbe opens the gatherers on a fresh node built like the flat
// workload's.
func NewGatherProbe(name string, seed int64) (*GatherProbe, error) {
	clk := clock.New()
	n := node.New(clk, node.Config{Name: name, Seed: seed})
	n.PowerOn()
	clk.Advance(10 * time.Second)
	n.SetLoad(0.8)
	fs := n.FS()
	p := &GatherProbe{}
	add := func(name string, fn func() error, cl func() error) {
		p.Names = append(p.Names, name)
		p.fns = append(p.fns, fn)
		if cl != nil {
			p.close = append(p.close, cl)
		}
	}
	mem, err := gather.NewKeepOpenMeminfo(fs)
	if err != nil {
		return nil, err
	}
	var ms gather.MemStats
	add("gather.meminfo_ns", func() error { return mem.Gather(&ms) }, mem.Close)
	st, err := gather.NewStatGatherer(fs)
	if err != nil {
		return nil, err
	}
	var cs gather.CPUStats
	add("gather.stat_ns", func() error { return st.Gather(&cs) }, st.Close)
	la, err := gather.NewLoadavgGatherer(fs)
	if err != nil {
		return nil, err
	}
	var ls gather.LoadStats
	add("gather.loadavg_ns", func() error { return la.Gather(&ls) }, la.Close)
	up, err := gather.NewUptimeGatherer(fs)
	if err != nil {
		return nil, err
	}
	var us gather.UptimeStats
	add("gather.uptime_ns", func() error { return up.Gather(&us) }, up.Close)
	nd, err := gather.NewNetDevGatherer(fs)
	if err != nil {
		return nil, err
	}
	var ns gather.NetDevStats
	add("gather.netdev_ns", func() error { return nd.Gather(&ns) }, nd.Close)
	add("procfs.read_ns", func() error { _, err := fs.ReadFile("/proc/meminfo"); return err }, nil)
	return p, nil
}

// Run calls probe i once.
func (p *GatherProbe) Run(i int) error { return p.fns[i]() }

// Close releases the gatherers' files.
func (p *GatherProbe) Close() {
	for _, c := range p.close {
		c() //nolint:errcheck // read-only files
	}
}

// Leaf is the leaf tier of a two-tier tree hosted in the generator: a
// server, its uplink to the root's agent port, and optionally the
// rack-level rollup, driven the way core.UplinkClient drives them but one
// flush at a time under the workload's control.
type Leaf struct {
	srv  *core.Server
	up   *core.Uplink
	roll *core.Rollup

	conn  net.Conn
	w     *transmit.Writer
	nowNs atomic.Int64
	done  chan struct{}
}

// LeafAggregate is the leaf's rollup node name.
const LeafAggregate = "rack/leaf0"

// NewLeaf builds the leaf. conn is the (counted) connection to the parent's
// agent port, or nil for a leaf with no parent: its flushes are then
// encoded and dropped, for in-process replicas and tests.
func NewLeaf(conn net.Conn, withRollup bool) *Leaf {
	l := &Leaf{conn: conn, done: make(chan struct{})}
	l.srv = core.NewServer(core.ServerConfig{Cluster: "leaf0", Now: l.Now})
	var sink io.Writer = io.Discard
	if conn != nil {
		sink = conn
	}
	l.w = transmit.NewWriter(sink, true)
	l.up = core.NewUplink(l.srv, core.UplinkConfig{Send: l.send})
	l.srv.SetUplink(l.up)
	if withRollup {
		l.roll = core.NewRollup(l.srv, LeafAggregate, "")
	}
	if conn == nil {
		close(l.done)
		return l
	}
	go l.readControl()
	return l
}

// send is the uplink's transport, as core.UplinkClient's: binary payloads
// skip the deflate attempt.
func (l *Leaf) send(payload []byte) error {
	if transmit.IsV2Payload(payload) {
		return l.w.WriteFrameRaw(payload)
	}
	return l.w.WriteFrame(payload)
}

// readControl feeds the parent's control frames (wire answer, dictionary
// acks, resyncs) back to the uplink until the connection closes.
func (l *Leaf) readControl() {
	defer close(l.done)
	r := transmit.NewReader(l.conn)
	for {
		ctl, err := r.ReadFrame()
		if err != nil {
			return
		}
		l.up.HandleControl(ctl, l.nowNs.Load())
	}
}

// Now is the leaf's virtual clock.
func (l *Leaf) Now() time.Duration { return time.Duration(l.nowNs.Load()) }

// Step advances the leaf's clock by one flush period.
func (l *Leaf) Step() { l.nowNs.Add(int64(time.Second)) }

// Ingest applies one frame at the leaf.
func (l *Leaf) Ingest(f Frame) error {
	if err := l.srv.HandleFrame(f); err != nil {
		return fmt.Errorf("leaf ingest %s: %w", f.Node, err)
	}
	return nil
}

// Ctl answers one control request at the leaf.
func (l *Leaf) Ctl(line string) string { return l.srv.HandleCtl(line) }

// RollupTick folds the leaf's nodes into the rack aggregate and returns the
// number of children folded.
func (l *Leaf) RollupTick() int {
	if l.roll == nil {
		return 0
	}
	return l.roll.Tick()
}

// Flush forwards what changed since the last flush and returns the number
// of node sections sent.
func (l *Leaf) Flush() (int, error) { return l.up.Flush(l.nowNs.Load()) }

// UplinkCounters is the subset of the uplink's counters the benchmark
// reports.
type UplinkCounters struct {
	Frames, Nodes, Bytes, SnapAlls, Resyncs int64
	V2                                      bool
}

// Uplink reads the uplink's counters.
func (l *Leaf) Uplink() UplinkCounters {
	st := l.up.Stats()
	return UplinkCounters{
		Frames: st.Frames + st.V1Frames, Nodes: st.Nodes, Bytes: st.Bytes,
		SnapAlls: st.SnapAlls, Resyncs: st.ResyncsRecv + st.NodeResyncs, V2: st.V2,
	}
}

// Close ends the uplink session and waits for its reader.
func (l *Leaf) Close() {
	if l.conn != nil {
		l.conn.Close()
	}
	<-l.done
}

// Replica is an in-process server with cwxd's default rules, for the layers
// that cannot be timed through a socket.
type Replica struct {
	srv *core.Server
	now atomic.Int64
}

// defaultRules are the four protective rules cwxd installs when no rule
// file is given.
func defaultRules() []events.Rule {
	return []events.Rule{
		{Name: "overtemp", Metric: "hw.temp.cpu", Op: events.GT, Threshold: 85, Action: events.ActPowerOff, Notify: true},
		{Name: "fan-failure", Metric: "hw.fan.ok", Op: events.LT, Threshold: 1, Sustain: 2, Notify: true},
		{Name: "swap-storm", Metric: "swap.used.pct", Op: events.GT, Threshold: 90, Notify: true},
		{Name: "load-runaway", Metric: "load.1", Op: events.GT, Threshold: 50, Sustain: 5, Notify: true},
	}
}

// NewReplica builds the replica.
func NewReplica() (*Replica, error) {
	r := &Replica{}
	r.srv = core.NewServer(core.ServerConfig{Cluster: "replica", Now: func() time.Duration { return time.Duration(r.now.Load()) }})
	for _, rule := range defaultRules() {
		if err := r.srv.Engine().AddRule(rule); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Step advances the replica's clock.
func (r *Replica) Step(d time.Duration) { r.now.Add(int64(d)) }

// Ingest applies one frame. A resync request is returned as an error.
func (r *Replica) Ingest(f Frame) error { return r.srv.HandleFrame(f) }

// HistoryProbe is a bare history store.
type HistoryProbe struct{ st *history.Store }

// NewHistoryProbe builds an empty store with the default capacity.
func NewHistoryProbe() *HistoryProbe { return &HistoryProbe{st: history.NewStore(0)} }

// Append adds one sample.
func (h *HistoryProbe) Append(nodeName, metric string, t time.Duration, v float64) {
	h.st.Append(nodeName, metric, t, v)
}

// Bytes is the store's own account of its footprint.
func (h *HistoryProbe) Bytes() int64 { return h.st.Bytes() }

// Range reads every point of a series and returns how many there were.
func (h *HistoryProbe) Range(nodeName, metric string) int {
	s := h.st.Series(nodeName, metric)
	if s == nil {
		return 0
	}
	return len(s.Range(0, 1<<62))
}

// Stats aggregates a whole series and returns its point count.
func (h *HistoryProbe) Stats(nodeName, metric string) int {
	s := h.st.Series(nodeName, metric)
	if s == nil {
		return 0
	}
	return s.Stats(0, 1<<62).N
}

// Save writes the store to w.
func (h *HistoryProbe) Save(w io.Writer) error { return h.st.SaveTo(w) }

// Load reads a saved store into a fresh probe.
func (h *HistoryProbe) Load(r io.Reader) error { return h.st.LoadFrom(r) }

// EventsProbe is a bare event engine with cwxd's default rules and no
// actuator.
type EventsProbe struct{ eng *events.Engine }

// NewEventsProbe builds the engine.
func NewEventsProbe() (*EventsProbe, error) {
	e := &EventsProbe{eng: events.New(nil, nil, func() time.Duration { return 0 })}
	for _, rule := range defaultRules() {
		if err := e.eng.AddRule(rule); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Observe evaluates the rules over one node's numeric state, as the server
// does after every frame, and returns the number of firings.
func (e *EventsProbe) Observe(nodeName string, sample map[string]float64) int {
	return len(e.eng.ObserveMap(nodeName, sample))
}

// numericSample is the numeric part of a value set, keyed by name.
func numericSample(vals []Value) map[string]float64 {
	out := make(map[string]float64, len(vals))
	for _, v := range vals {
		if !v.IsText {
			out[v.Name] = v.Num
		}
	}
	return out
}

// CtlDo sends one request through the product's own ctl client, for set-up
// and checks outside the measured window.
func CtlDo(addr, req string) (string, error) {
	c, err := core.DialCtl(addr, dialTimeout)
	if err != nil {
		return "", err
	}
	defer c.Close()
	resp, err := c.Do(req)
	if err != nil {
		return "", fmt.Errorf("ctl %q: %w", req, err)
	}
	return resp, nil
}

// renderValues renders a value set as the ctl values verb does.
func renderValues(vals []Value) string {
	vals = append([]Value(nil), vals...)
	sort.Slice(vals, func(i, j int) bool { return vals[i].Name < vals[j].Name })
	var b strings.Builder
	b.WriteString("OK")
	for _, v := range vals {
		fmt.Fprintf(&b, "\n%-28s %s", v.Name, v.Render())
	}
	return b.String()
}

// errNoV2 reports a session that stayed on the v1 text wire.
var errNoV2 = errors.New("session did not negotiate the v2 wire")
