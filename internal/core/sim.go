package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/cloning"
	"clusterworx/internal/consolidate"
	"clusterworx/internal/icebox"
	"clusterworx/internal/image"
	"clusterworx/internal/node"
	"clusterworx/internal/notify"
	"clusterworx/internal/simnet"
	"clusterworx/internal/transmit"
)

// SimTransport selects how simulated agents reach their leaf server.
type SimTransport int

const (
	// TransportDirect hands each sequenced frame to Server.HandleFrame
	// in-process, on the tick instant, and answers a resync request
	// straight back to the agent: the production protocol with nothing
	// between the two ends that could lose a frame. The default. It is a
	// call rather than a lossless fabric link on purpose: a fabric hop
	// delays arrival by the link latency, which moves every ingest stamp
	// off the agents' period grid and costs the history store bytes.
	TransportDirect SimTransport = iota
	// TransportSimnet carries sequenced frames over the simulated fabric
	// on a dedicated monitoring plane ("<node>.mon" -> "<server>.mon"
	// endpoints, separate from the cloning data plane), with the server's
	// resync requests riding the reverse path. This is the loss-tolerant
	// protocol under test in the fault-injection harness.
	TransportSimnet
)

// monOverheadBytes approximates per-packet header cost (IP + UDP) on the
// monitoring plane, so frame sizes on the simulated wire are not zero
// even for empty heartbeats.
const monOverheadBytes = 28

// simUplinkPeriod is the flush cadence of every uplink in a tree. Tiers
// are phase-staggered within it so a change crosses one hop per
// sub-phase instead of waiting a full period at each tier.
const simUplinkPeriod = 100 * time.Millisecond

// SimConfig sizes a simulated cluster: a tree of Tiers server tiers on
// one virtual clock and one simulated fabric. One tier (the default) is
// the flat cluster: a single server monitoring Nodes nodes.
type SimConfig struct {
	// Nodes is the number of monitored nodes under each leaf server. A
	// tree has Fanout^(Tiers-1) leaves.
	Nodes int
	// Cluster names the root server (default "simcluster").
	Cluster string
	// Period and Heartbeat configure the agents.
	Period    time.Duration
	Heartbeat time.Duration
	// Transport selects the agent-to-leaf path (default TransportDirect).
	// Uplinks always ride the fabric.
	Transport SimTransport
	// AntiEntropy overrides the agents' periodic full-snapshot refresh
	// interval (zero keeps the agent default, negative disables).
	AntiEntropy time.Duration
	// EchoSweep is each leaf's connectivity probe period (default 5 s;
	// negative disables).
	EchoSweep time.Duration
	// SelfMonitor is the root's meta-monitor period: every SelfMonitor of
	// virtual time the root consolidates its own telemetry and ingests it
	// as the MetaNodeName node. Zero disables (unlike EchoSweep there is
	// no default-on: the extra registry entry would surprise node-count
	// assertions in existing deployments and tests).
	SelfMonitor time.Duration
	// WireV1 pins selected agents, by global node index, to the v1 text
	// wire protocol (TransportSimnet only; nil offers the v2 upgrade
	// everywhere). The fault harness uses it to run mixed-version
	// clusters.
	WireV1 func(global int) bool
	// Seed seeds the fabric's loss generator and every node; node names
	// and seeds follow the global node index, so a tree and a flat sim
	// with the same Seed produce byte-identical value streams however the
	// nodes are split into leaves.
	Seed int64

	// Tiers is the number of server tiers (default 1); Fanout is the
	// number of children under each upper-tier server.
	Tiers  int
	Fanout int
	// Synthetic skips the full per-node simulation (node.Node, ICE
	// Boxes, agents): monitored nodes exist only as sender endpoints, and
	// the caller drives rounds with InjectRound. This is the 100k
	// benchmark mode; correctness tests use real agents.
	Synthetic bool
	// UplinkAntiEntropy forces periodic snap-all flushes on every uplink
	// (0 disables).
	UplinkAntiEntropy time.Duration
	// UplinkV1 pins selected leaf uplinks to v1 per-node frames (the
	// mixed-version fault case; mid-tier uplinks always batch).
	UplinkV1 func(leaf int) bool
}

// AggPrefix returns the aggregate-node namespace for a tier level
// (0 = the agent-facing tier).
func AggPrefix(level int) string {
	switch level {
	case 0:
		return "rack/"
	case 1:
		return "row/"
	default:
		return fmt.Sprintf("t%d/", level)
	}
}

// RootAggNode is the root tier's aggregate node name.
const RootAggNode = "grid/root"

// TierServer is one server of the tree. Naming, bottom up: leaf servers
// "leafNNN" publish "rack/leafNNN" aggregates, mid servers "midNN"
// publish "row/midNN", and the root, "master", publishes "grid/root".
// Every tier mirrors its full subtree (raw nodes included), so status,
// watch streams and history work at any tier for that tier's scope; the
// rollups exist so upper-tier dashboards can answer subtree questions
// without touching 100k raw series.
type TierServer struct {
	Name   string
	Level  int // 0 = agent-facing tier, Tiers-1 = root
	Server *Server
	Uplink *Uplink // nil at the root
	Rollup *Rollup // nil in a one-tier sim
	// Mon is the server's monitoring-plane endpoint, "<Name>.mon": agent
	// frames over TransportSimnet, synthetic frames and child uplink
	// batches share it.
	Mon *simnet.Endpoint
	// UpEp is the endpoint its uplink sends from (nil at the root).
	UpEp *simnet.Endpoint
	// Nodes and Agents are a real-agent leaf's share of Sim.Nodes and
	// Sim.Agents.
	Nodes  []*node.Node
	Agents []*Agent

	// rxPackets counts monitoring-plane packets delivered to this server
	// — the flat control's propagation counter.
	rxPackets atomic.Int64

	synth []synthNode
	buf   []byte
}

// RxPackets reports monitoring-plane packets delivered to this server.
func (ts *TierServer) RxPackets() int64 { return ts.rxPackets.Load() }

// synthNode is one synthetic monitored node: a sender endpoint and its
// wire sequence.
type synthNode struct {
	name   string
	ep     *simnet.Endpoint
	global int
	seq    uint64
}

// Sim is a complete simulated cluster: nodes in ICE Boxes, agents feeding
// leaf servers, tiers of servers above them, and a Fast Ethernet fabric
// for cloning and monitoring — all on one virtual clock.
type Sim struct {
	Clk *clock.Clock
	Net *simnet.Network
	// Server is the root's server; in a one-tier sim, the only one.
	Server *Server
	// Nodes, Boxes and Agents span every leaf, in global node order.
	Nodes  []*node.Node
	Boxes  []*icebox.Box
	Agents []*Agent
	// Mailer records every leaf server's notifications.
	Mailer *notify.Recording
	// Meta is the root's self-monitoring loop, non-nil when
	// SimConfig.SelfMonitor was set.
	Meta *MetaMonitor
	// Levels[0] is the agent-facing tier, Levels[Tiers-1] == {Root}.
	Levels [][]*TierServer
	Leaves []*TierServer
	Root   *TierServer

	cfg       SimConfig
	round     uint64
	byName    map[string]int // node name -> index into Nodes
	nodeImage map[string]string
	// wires holds each agent's wire-negotiation state, indexed like
	// Agents (nil outside TransportSimnet) — the mixed-version harness
	// asserts on it.
	wires []*wireClient
}

// NewSim builds the cluster powered off (call PowerOnAll, or power nodes
// individually through a server, and then Advance the clock) and, in a
// tree, installs the rollup/flush timer chains.
func NewSim(cfg SimConfig) (*Sim, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("core: sim needs at least one node")
	}
	if cfg.Tiers <= 0 {
		cfg.Tiers = 1
	}
	if cfg.Tiers > 1 && cfg.Fanout < 1 {
		return nil, fmt.Errorf("core: sim fanout must be positive")
	}
	if cfg.Transport != TransportDirect && cfg.Transport != TransportSimnet {
		return nil, fmt.Errorf("core: unknown sim transport %d", cfg.Transport)
	}
	if cfg.Cluster == "" {
		cfg.Cluster = "simcluster"
	}
	clk := clock.New()
	net := simnet.New(clk, 100*time.Microsecond)
	net.Seed(cfg.Seed + 99)
	s := &Sim{
		Clk:       clk,
		Net:       net,
		Mailer:    &notify.Recording{},
		cfg:       cfg,
		byName:    make(map[string]int),
		nodeImage: make(map[string]string),
	}

	// Build bottom-up: level l has Fanout^(Tiers-1-l) servers.
	count := 1
	for l := 1; l < cfg.Tiers; l++ {
		count *= cfg.Fanout
	}
	for l := 0; l < cfg.Tiers; l++ {
		tier := make([]*TierServer, 0, count)
		for i := 0; i < count; i++ {
			ts, err := s.buildServer(l, i)
			if err != nil {
				return nil, err
			}
			tier = append(tier, ts)
		}
		s.Levels = append(s.Levels, tier)
		if l+1 < cfg.Tiers {
			count /= cfg.Fanout
		}
	}
	s.Leaves = s.Levels[0]
	s.Root = s.Levels[cfg.Tiers-1][0]
	s.Server = s.Root.Server

	// Uplinks: child i at level l feeds parent i/Fanout at level l+1.
	for l := 0; l+1 < cfg.Tiers; l++ {
		for i, child := range s.Levels[l] {
			s.connectUplink(child, s.Levels[l+1][i/cfg.Fanout], l == 0 && cfg.UplinkV1 != nil && cfg.UplinkV1(i))
		}
	}

	// Rollup + flush timer chains, phase-staggered by level: with period
	// P and T tiers, level l acts at k*P + (l+1)*P/(T+1), so a change
	// injected at k*P crosses every hop within one period.
	if cfg.Tiers > 1 {
		for l, tier := range s.Levels {
			phase := simUplinkPeriod * time.Duration(l+1) / time.Duration(cfg.Tiers+1)
			for _, ts := range tier {
				var tick func()
				tick = func() {
					ts.Rollup.Tick()
					if ts.Uplink != nil {
						ts.Uplink.Flush(int64(clk.Now())) //nolint:errcheck // send failures re-mark; stats carry the count
					}
					clk.AfterFunc(simUplinkPeriod, tick)
				}
				clk.AfterFunc(phase, tick)
			}
		}
	}

	// Self-monitoring loop: the root's own telemetry re-enters the
	// pipeline as the MetaNodeName node.
	if cfg.SelfMonitor > 0 {
		s.Meta = NewMetaMonitor(s.Server)
		var mtick func()
		mtick = func() {
			s.Meta.Tick()
			clk.AfterFunc(cfg.SelfMonitor, mtick)
		}
		clk.AfterFunc(cfg.SelfMonitor, mtick)
	}
	return s, nil
}

// buildServer constructs one tier member: a leaf with real agents, or a
// bare server mirroring its subtree (upper tiers, and synthetic leaves
// with their sender endpoints).
func (s *Sim) buildServer(level, idx int) (*TierServer, error) {
	cfg := s.cfg
	root := level == cfg.Tiers-1
	var name string
	switch {
	case root:
		name = "master"
	case level == 0:
		name = fmt.Sprintf("leaf%03d", idx)
	default:
		name = fmt.Sprintf("mid%02d", idx)
	}
	cluster := name
	if root {
		cluster = cfg.Cluster
	}
	ts := &TierServer{Name: name, Level: level}
	monAddr := simnet.Addr(name + ".mon")

	if level == 0 && !cfg.Synthetic {
		if err := s.buildLeaf(ts, cluster, monAddr, idx*cfg.Nodes); err != nil {
			return nil, err
		}
	} else {
		ts.Server = NewServer(ServerConfig{Cluster: cluster, Now: s.Clk.Now})
		ts.Mon = attachWireReceiver(s.Net, monAddr, ts.Server, &ts.rxPackets)
		for i := 0; level == 0 && i < cfg.Nodes; i++ {
			global := idx*cfg.Nodes + i
			nname := fmt.Sprintf("node%03d", global)
			ep := s.Net.Attach(simnet.Addr(nname+".mon"), simnet.FastEthernet)
			ts.synth = append(ts.synth, synthNode{name: nname, ep: ep, global: global})
		}
	}

	// Rollups exist only in a tree.
	switch {
	case cfg.Tiers == 1:
	case root:
		ts.Rollup = NewRollup(ts.Server, RootAggNode, AggPrefix(cfg.Tiers-2))
	case level == 0:
		ts.Rollup = NewRollup(ts.Server, AggPrefix(0)+name, "")
	default:
		ts.Rollup = NewRollup(ts.Server, AggPrefix(level)+name, AggPrefix(level-1))
	}
	return ts, nil
}

// buildLeaf builds an agent-facing server and everything under it: the
// global nodes first..first+Nodes-1 in ICE Boxes, their agents, the image
// library and cloning backend (its cloning-plane endpoint is the member's
// name), and the echo sweep.
func (s *Sim) buildLeaf(ts *TierServer, cluster string, monAddr simnet.Addr, first int) error {
	cfg, clk, net := s.cfg, s.Clk, s.Net
	notifier := notify.New(clk, s.Mailer, notify.Config{Cluster: cluster, Admin: "admin@" + cluster})
	srv := NewServer(ServerConfig{Cluster: cluster, Now: clk.Now, Notifier: notifier})
	ts.Server = srv
	net.Attach(simnet.Addr(ts.Name), simnet.FastEthernet)

	// The monitoring plane gets its own endpoints so fault injection on
	// agent traffic cannot disturb the cloning data plane's handlers (and
	// vice versa). The server side runs one wire session per source
	// endpoint, exactly like one TCP connection would, and answers gap
	// detection with a resync-request control frame to the frame's source.
	ts.Mon = attachWireReceiver(net, monAddr, srv, &ts.rxPackets)

	// Stock the image library and wire the cloning backend, so the control
	// protocol's "images" and "clone" requests work out of the box.
	for _, kind := range []string{"harddisk", "nfsboot"} {
		if im, err := image.Prebuilt(kind); err == nil {
			srv.Images().Put(im) //nolint:errcheck // fresh store cannot collide
		}
	}
	srv.SetCloner(func(imageID string, nodeNames []string) (string, error) {
		im, ok := srv.Images().Get(imageID)
		if !ok {
			return "", fmt.Errorf("core: unknown image %s", imageID)
		}
		res, err := s.clone(ts, im, nil, nodeNames, 0.01, cloning.Params{})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("cloned %s to %d node(s) in %s (%d MB multicast, %d repair chunks)",
			imageID, len(res.NodeUp), res.AllUp.Round(time.Second), res.MulticastBytes>>20, res.RepairChunks), nil
	})

	start := len(s.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		global := first + i
		name := fmt.Sprintf("node%03d", global)
		n := node.New(clk, node.Config{Name: name, Seed: cfg.Seed + int64(global)})
		s.byName[name] = len(s.Nodes)
		s.Nodes = append(s.Nodes, n)
		srv.RegisterNode(name)
		srv.RegisterFirmware(name, n.Firmware())
		net.Attach(simnet.Addr(name), simnet.FastEthernet)

		// Boxes and ports follow the GLOBAL node number so a leaf hosting
		// nodes 30-39 puts them on ice03's ports 0-9 — the same outlets,
		// hence the same power-up stagger and boot instants, as a flat
		// sim over the whole range. That physical determinism is what lets
		// fault tests compare a tree byte for byte against its flat
		// control.
		if i == 0 || global%icebox.NodePorts == 0 {
			box := icebox.New(clk, fmt.Sprintf("ice%02d", global/icebox.NodePorts))
			s.Boxes = append(s.Boxes, box)
			srv.AddICEBox(box)
		}
		if err := s.Boxes[len(s.Boxes)-1].Connect(global%icebox.NodePorts, n); err != nil {
			return err
		}
		if err := s.startAgent(srv, n, global, monAddr); err != nil {
			return err
		}
	}
	ts.Nodes = s.Nodes[start:len(s.Nodes):len(s.Nodes)]
	ts.Agents = s.Agents[start:len(s.Agents):len(s.Agents)]

	// Server-side UDP-echo sweep: the one probe that works on dead nodes.
	sweep := cfg.EchoSweep
	if sweep == 0 {
		sweep = 5 * time.Second
	}
	if sweep > 0 {
		var tick func()
		tick = func() {
			srv.ProbeConnectivity(func(name string) bool {
				n := s.Node(name)
				return n != nil && n.Reachable()
			})
			clk.AfterFunc(sweep, tick)
		}
		clk.AfterFunc(sweep, tick)
	}
	return nil
}

// startAgent starts node n's agent on the configured link to srv, whose
// monitoring-plane endpoint is monAddr.
func (s *Sim) startAgent(srv *Server, n *node.Node, global int, monAddr simnet.Addr) error {
	cfg := s.cfg
	acfg := AgentConfig{
		Node:        n,
		Period:      cfg.Period,
		Heartbeat:   cfg.Heartbeat,
		AntiEntropy: cfg.AntiEntropy,
	}
	var agent *Agent
	var mon *simnet.Endpoint
	var wc *wireClient
	if cfg.Transport == TransportDirect {
		acfg.SendFrame = func(f transmit.Frame) error {
			if srv.HandleFrame(f) == ErrResyncNeeded {
				agent.RequestResync()
			}
			return nil
		}
	} else {
		mon = s.Net.Attach(simnet.Addr(n.Name()+".mon"), simnet.FastEthernet)
		wc = newWireClient(n.Name(), cfg.WireV1 == nil || !cfg.WireV1(global))
		acfg.SendFrame = func(f transmit.Frame) error {
			// The link check runs before marshal so a visible failure
			// never advances the v2 predictor chain.
			if !mon.Up() {
				return ErrLinkDown
			}
			return sendCopy(mon, monAddr, wc.marshal(f))
		}
	}
	var err error
	if agent, err = NewAgent(s.Clk, acfg); err != nil {
		return err
	}
	if mon != nil {
		// The wire session consumes version answers, dict acks, and dict
		// resets; resync requests surface to the agent.
		onPayload(mon, s.Clk, func(b []byte, nowNs int64) {
			if wc.control(b, nowNs) {
				agent.RequestResync()
			}
		})
	}
	s.Agents = append(s.Agents, agent)
	s.wires = append(s.wires, wc)
	return nil
}

// connectUplink wires child→parent: a dedicated sender endpoint, the
// fabric send hook and the control back-channel.
func (s *Sim) connectUplink(child, parent *TierServer, v1Only bool) {
	upEp := s.Net.Attach(simnet.Addr(child.Name+".up"), simnet.FastEthernet)
	parentMon := parent.Mon.Addr()
	u := NewUplink(child.Server, UplinkConfig{
		Name:        child.Name,
		V1Only:      v1Only,
		AntiEntropy: s.cfg.UplinkAntiEntropy,
		Send:        func(payload []byte) error { return sendCopy(upEp, parentMon, payload) },
	})
	onPayload(upEp, s.Clk, u.HandleControl)
	child.UpEp = upEp
	child.Uplink = u
	child.Server.SetUplink(u)
}

// sendCopy ships payload from ep to dst, the one send path of every
// simulated monitoring-plane link. A down local link is an error the
// sender can see (an agent banks and backs off, an uplink re-marks);
// in-flight loss is silent — that is gap detection's job. The payload is
// copied because delivery is asynchronous and senders reuse their
// scratch.
func sendCopy(ep *simnet.Endpoint, dst simnet.Addr, payload []byte) error {
	if !ep.Up() {
		return ErrLinkDown
	}
	b := append([]byte(nil), payload...)
	ep.Send(dst, b, len(b)+monOverheadBytes)
	return nil
}

// onPayload installs fn as ep's receive handler for byte payloads — the
// sender side's control back-channel, stamped with the clock's now.
func onPayload(ep *simnet.Endpoint, clk *clock.Clock, fn func(b []byte, nowNs int64)) {
	ep.OnReceive(func(p simnet.Packet) {
		if b, ok := p.Payload.([]byte); ok {
			fn(b, int64(clk.Now()))
		}
	})
}

// attachWireReceiver attaches addr to the fabric and dispatches arriving
// payloads to per-source wire sessions feeding srv — the receive loop of
// every server in the sim (agent frames and uplink batches share the
// entry point; handle routes on the payload). counter counts delivered
// packets.
func attachWireReceiver(net *simnet.Network, addr simnet.Addr, srv *Server, counter *atomic.Int64) *simnet.Endpoint {
	ep := net.Attach(addr, simnet.FastEthernet)
	sessions := make(map[simnet.Addr]*wireServer)
	ep.OnReceive(func(p simnet.Packet) {
		b, ok := p.Payload.([]byte)
		if !ok {
			return
		}
		counter.Add(1)
		ws := sessions[p.Src]
		if ws == nil {
			ws = &wireServer{s: srv}
			sessions[p.Src] = ws
		}
		src := p.Src
		ws.handle(b, func(ctl []byte) {
			cb := append([]byte(nil), ctl...)
			ep.Send(src, cb, len(cb)+monOverheadBytes)
		})
	})
	return ep
}

// TotalNodes is the monitored-node count across all leaves.
func (s *Sim) TotalNodes() int { return len(s.Leaves) * s.cfg.Nodes }

// PowerOnAll starts a sequenced power-up on every ICE Box.
func (s *Sim) PowerOnAll() {
	for _, b := range s.Boxes {
		b.PowerOnAll()
	}
}

// Advance moves virtual time.
func (s *Sim) Advance(d time.Duration) { s.Clk.Advance(d) }

// Node returns a node by name.
func (s *Sim) Node(name string) *node.Node {
	if i, ok := s.byName[name]; ok {
		return s.Nodes[i]
	}
	return nil
}

// NodeImage returns the image ID last cloned onto a node.
func (s *Sim) NodeImage(name string) string { return s.nodeImage[name] }

// Stop shuts down all agents (test hygiene).
func (s *Sim) Stop() {
	for _, a := range s.Agents {
		a.Stop()
	}
}

// Clone distributes img to the named nodes with the reliable-multicast
// protocol over the sim's Fast Ethernet, from the leaf server hosting the
// first of them, taking the targets out of service for the duration. It
// runs to completion on the virtual clock and returns the session result.
func (s *Sim) Clone(img *image.Image, nodeNames []string, loss float64, params cloning.Params) (cloning.Result, error) {
	return s.clone(s.leafOf(nodeNames), img, nil, nodeNames, loss, params)
}

// Update distributes only the delta between each target's current image
// (which must be old) and img — the §4 parallel kernel/package update.
func (s *Sim) Update(old, img *image.Image, nodeNames []string, loss float64, params cloning.Params) (cloning.Result, error) {
	return s.clone(s.leafOf(nodeNames), img, old, nodeNames, loss, params)
}

// leafOf returns the leaf hosting the first named node, or the first leaf
// (clone rejects unknown names).
func (s *Sim) leafOf(nodeNames []string) *TierServer {
	if len(nodeNames) > 0 {
		if i, ok := s.byName[nodeNames[0]]; ok {
			return s.Leaves[i/s.cfg.Nodes]
		}
	}
	return s.Leaves[0]
}

func (s *Sim) clone(leaf *TierServer, img, old *image.Image, nodeNames []string, loss float64, params cloning.Params) (cloning.Result, error) {
	if len(nodeNames) == 0 {
		return cloning.Result{}, fmt.Errorf("core: clone needs target nodes")
	}
	master := s.Net.Endpoint(simnet.Addr(leaf.Name))
	group := "clone"
	addrs := make([]simnet.Addr, 0, len(nodeNames))
	for _, name := range nodeNames {
		n := s.Node(name)
		if n == nil {
			return cloning.Result{}, fmt.Errorf("core: unknown node %s", name)
		}
		// Nodes reboot into the cloning environment: OS (and agent) stop.
		n.PowerOff()
		addr := simnet.Addr(name)
		s.Net.Join(group, addr)
		addrs = append(addrs, addr)
	}
	s.Net.SetLoss(loss)
	defer s.Net.SetLoss(0)

	sess := cloning.NewUpdateSession(s.Clk, s.Net, master, group, img, old, addrs, params)
	for _, name := range nodeNames {
		n := s.Node(name)
		ep := s.Net.Endpoint(simnet.Addr(name))
		// Each client flashes at its own node's disk rate and reboots with
		// its own firmware's cold-start time.
		clientParams := params
		clientParams.DiskBandwidth = n.DiskBandwidth()
		clientParams.RebootTime = n.BootTime()
		client := cloning.NewUpdateClient(s.Clk, ep, img, old, clientParams)
		client.ReportUpTo(master.Addr())
		client.OnUp(func() {
			s.nodeImage[name] = img.ID()
			n.PowerOn() // boots the freshly written image
		})
	}
	sess.Start()
	// Step (not RunUntilIdle): agent timers perpetually reschedule, so the
	// queue never drains; the session's completion is the stop condition.
	for !sess.Done() {
		if !s.Clk.Step() {
			return sess.Result(), fmt.Errorf("core: cloning session did not converge")
		}
	}
	for _, addr := range addrs {
		s.Net.Leave(group, addr)
	}
	return sess.Result(), nil
}

// InjectRound drives one synthetic monitoring round: every node sends
// one frame (a sequenced snapshot on the first round, then single-value
// deltas whose value changes every round, so per-hop suppression has
// exactly one change per node to forward). Returns frames sent. Must be
// called between clock advances (the fabric is clock-threaded).
func (s *Sim) InjectRound() int {
	s.round++
	sent := 0
	for _, leaf := range s.Leaves {
		for i := range leaf.synth {
			sn := &leaf.synth[i]
			sn.seq++
			fr := transmit.Frame{
				Node: sn.name,
				Seq:  sn.seq,
				Values: []consolidate.Value{
					consolidate.NumValue("cpu.load", consolidate.Dynamic, SynthValue(sn.global, s.round)),
				},
			}
			if sn.seq == 1 {
				fr.Kind = transmit.FrameSnapshot
				fr.Values = append(fr.Values,
					consolidate.NumValue("mem.total", consolidate.Static, 1024),
				)
			}
			leaf.buf = transmit.MarshalFrame(leaf.buf[:0], fr)
			sendCopy(sn.ep, leaf.Mon.Addr(), leaf.buf) //nolint:errcheck // synthetic senders' links never go down
			sent++
		}
	}
	return sent
}

// SynthValue is the deterministic per-node workload: it changes for
// every node on every round, so a tree and a flat control inject
// byte-identical value streams.
func SynthValue(global int, round uint64) float64 {
	return float64((uint64(global)*7+round*13)%1000) / 1000
}
