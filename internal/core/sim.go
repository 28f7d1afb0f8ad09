package core

import (
	"fmt"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/cloning"
	"clusterworx/internal/firmware"
	"clusterworx/internal/icebox"
	"clusterworx/internal/image"
	"clusterworx/internal/monitor"
	"clusterworx/internal/node"
	"clusterworx/internal/notify"
	"clusterworx/internal/simnet"
	"clusterworx/internal/transmit"
)

// SimTransport selects how simulated agents reach the server.
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
	// on a dedicated monitoring plane ("<node>.mon" -> "master.mon"
	// endpoints, separate from the cloning data plane), with the server's
	// resync requests riding the reverse path. This is the loss-tolerant
	// protocol under test in the fault-injection harness.
	TransportSimnet
)

// simMonAddr is the server's monitoring-plane endpoint address.
const simMonAddr simnet.Addr = "master.mon"

// monOverheadBytes approximates per-packet header cost (IP + UDP) on the
// monitoring plane, so frame sizes on the simulated wire are not zero
// even for empty heartbeats.
const monOverheadBytes = 28

// SimConfig sizes an in-process simulated cluster.
type SimConfig struct {
	Nodes   int
	Cluster string
	// Firmware selects per-node firmware (default LinuxBIOS 1.0.1).
	Firmware func(i int) firmware.Firmware
	// Period and Heartbeat configure the agents.
	Period    time.Duration
	Heartbeat time.Duration
	// Transport selects the agent-to-server path (default TransportDirect).
	Transport SimTransport
	// AntiEntropy overrides the agents' periodic full-snapshot refresh
	// interval (zero keeps the agent default, negative disables).
	AntiEntropy time.Duration
	// Mailer receives notifications (default: a Recording inspectable via
	// Sim.Mailer).
	Mailer notify.Mailer
	// NotifyBatch is the notification batching window.
	NotifyBatch time.Duration
	// Plugins supplies optional per-node plug-in sets.
	Plugins func(i int) *monitor.PluginSet
	// EchoSweep is the server-side connectivity probe period
	// (default 5 s; negative disables).
	EchoSweep time.Duration
	// SelfMonitor is the meta-monitor period: every SelfMonitor of virtual
	// time the server consolidates its own telemetry and ingests it as the
	// MetaNodeName node. Zero disables (unlike EchoSweep there is no
	// default-on: the extra registry entry would surprise node-count
	// assertions in existing deployments and tests).
	SelfMonitor time.Duration
	// WireV1 pins selected agents to the v1 text wire protocol
	// (TransportSimnet only; nil offers the v2 upgrade everywhere). The
	// fault harness uses it to run mixed-version clusters.
	WireV1 func(i int) bool
	Seed   int64

	// Federation plumbing (fedsim.go): a multi-tier topology builds one
	// Sim per leaf server, all sharing a clock and fabric. Defaults
	// reproduce the classic standalone sim exactly.

	// Clock, when non-nil, is shared instead of creating a new one.
	Clock *clock.Clock
	// Net, when non-nil, is the shared fabric; it is not reseeded (the
	// owner seeds once).
	Net *simnet.Network
	// MasterAddr renames the server's cloning-plane endpoint (default
	// "master") so several servers can share a fabric.
	MasterAddr simnet.Addr
	// MonAddr renames the server's monitoring-plane endpoint (default
	// "master.mon").
	MonAddr simnet.Addr
	// FirstNode offsets node numbering: node names and per-node seeds
	// derive from the global index FirstNode+i, so a federated run and a
	// flat control with the same Seed produce byte-identical value
	// streams for every node regardless of how they are partitioned into
	// leaves.
	FirstNode int
	// HistoryCapacity is passed through to ServerConfig.
	HistoryCapacity int
}

// Sim is a complete simulated cluster: nodes in ICE Boxes, agents feeding
// a management server, and a Fast Ethernet fabric for cloning — all on one
// virtual clock.
type Sim struct {
	Clk    *clock.Clock
	Server *Server
	Nodes  []*node.Node
	Boxes  []*icebox.Box
	Agents []*Agent
	Net    *simnet.Network
	// Mailer is the recording mailbox when SimConfig.Mailer was nil.
	Mailer *notify.Recording
	// Meta is the self-monitoring loop, non-nil when SimConfig.SelfMonitor
	// was set.
	Meta *MetaMonitor

	byName     map[string]*node.Node
	nodeImage  map[string]string
	masterAddr simnet.Addr
	// wires holds each agent's wire-negotiation state, indexed like
	// Agents (nil outside TransportSimnet) — the mixed-version harness
	// asserts on it.
	wires []*wireClient
}

// NewSim builds the cluster powered off; call PowerOnAll (or power nodes
// individually through Server) and then Advance the clock.
func NewSim(cfg SimConfig) (*Sim, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("core: sim needs at least one node")
	}
	if cfg.Cluster == "" {
		cfg.Cluster = "simcluster"
	}
	if cfg.MasterAddr == "" {
		cfg.MasterAddr = "master"
	}
	if cfg.MonAddr == "" {
		cfg.MonAddr = simMonAddr
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.New()
	}

	var rec *notify.Recording
	mailer := cfg.Mailer
	if mailer == nil {
		rec = &notify.Recording{}
		mailer = rec
	}
	notifier := notify.New(clk, mailer, notify.Config{
		Cluster: cfg.Cluster,
		Admin:   "admin@" + cfg.Cluster,
		Batch:   cfg.NotifyBatch,
	})
	srv := NewServer(ServerConfig{Cluster: cfg.Cluster, Now: clk.Now, Notifier: notifier, HistoryCapacity: cfg.HistoryCapacity})

	net := cfg.Net
	if net == nil {
		net = simnet.New(clk, 100*time.Microsecond)
		net.Seed(cfg.Seed + 99)
	}
	net.Attach(cfg.MasterAddr, simnet.FastEthernet)

	// The monitoring plane gets its own endpoints so fault injection on
	// agent traffic cannot disturb the cloning data plane's handlers (and
	// vice versa). The master side runs one wire session per source
	// endpoint, exactly like one TCP connection would, and answers gap
	// detection with a resync-request control frame to the frame's source.
	switch cfg.Transport {
	case TransportDirect:
	case TransportSimnet:
		attachWireReceiver(net, cfg.MonAddr, srv, nil)
	default:
		return nil, fmt.Errorf("core: unknown sim transport %d", cfg.Transport)
	}

	sim := &Sim{
		Clk:        clk,
		Server:     srv,
		Net:        net,
		Mailer:     rec,
		byName:     make(map[string]*node.Node, cfg.Nodes),
		nodeImage:  make(map[string]string, cfg.Nodes),
		masterAddr: cfg.MasterAddr,
	}

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
		res, err := sim.Clone(im, nodeNames, 0.01, cloning.Params{})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("cloned %s to %d node(s) in %s (%d MB multicast, %d repair chunks)",
			imageID, len(res.NodeUp), res.AllUp.Round(time.Second), res.MulticastBytes>>20, res.RepairChunks), nil
	})

	for i := 0; i < cfg.Nodes; i++ {
		global := cfg.FirstNode + i
		name := fmt.Sprintf("node%03d", global)
		ncfg := node.Config{Name: name, Seed: cfg.Seed + int64(global)}
		if cfg.Firmware != nil {
			ncfg.Firmware = cfg.Firmware(i)
		}
		n := node.New(clk, ncfg)
		sim.Nodes = append(sim.Nodes, n)
		sim.byName[name] = n
		srv.RegisterNode(name)
		srv.RegisterFirmware(name, n.Firmware())
		net.Attach(simnet.Addr(name), simnet.FastEthernet)

		// Boxes and ports follow the GLOBAL node number so a federated
		// leaf hosting nodes 30-39 puts them on ice03's ports 0-9 — the
		// same outlets, hence the same power-up stagger and boot
		// instants, as a flat sim over the whole range. That physical
		// determinism is what lets fault tests compare a federated tree
		// byte for byte against its flat control.
		if i == 0 || global%icebox.NodePorts == 0 {
			box := icebox.New(clk, fmt.Sprintf("ice%02d", global/icebox.NodePorts))
			sim.Boxes = append(sim.Boxes, box)
			srv.AddICEBox(box)
		}
		box := sim.Boxes[len(sim.Boxes)-1]
		if err := box.Connect(global%icebox.NodePorts, n); err != nil {
			return nil, err
		}

		var plugins *monitor.PluginSet
		if cfg.Plugins != nil {
			plugins = cfg.Plugins(i)
		}
		acfg := AgentConfig{
			Node:        n,
			Period:      cfg.Period,
			Heartbeat:   cfg.Heartbeat,
			Plugins:     plugins,
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
			mon = net.Attach(simnet.Addr(name+".mon"), simnet.FastEthernet)
			wc = newWireClient(name, cfg.WireV1 == nil || !cfg.WireV1(i))
			monAddr := cfg.MonAddr
			acfg.SendFrame = func(f transmit.Frame) error {
				// A down local link is an error the agent can see (bank +
				// back off); in-flight loss is silent — that is the gap
				// detection's job. The link check runs before marshal so a
				// visible failure never advances the v2 predictor chain.
				// The payload is copied to a fresh buffer because delivery
				// is asynchronous and the marshal scratch (like f.Values)
				// is reused by the next frame.
				if !mon.Up() {
					return ErrLinkDown
				}
				payload := wc.marshal(f)
				b := append([]byte(nil), payload...)
				mon.Send(monAddr, b, len(b)+monOverheadBytes)
				return nil
			}
		}
		var err error
		if agent, err = NewAgent(clk, acfg); err != nil {
			return nil, err
		}
		if mon != nil {
			mon.OnReceive(func(p simnet.Packet) {
				b, ok := p.Payload.([]byte)
				if !ok {
					return
				}
				// The wire session consumes version answers, dict acks,
				// and dict resets; resync requests surface to the agent.
				if wc.control(b, int64(clk.Now())) {
					agent.RequestResync()
				}
			})
		}
		sim.Agents = append(sim.Agents, agent)
		sim.wires = append(sim.wires, wc)
	}

	// Server-side UDP-echo sweep: the one probe that works on dead nodes.
	sweep := cfg.EchoSweep
	if sweep == 0 {
		sweep = 5 * time.Second
	}
	if sweep > 0 {
		var tick func()
		tick = func() {
			srv.ProbeConnectivity(func(name string) bool {
				n := sim.byName[name]
				return n != nil && n.Reachable()
			})
			clk.AfterFunc(sweep, tick)
		}
		clk.AfterFunc(sweep, tick)
	}

	// Self-monitoring loop: the server's own telemetry re-enters the
	// pipeline as the MetaNodeName node.
	if cfg.SelfMonitor > 0 {
		sim.Meta = NewMetaMonitor(srv)
		var mtick func()
		mtick = func() {
			sim.Meta.Tick()
			clk.AfterFunc(cfg.SelfMonitor, mtick)
		}
		clk.AfterFunc(cfg.SelfMonitor, mtick)
	}
	return sim, nil
}

// PowerOnAll starts a sequenced power-up on every ICE Box.
func (s *Sim) PowerOnAll() {
	for _, b := range s.Boxes {
		b.PowerOnAll()
	}
}

// Advance moves virtual time.
func (s *Sim) Advance(d time.Duration) { s.Clk.Advance(d) }

// Node returns a node by name.
func (s *Sim) Node(name string) *node.Node { return s.byName[name] }

// NodeImage returns the image ID last cloned onto a node.
func (s *Sim) NodeImage(name string) string { return s.nodeImage[name] }

// Clone distributes img to the named nodes with the reliable-multicast
// protocol over the sim's Fast Ethernet, taking the targets out of service
// for the duration. It runs to completion on the virtual clock and
// returns the session result.
func (s *Sim) Clone(img *image.Image, nodeNames []string, loss float64, params cloning.Params) (cloning.Result, error) {
	return s.clone(img, nil, nodeNames, loss, params)
}

// Update distributes only the delta between each target's current image
// (which must be old) and img — the §4 parallel kernel/package update.
func (s *Sim) Update(old, img *image.Image, nodeNames []string, loss float64, params cloning.Params) (cloning.Result, error) {
	return s.clone(img, old, nodeNames, loss, params)
}

func (s *Sim) clone(img, old *image.Image, nodeNames []string, loss float64, params cloning.Params) (cloning.Result, error) {
	if len(nodeNames) == 0 {
		return cloning.Result{}, fmt.Errorf("core: clone needs target nodes")
	}
	master := s.Net.Endpoint(s.masterAddr)
	group := "clone"
	addrs := make([]simnet.Addr, 0, len(nodeNames))
	for _, name := range nodeNames {
		n := s.byName[name]
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
		name := name
		n := s.byName[name]
		ep := s.Net.Endpoint(simnet.Addr(name))
		// Each client flashes at its own node's disk rate and reboots with
		// its own firmware's cold-start time.
		clientParams := params
		clientParams.DiskBandwidth = n.DiskBandwidth()
		clientParams.RebootTime = n.BootTime()
		client := cloning.NewUpdateClient(s.Clk, ep, img, old, clientParams)
		client.ReportUpTo("master")
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

// Stop shuts down all agents (test hygiene).
func (s *Sim) Stop() {
	for _, a := range s.Agents {
		a.Stop()
	}
}
