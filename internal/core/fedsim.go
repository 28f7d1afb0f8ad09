package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/consolidate"
	"clusterworx/internal/history"
	"clusterworx/internal/simnet"
	"clusterworx/internal/transmit"
)

// FedSim builds a hierarchical federation on one virtual clock and one
// simulated fabric: a tree of Servers where the bottom tier ingests
// (simulated or synthetic) agents and every tier forwards its
// consolidated change stream upstream over batched uplinks, while
// materializing per-subtree rollup aggregates. Tiers == 1 degenerates
// to a single flat server — the ablation control the E23 experiment
// measures against.
//
// Tier naming, bottom up: leaf servers "leafNNN" publish "rack/leafNNN"
// aggregates, mid servers "midNN" publish "row/midNN", and the root
// publishes "grid/root". Every tier mirrors its full subtree (raw nodes
// included), so status, watch streams, and history work at any tier for
// that tier's scope; the rollups exist so upper-tier dashboards can
// answer subtree questions without touching 100k raw series.

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

// FedConfig sizes a federated simulated cluster.
type FedConfig struct {
	// Fanout is the number of children under each upper-tier server.
	Fanout int
	// Tiers is the number of server tiers (1 = flat single server).
	Tiers int
	// NodesPerLeaf is the number of monitored nodes per bottom-tier
	// server. Total nodes = Fanout^(Tiers-1) * NodesPerLeaf.
	NodesPerLeaf int
	// Synthetic skips the full per-node simulation (node.Node, ICE
	// boxes, agents): monitored nodes exist only as sender endpoints,
	// and the caller drives rounds with InjectRound. This is the 100k
	// benchmark mode; correctness tests use real agents.
	Synthetic bool

	// Agent-tier knobs, passed through to SimConfig in real-agent mode.
	Period      time.Duration
	Heartbeat   time.Duration
	AntiEntropy time.Duration
	EchoSweep   time.Duration
	WireV1      func(globalNode int) bool

	// UplinkPeriod is the flush cadence of every tier's uplink (default
	// 100ms). Tiers are phase-staggered within the period so a change
	// crosses one hop per sub-phase instead of waiting a full period at
	// each tier.
	UplinkPeriod time.Duration
	// UplinkAntiEntropy forces periodic snap-all flushes (0 disables).
	UplinkAntiEntropy time.Duration
	// UplinkMaxBatch bounds node sections per batch frame (0 = default).
	UplinkMaxBatch int
	// UplinkV1 pins selected leaf uplinks to v1 per-node frames (the
	// mixed-version fault case; mid-tier uplinks always batch).
	UplinkV1 func(leaf int) bool

	// MirrorCapacity is the retained-point history capacity for mirrored
	// raw-node series at upper tiers (0 = full DefaultCapacity). Aggregates
	// always get full depth — they are the series upper tiers exist to
	// serve; the mirrors are for drill-down and can be shallow.
	MirrorCapacity int

	Seed int64
}

// synthNode is one synthetic monitored node: a sender endpoint and its
// wire sequence.
type synthNode struct {
	name   string
	ep     *simnet.Endpoint
	global int
	seq    uint64
}

// FedServer is one tier member.
type FedServer struct {
	Name   string
	Level  int // 0 = agent-facing tier, Tiers-1 = root
	Server *Server
	Uplink *Uplink // nil at the root
	Rollup *Rollup
	// Sim is the full agent simulation under a bottom-tier server
	// (real-agent mode only).
	Sim *Sim
	// Mon is the server's monitoring-plane endpoint (agent frames and
	// child uplink batches share it).
	Mon *simnet.Endpoint
	// UpEp is the child-side endpoint its uplink sends from (nil at the
	// root).
	UpEp *simnet.Endpoint

	// rxPackets counts monitoring-plane packets delivered to this
	// server — the flat control's propagation counter.
	rxPackets atomic.Int64

	synth []synthNode
	buf   []byte
}

// RxPackets reports monitoring-plane packets delivered to this server.
func (fs *FedServer) RxPackets() int64 { return fs.rxPackets.Load() }

// FedSim is the assembled federation.
type FedSim struct {
	Clk *clock.Clock
	Net *simnet.Network
	// Levels[0] is the agent-facing tier, Levels[Tiers-1] == {Root}.
	Levels [][]*FedServer
	Leaves []*FedServer
	Root   *FedServer

	cfg   FedConfig
	round uint64
}

// NewFedSim builds the federation powered off (real-agent mode: call
// PowerOnAll) and installs the rollup/flush timer chains.
func NewFedSim(cfg FedConfig) (*FedSim, error) {
	if cfg.Tiers < 1 {
		return nil, fmt.Errorf("core: fedsim needs at least one tier")
	}
	if cfg.Tiers > 1 && cfg.Fanout < 1 {
		return nil, fmt.Errorf("core: fedsim fanout must be positive")
	}
	if cfg.NodesPerLeaf < 1 {
		return nil, fmt.Errorf("core: fedsim needs nodes per leaf")
	}
	if cfg.UplinkPeriod <= 0 {
		cfg.UplinkPeriod = 100 * time.Millisecond
	}

	clk := clock.New()
	net := simnet.New(clk, 100*time.Microsecond)
	net.Seed(cfg.Seed + 99)

	f := &FedSim{Clk: clk, Net: net, cfg: cfg}

	// Build bottom-up: level l has Fanout^(Tiers-1-l) servers.
	count := 1
	for l := 0; l < cfg.Tiers-1; l++ {
		count *= cfg.Fanout
	}
	for l := 0; l < cfg.Tiers; l++ {
		tier := make([]*FedServer, 0, count)
		for i := 0; i < count; i++ {
			fs, err := f.buildServer(l, i, count)
			if err != nil {
				return nil, err
			}
			tier = append(tier, fs)
		}
		f.Levels = append(f.Levels, tier)
		if count > 1 {
			count /= cfg.Fanout
		}
	}
	f.Leaves = f.Levels[0]
	f.Root = f.Levels[cfg.Tiers-1][0]

	// Uplinks: child i at level l feeds parent i/Fanout at level l+1.
	for l := 0; l < cfg.Tiers-1; l++ {
		for i, child := range f.Levels[l] {
			parent := f.Levels[l+1][i/cfg.Fanout]
			f.connectUplink(child, parent, l == 0 && cfg.UplinkV1 != nil && cfg.UplinkV1(i))
		}
	}

	// Rollup + flush timer chains, phase-staggered by level: with period
	// P and T tiers, level l acts at k*P + (l+1)*P/(T+1), so a change
	// injected at k*P crosses every hop within one period.
	period := cfg.UplinkPeriod
	for l := 0; l < cfg.Tiers; l++ {
		phase := period * time.Duration(l+1) / time.Duration(cfg.Tiers+1)
		for _, fs := range f.Levels[l] {
			fs := fs
			var tick func()
			tick = func() {
				fs.Rollup.Tick()
				if fs.Uplink != nil {
					fs.Uplink.Flush(int64(clk.Now())) //nolint:errcheck // send failures re-mark; stats carry the count
				}
				clk.AfterFunc(period, tick)
			}
			clk.AfterFunc(phase, tick)
		}
	}
	return f, nil
}

// buildServer constructs one tier member. tierSize is the member count
// of its level (for name formatting).
func (f *FedSim) buildServer(level, idx, tierSize int) (*FedServer, error) {
	cfg := f.cfg
	root := level == cfg.Tiers-1
	var name string
	switch {
	case root:
		name = "root"
	case level == 0:
		name = fmt.Sprintf("leaf%03d", idx)
	default:
		name = fmt.Sprintf("mid%02d", idx)
	}
	fs := &FedServer{Name: name, Level: level}

	if level == 0 {
		// Agent-facing tier: a full Sim (real agents) or a bare server
		// with synthetic sender endpoints.
		first := idx * cfg.NodesPerLeaf
		if cfg.Synthetic {
			fs.Server = NewServer(ServerConfig{Cluster: name, Now: f.Clk.Now})
			fs.Mon = attachWireReceiver(f.Net, simnet.Addr(name+".mon"), fs.Server, &fs.rxPackets)
			for i := 0; i < cfg.NodesPerLeaf; i++ {
				global := first + i
				nname := fmt.Sprintf("node%03d", global)
				ep := f.Net.Attach(simnet.Addr(nname+".mon"), simnet.FastEthernet)
				fs.synth = append(fs.synth, synthNode{name: nname, ep: ep, global: global})
			}
		} else {
			sim, err := NewSim(SimConfig{
				Nodes:       cfg.NodesPerLeaf,
				Cluster:     name,
				Period:      cfg.Period,
				Heartbeat:   cfg.Heartbeat,
				Transport:   TransportSimnet,
				AntiEntropy: cfg.AntiEntropy,
				EchoSweep:   cfg.EchoSweep,
				Seed:        cfg.Seed,
				Clock:       f.Clk,
				Net:         f.Net,
				MasterAddr:  simnet.Addr(name + ".data"),
				MonAddr:     simnet.Addr(name + ".mon"),
				FirstNode:   first,
				WireV1: func(i int) bool {
					return cfg.WireV1 != nil && cfg.WireV1(first+i)
				},
			})
			if err != nil {
				return nil, err
			}
			fs.Sim = sim
			fs.Server = sim.Server
			fs.Mon = f.Net.Endpoint(simnet.Addr(name + ".mon"))
		}
		fs.Rollup = NewRollup(fs.Server, AggPrefix(0)+name, "")
		return fs, nil
	}

	// Upper tiers: a bare server mirroring its subtree. Raw-node mirror
	// series can be shallow (MirrorCapacity); aggregate series — the
	// reason this tier exists — keep full depth.
	fs.Server = NewServer(ServerConfig{Cluster: name, Now: f.Clk.Now, HistoryCapacity: cfg.MirrorCapacity})
	if cfg.MirrorCapacity > 0 {
		fs.Server.History().SetCapacityFunc(func(nodeName string) int {
			if consolidate.HasRollupPrefix(nodeName) {
				return history.DefaultCapacity
			}
			return 0 // store default (MirrorCapacity)
		})
	}
	fs.Mon = attachWireReceiver(f.Net, simnet.Addr(name+".mon"), fs.Server, &fs.rxPackets)
	if root {
		childPrefix := ""
		if cfg.Tiers > 1 {
			childPrefix = AggPrefix(cfg.Tiers - 2)
		}
		fs.Rollup = NewRollup(fs.Server, RootAggNode, childPrefix)
	} else {
		fs.Rollup = NewRollup(fs.Server, AggPrefix(level)+name, AggPrefix(level-1))
	}
	return fs, nil
}

// connectUplink wires child→parent: a dedicated sender endpoint, the
// Send closure (link-down aware, copying because fabric delivery is
// asynchronous), and the control back-channel.
func (f *FedSim) connectUplink(child, parent *FedServer, v1Only bool) {
	upEp := f.Net.Attach(simnet.Addr(child.Name+".up"), simnet.FastEthernet)
	child.UpEp = upEp
	parentMon := simnet.Addr(parent.Name + ".mon")
	u := NewUplink(child.Server, UplinkConfig{
		Name:        child.Name,
		V1Only:      v1Only,
		MaxBatch:    f.cfg.UplinkMaxBatch,
		AntiEntropy: f.cfg.UplinkAntiEntropy,
		Send: func(payload []byte) error {
			if !upEp.Up() {
				return ErrLinkDown
			}
			b := append([]byte(nil), payload...)
			upEp.Send(parentMon, b, len(b)+monOverheadBytes)
			return nil
		},
	})
	clk := f.Clk
	uplink := u
	upEp.OnReceive(func(p simnet.Packet) {
		b, ok := p.Payload.([]byte)
		if !ok {
			return
		}
		uplink.HandleControl(b, int64(clk.Now()))
	})
	child.Uplink = u
	child.Server.SetUplink(u)
}

// attachWireReceiver attaches addr to the fabric and dispatches arriving
// payloads to per-source wire sessions feeding srv — the same receive
// loop NewSim installs for agent traffic, reused by every federation
// tier (agent frames and uplink batches share the entry point; handle
// routes on the payload). counter, when non-nil, counts delivered
// packets.
func attachWireReceiver(net *simnet.Network, addr simnet.Addr, srv *Server, counter *atomic.Int64) *simnet.Endpoint {
	ep := net.Attach(addr, simnet.FastEthernet)
	sessions := make(map[simnet.Addr]*wireServer)
	ep.OnReceive(func(p simnet.Packet) {
		b, ok := p.Payload.([]byte)
		if !ok {
			return
		}
		if counter != nil {
			counter.Add(1)
		}
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
func (f *FedSim) TotalNodes() int {
	return len(f.Leaves) * f.cfg.NodesPerLeaf
}

// PowerOnAll powers every simulated node (real-agent mode).
func (f *FedSim) PowerOnAll() {
	for _, leaf := range f.Leaves {
		if leaf.Sim != nil {
			leaf.Sim.PowerOnAll()
		}
	}
}

// Advance moves virtual time.
func (f *FedSim) Advance(d time.Duration) { f.Clk.Advance(d) }

// Stop shuts down all leaf agents (test hygiene).
func (f *FedSim) Stop() {
	for _, leaf := range f.Leaves {
		if leaf.Sim != nil {
			leaf.Sim.Stop()
		}
	}
}

// InjectRound drives one synthetic monitoring round: every node sends
// one frame (a sequenced snapshot on the first round, then single-value
// deltas whose value changes every round, so per-hop suppression has
// exactly one change per node to forward). Returns frames sent. Must be
// called between clock advances (the fabric is clock-threaded).
func (f *FedSim) InjectRound() int {
	f.round++
	sent := 0
	for _, leaf := range f.Leaves {
		for i := range leaf.synth {
			sn := &leaf.synth[i]
			sn.seq++
			fr := transmit.Frame{
				Node: sn.name,
				Seq:  sn.seq,
				Values: []consolidate.Value{
					consolidate.NumValue("cpu.load", consolidate.Dynamic, SynthValue(sn.global, f.round)),
				},
			}
			if sn.seq == 1 {
				fr.Kind = transmit.FrameSnapshot
				fr.Values = append(fr.Values,
					consolidate.NumValue("mem.total", consolidate.Static, 1024),
				)
			}
			leaf.buf = transmit.MarshalFrame(leaf.buf[:0], fr)
			b := append([]byte(nil), leaf.buf...)
			sn.ep.Send(simnet.Addr(leaf.Name+".mon"), b, len(b)+monOverheadBytes)
			sent++
		}
	}
	return sent
}

// SynthValue is the deterministic per-node workload: it changes for
// every node on every round, so a federated run and a flat control
// inject byte-identical value streams.
func SynthValue(global int, round uint64) float64 {
	return float64((uint64(global)*7+round*13)%1000) / 1000
}

// Round reports the number of injected synthetic rounds.
func (f *FedSim) Round() uint64 { return f.round }
