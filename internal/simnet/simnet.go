// Package simnet simulates a switched cluster network on the virtual
// clock: per-endpoint full-duplex links with finite bandwidth, propagation
// latency, probabilistic packet loss, and true multicast.
//
// The fidelity target is the paper's §4 cloning claim — "using a multicast
// mechanism, even a single fast ethernet is sufficient to clone several
// hundred nodes simultaneously" — which is purely a bandwidth-sharing
// property: a multicast transmission occupies the sender's uplink once no
// matter how many receivers it reaches, while unicast pays per receiver.
// The model therefore serializes each endpoint's transmit and receive
// paths at its link rate and delivers through an idealized
// store-and-forward switch.
package simnet

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"clusterworx/internal/clock"
)

// Addr identifies an endpoint ("node007", "master", "icebox3").
type Addr string

// Common link rates in bits per second.
const (
	FastEthernet = 100e6  // the paper's cloning substrate
	GigE         = 1000e6 //
	Serial115k   = 115200 // ICE Box console links
)

// Packet is a delivered message.
type Packet struct {
	Src     Addr
	Dst     Addr   // empty for multicast
	Group   string // non-empty for multicast
	Payload any
	Size    int // bytes on the wire
}

// Handler consumes a delivered packet. Handlers run on the virtual clock's
// event loop.
type Handler func(pkt Packet)

// Stats counts an endpoint's traffic.
type Stats struct {
	TxPackets, TxBytes int64
	RxPackets, RxBytes int64
	Dropped            int64 // packets addressed to this endpoint lost in flight
	// RxQueuedNs accumulates time packets spent waiting for this
	// endpoint's downlink after arriving — the fan-in congestion signal:
	// a receiver whose senders outrun its link rate shows it here long
	// before anything is dropped (the E23 federation experiment's
	// flat-master bottleneck).
	RxQueuedNs int64
}

// Network is the fabric. Create with New, then Attach endpoints.
type Network struct {
	mu  sync.Mutex
	clk *clock.Clock
	eps map[Addr]*Endpoint
	// groups holds each multicast group's members in address order, so a
	// multicast draws its per-receiver loss in the same order every run.
	groups  map[string][]Addr
	rng     *rand.Rand
	loss    float64
	latency time.Duration
}

// New returns a lossless fabric with the given one-way propagation latency.
func New(clk *clock.Clock, latency time.Duration) *Network {
	return &Network{
		clk:     clk,
		eps:     make(map[Addr]*Endpoint),
		groups:  make(map[string][]Addr),
		rng:     rand.New(rand.NewSource(1)),
		latency: latency,
	}
}

// SetLoss sets the independent per-receiver packet drop probability.
// The closed interval [0,1] is accepted: p == 1 is a full blackhole, a
// legitimate fault-injection setting.
func (n *Network) SetLoss(p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("simnet: loss probability %v out of [0,1]", p))
	}
	n.mu.Lock()
	n.loss = p
	n.mu.Unlock()
}

// SetLatency changes the one-way propagation latency (fault injection: a
// degraded or rerouted fabric). Packets already scheduled keep their old
// arrival times.
func (n *Network) SetLatency(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simnet: negative latency %v", d))
	}
	n.mu.Lock()
	n.latency = d
	n.mu.Unlock()
}

// ScheduleAt runs fn against the network at absolute virtual time t —
// the building block of loss/latency/partition fault schedules:
//
//	net.ScheduleAt(10*time.Second, func(n *Network) { n.SetLoss(0.2) })
//	net.ScheduleAt(30*time.Second, func(n *Network) { n.Endpoint("node003").SetUp(false) })
func (n *Network) ScheduleAt(t time.Duration, fn func(*Network)) {
	n.clk.At(t, func() { fn(n) })
}

// Seed reseeds the loss generator for reproducible experiments.
func (n *Network) Seed(seed int64) {
	n.mu.Lock()
	n.rng = rand.New(rand.NewSource(seed))
	n.mu.Unlock()
}

// Attach creates an endpoint with the given link rate in bits per second.
// Attaching an existing address panics: addresses are physical ports.
func (n *Network) Attach(addr Addr, bitsPerSec float64) *Endpoint {
	if bitsPerSec <= 0 {
		panic("simnet: non-positive bandwidth")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.eps[addr]; dup {
		panic(fmt.Sprintf("simnet: duplicate endpoint %q", addr))
	}
	ep := &Endpoint{net: n, addr: addr, bps: bitsPerSec, up: true}
	n.eps[addr] = ep
	return ep
}

// Endpoint returns the endpoint at addr, or nil.
func (n *Network) Endpoint(addr Addr) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eps[addr]
}

// Join adds addr to a multicast group.
func (n *Network) Join(group string, addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	g := n.groups[group]
	if i, found := slices.BinarySearch(g, addr); !found {
		n.groups[group] = slices.Insert(g, i, addr)
	}
}

// Leave removes addr from a multicast group.
func (n *Network) Leave(group string, addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	g := n.groups[group]
	if i, found := slices.BinarySearch(g, addr); found {
		n.groups[group] = slices.Delete(g, i, i+1)
	}
}

// GroupSize returns the number of members in a group.
func (n *Network) GroupSize(group string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.groups[group])
}

// Endpoint is one attached NIC. All methods must be called from the clock
// goroutine (simnet is single-threaded by design, like the clock).
type Endpoint struct {
	net      *Network
	addr     Addr
	bps      float64
	up       bool
	handler  Handler
	txFreeAt time.Duration
	rxFreeAt time.Duration
	stats    Stats
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() Addr { return e.addr }

// OnReceive installs the delivery handler.
func (e *Endpoint) OnReceive(h Handler) { e.handler = h }

// SetUp marks the link up or down. A down endpoint neither sends nor
// receives; in-flight packets to it are lost.
func (e *Endpoint) SetUp(up bool) {
	e.net.mu.Lock()
	e.up = up
	e.net.mu.Unlock()
}

// Up reports link state.
func (e *Endpoint) Up() bool {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	return e.up
}

// Stats returns a copy of the traffic counters.
func (e *Endpoint) Stats() Stats {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	return e.stats
}

// txTime is the serialization delay of size bytes at the link rate.
func (e *Endpoint) txTime(size int) time.Duration {
	return time.Duration(float64(size*8) / e.bps * float64(time.Second))
}

// Send transmits a unicast packet. It returns the virtual time at which
// the sender's uplink becomes free again — the pacing signal bulk senders
// use to saturate without overrunning their own link. Unknown destinations
// and down links consume air time but deliver nothing.
func (e *Endpoint) Send(dst Addr, payload any, size int) time.Duration {
	n := e.net
	n.mu.Lock()
	txDone := e.reserveTxLocked(size)
	if !e.up {
		n.mu.Unlock()
		return txDone
	}
	e.stats.TxPackets++
	e.stats.TxBytes += int64(size)
	target := n.eps[dst]
	drop := target == nil || n.rng.Float64() < n.loss
	pkt := Packet{Src: e.addr, Dst: dst, Payload: payload, Size: size}
	n.scheduleDeliveryLocked(target, pkt, txDone, drop)
	n.mu.Unlock()
	return txDone
}

// Multicast transmits one packet to every member of group except the
// sender, walking members in address order. The sender's uplink is
// occupied exactly once regardless of group size; each receiver suffers
// loss independently.
func (e *Endpoint) Multicast(group string, payload any, size int) time.Duration {
	n := e.net
	n.mu.Lock()
	txDone := e.reserveTxLocked(size)
	if !e.up {
		n.mu.Unlock()
		return txDone
	}
	e.stats.TxPackets++
	e.stats.TxBytes += int64(size)
	pkt := Packet{Src: e.addr, Group: group, Payload: payload, Size: size}
	for _, addr := range n.groups[group] {
		if addr == e.addr {
			continue
		}
		target := n.eps[addr]
		drop := target == nil || n.rng.Float64() < n.loss
		n.scheduleDeliveryLocked(target, pkt, txDone, drop)
	}
	n.mu.Unlock()
	return txDone
}

// reserveTxLocked serializes a transmission on the uplink and returns its
// completion time.
func (e *Endpoint) reserveTxLocked(size int) time.Duration {
	now := e.net.clk.Now()
	start := e.txFreeAt
	if start < now {
		start = now
	}
	done := start + e.txTime(size)
	e.txFreeAt = done
	return done
}

// scheduleDeliveryLocked books the packet through the receiver's downlink
// and schedules the handler. Lost or undeliverable packets still count as
// drops on the receiver when it exists.
func (n *Network) scheduleDeliveryLocked(target *Endpoint, pkt Packet, txDone time.Duration, drop bool) {
	if target == nil {
		return
	}
	if drop || !target.up {
		target.stats.Dropped++
		return
	}
	arrival := txDone + n.latency
	start := target.rxFreeAt
	if start < arrival {
		start = arrival
	}
	target.stats.RxQueuedNs += int64(start - arrival)
	done := start + target.txTime(pkt.Size)
	target.rxFreeAt = done
	n.clk.At(done, func() {
		n.mu.Lock()
		h := target.handler
		up := target.up
		if up {
			target.stats.RxPackets++
			target.stats.RxBytes += int64(pkt.Size)
		} else {
			target.stats.Dropped++
		}
		n.mu.Unlock()
		if up && h != nil {
			h(pkt)
		}
	})
}
