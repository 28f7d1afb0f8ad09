package simnet

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"clusterworx/internal/clock"
)

func pair(t *testing.T, latency time.Duration, bps float64) (*clock.Clock, *Network, *Endpoint, *Endpoint) {
	t.Helper()
	clk := clock.New()
	net := New(clk, latency)
	a := net.Attach("a", bps)
	b := net.Attach("b", bps)
	return clk, net, a, b
}

func TestUnicastDelivery(t *testing.T) {
	clk, _, a, b := pair(t, time.Millisecond, FastEthernet)
	var got []Packet
	b.OnReceive(func(p Packet) { got = append(got, p) })
	a.Send("b", "hello", 1000)
	clk.RunUntilIdle()
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	p := got[0]
	if p.Src != "a" || p.Dst != "b" || p.Payload != "hello" || p.Size != 1000 {
		t.Fatalf("packet = %+v", p)
	}
	// 1000 B at 100 Mbps = 80 µs serialize ×2 (tx+rx) + 1 ms latency.
	want := 2*80*time.Microsecond + time.Millisecond
	if clk.Now() != want {
		t.Fatalf("delivery at %v, want %v", clk.Now(), want)
	}
}

func TestSendPacing(t *testing.T) {
	_, _, a, _ := pair(t, 0, FastEthernet)
	d1 := a.Send("b", 1, 12500) // 1 ms at 100 Mbps
	d2 := a.Send("b", 2, 12500)
	if d1 != time.Millisecond {
		t.Fatalf("first txDone = %v, want 1ms", d1)
	}
	if d2 != 2*time.Millisecond {
		t.Fatalf("second txDone = %v, want 2ms (serialized)", d2)
	}
}

func TestSendToUnknownStillPaces(t *testing.T) {
	clk, _, a, _ := pair(t, 0, FastEthernet)
	d := a.Send("ghost", nil, 12500)
	if d != time.Millisecond {
		t.Fatalf("txDone = %v", d)
	}
	clk.RunUntilIdle() // nothing to deliver, no panic
}

func TestMulticastSharesUplink(t *testing.T) {
	clk := clock.New()
	net := New(clk, 0)
	master := net.Attach("m", FastEthernet)
	const n = 50
	delivered := 0
	for i := 0; i < n; i++ {
		addr := Addr(rune('A'+i%26)) + Addr(rune('a'+i/26))
		ep := net.Attach(addr, FastEthernet)
		ep.OnReceive(func(Packet) { delivered++ })
		net.Join("clone", addr)
	}
	txDone := master.Multicast("clone", "chunk", 12500)
	if txDone != time.Millisecond {
		t.Fatalf("multicast txDone = %v, want 1ms: uplink must be paid once", txDone)
	}
	clk.RunUntilIdle()
	if delivered != n {
		t.Fatalf("delivered to %d of %d members", delivered, n)
	}
	if s := master.Stats(); s.TxPackets != 1 || s.TxBytes != 12500 {
		t.Fatalf("master stats %+v; multicast must count one transmission", s)
	}
}

func TestMulticastExcludesSender(t *testing.T) {
	clk, net, a, b := pair(t, 0, FastEthernet)
	net.Join("g", "a")
	net.Join("g", "b")
	aGot, bGot := 0, 0
	a.OnReceive(func(Packet) { aGot++ })
	b.OnReceive(func(Packet) { bGot++ })
	a.Multicast("g", nil, 100)
	clk.RunUntilIdle()
	if aGot != 0 || bGot != 1 {
		t.Fatalf("a=%d b=%d, want 0/1", aGot, bGot)
	}
}

func TestLeaveGroup(t *testing.T) {
	clk, net, a, b := pair(t, 0, FastEthernet)
	net.Join("g", "b")
	if net.GroupSize("g") != 1 {
		t.Fatal("join failed")
	}
	net.Leave("g", "b")
	got := 0
	b.OnReceive(func(Packet) { got++ })
	a.Multicast("g", nil, 100)
	clk.RunUntilIdle()
	if got != 0 {
		t.Fatal("delivered to departed member")
	}
}

func TestDownEndpointDropsTraffic(t *testing.T) {
	clk, _, a, b := pair(t, 0, FastEthernet)
	got := 0
	b.OnReceive(func(Packet) { got++ })
	b.SetUp(false)
	a.Send("b", nil, 100)
	clk.RunUntilIdle()
	if got != 0 {
		t.Fatal("down endpoint received")
	}
	if b.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d", b.Stats().Dropped)
	}
	b.SetUp(true)
	if !b.Up() {
		t.Fatal("SetUp(true) did not take")
	}
	a.Send("b", nil, 100)
	clk.RunUntilIdle()
	if got != 1 {
		t.Fatal("recovered endpoint did not receive")
	}
}

func TestDownSenderTransmitsNothing(t *testing.T) {
	clk, _, a, b := pair(t, 0, FastEthernet)
	got := 0
	b.OnReceive(func(Packet) { got++ })
	a.SetUp(false)
	a.Send("b", nil, 100)
	clk.RunUntilIdle()
	if got != 0 || a.Stats().TxPackets != 0 {
		t.Fatal("down sender transmitted")
	}
}

func TestLossDropsFraction(t *testing.T) {
	clk := clock.New()
	net := New(clk, 0)
	net.Seed(42)
	net.SetLoss(0.3)
	a := net.Attach("a", GigE)
	b := net.Attach("b", GigE)
	got := 0
	b.OnReceive(func(Packet) { got++ })
	const sent = 2000
	for i := 0; i < sent; i++ {
		a.Send("b", i, 100)
	}
	clk.RunUntilIdle()
	frac := float64(got) / sent
	if frac < 0.65 || frac > 0.75 {
		t.Fatalf("delivered fraction %.3f with loss 0.3", frac)
	}
	if int64(got)+b.Stats().Dropped != sent {
		t.Fatalf("got %d + dropped %d != sent %d", got, b.Stats().Dropped, sent)
	}
}

// TestEndpointLossDrawsAsFabricLoss: loss on the receiving endpoint alone
// drops exactly the packets the same loss on the fabric alone drops, one
// draw a packet either way, and the two together drop as independent losses.
func TestEndpointLossDrawsAsFabricLoss(t *testing.T) {
	delivered := func(fabric, link float64) (got []int) {
		clk := clock.New()
		net := New(clk, 0)
		net.Seed(42)
		net.SetLoss(fabric)
		a := net.Attach("a", GigE)
		b := net.Attach("b", GigE)
		b.SetLoss(link)
		b.OnReceive(func(p Packet) { got = append(got, p.Payload.(int)) })
		for i := 0; i < 2000; i++ {
			a.Send("b", i, 100)
		}
		clk.RunUntilIdle()
		return got
	}
	onFabric, onLink := delivered(0.3, 0), delivered(0, 0.3)
	if !slices.Equal(onFabric, onLink) {
		t.Fatalf("loss 0.3 on the link delivered %d packets, on the fabric %d, or other ones", len(onLink), len(onFabric))
	}
	if frac := float64(len(delivered(0.2, 0.25))) / 2000; frac < 0.55 || frac > 0.65 {
		t.Fatalf("delivered fraction %.3f with fabric loss 0.2 and link loss 0.25, want ≈0.6", frac)
	}
}

func TestLossValidation(t *testing.T) {
	net := New(clock.New(), 0)
	for _, bad := range []float64{-0.1, 1.01, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetLoss(%v) did not panic", bad)
				}
			}()
			net.SetLoss(bad)
		}()
	}
	// The closed interval ends are legal: 1.0 is a full blackhole.
	net.SetLoss(0)
	net.SetLoss(1)
}

func TestBlackholeDropsEverything(t *testing.T) {
	clk := clock.New()
	net := New(clk, 0)
	net.SetLoss(1)
	a := net.Attach("a", GigE)
	b := net.Attach("b", GigE)
	got := 0
	b.OnReceive(func(Packet) { got++ })
	for i := 0; i < 50; i++ {
		a.Send("b", i, 100)
	}
	clk.RunUntilIdle()
	if got != 0 || b.Stats().Dropped != 50 {
		t.Fatalf("blackhole delivered %d, dropped %d", got, b.Stats().Dropped)
	}
}

func TestScheduleAtDrivesFaults(t *testing.T) {
	clk := clock.New()
	net := New(clk, time.Millisecond)
	a := net.Attach("a", GigE)
	b := net.Attach("b", GigE)
	got := 0
	b.OnReceive(func(Packet) { got++ })
	// Schedule: blackhole from 10ms, heal plus latency change at 20ms,
	// partition b from 30ms.
	net.ScheduleAt(10*time.Millisecond, func(n *Network) { n.SetLoss(1) })
	net.ScheduleAt(20*time.Millisecond, func(n *Network) {
		n.SetLoss(0)
		n.SetLatency(2 * time.Millisecond)
	})
	net.ScheduleAt(30*time.Millisecond, func(n *Network) { n.Endpoint("b").SetUp(false) })
	send := func() { a.Send("b", nil, 100) }
	clk.AfterFunc(5*time.Millisecond, send)  // delivered
	clk.AfterFunc(15*time.Millisecond, send) // blackholed
	clk.AfterFunc(25*time.Millisecond, send) // delivered (heal), at 2ms latency
	clk.AfterFunc(35*time.Millisecond, send) // partitioned
	clk.RunUntilIdle()
	if got != 2 {
		t.Fatalf("schedule delivered %d packets, want 2", got)
	}
	if b.Stats().Dropped != 2 {
		t.Fatalf("schedule dropped %d packets, want 2", b.Stats().Dropped)
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	net := New(clock.New(), 0)
	net.Attach("a", GigE)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach did not panic")
		}
	}()
	net.Attach("a", GigE)
}

func TestEndpointLookup(t *testing.T) {
	net := New(clock.New(), 0)
	ep := net.Attach("a", GigE)
	if net.Endpoint("a") != ep {
		t.Fatal("Endpoint lookup failed")
	}
	if net.Endpoint("missing") != nil {
		t.Fatal("missing endpoint not nil")
	}
}

func TestRxSerialization(t *testing.T) {
	// Two fast senders into one receiver: deliveries serialize on the
	// receiver's downlink, so the second arrives one packet-time later.
	clk := clock.New()
	net := New(clk, 0)
	a := net.Attach("a", GigE)
	b := net.Attach("b", GigE)
	c := net.Attach("c", FastEthernet)
	var times []time.Duration
	c.OnReceive(func(Packet) { times = append(times, clk.Now()) })
	a.Send("c", nil, 12500) // 0.1 ms on GigE uplink, 1 ms on FE downlink
	b.Send("c", nil, 12500)
	clk.RunUntilIdle()
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	gap := times[1] - times[0]
	if gap != time.Millisecond {
		t.Fatalf("delivery gap %v, want 1ms (downlink serialization)", gap)
	}
}

// Property: with zero loss, every packet to a live endpoint is delivered
// exactly once and byte counters balance.
func TestPropertyLosslessConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		clk := clock.New()
		net := New(clk, time.Microsecond)
		a := net.Attach("a", GigE)
		b := net.Attach("b", GigE)
		got := 0
		var rxBytes int64
		b.OnReceive(func(p Packet) { got++; rxBytes += int64(p.Size) })
		var txBytes int64
		for _, s := range sizes {
			size := int(s)%4096 + 1
			txBytes += int64(size)
			a.Send("b", nil, size)
		}
		clk.RunUntilIdle()
		st := a.Stats()
		return got == len(sizes) && rxBytes == txBytes && st.TxBytes == txBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: multicast transmission time is independent of group size.
func TestPropertyMulticastFlat(t *testing.T) {
	f := func(members uint8) bool {
		n := int(members)%200 + 1
		clk := clock.New()
		net := New(clk, 0)
		m := net.Attach("m", FastEthernet)
		for i := 0; i < n; i++ {
			addr := Addr("n" + string(rune('0'+i/100)) + string(rune('0'+i/10%10)) + string(rune('0'+i%10)))
			net.Attach(addr, FastEthernet)
			net.Join("g", addr)
		}
		txDone := m.Multicast("g", nil, 12500)
		return txDone == time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRxQueuedNsCountsFanInCongestion(t *testing.T) {
	clk := clock.New()
	net := New(clk, 0)
	master := net.Attach("master", FastEthernet)
	master.OnReceive(func(Packet) {})
	senders := []*Endpoint{net.Attach("s0", FastEthernet), net.Attach("s1", FastEthernet), net.Attach("s2", FastEthernet)}
	// Three senders transmit simultaneously: their tx windows overlap, so
	// the master's downlink serializes them — the 2nd and 3rd packet wait
	// one and two serialization times respectively (12500 B = 1 ms each).
	for _, s := range senders {
		s.Send("master", nil, 12500)
	}
	clk.RunUntilIdle()
	st := master.Stats()
	if st.RxPackets != 3 {
		t.Fatalf("RxPackets = %d, want 3", st.RxPackets)
	}
	want := int64(3 * time.Millisecond) // 1 ms + 2 ms of queueing
	if st.RxQueuedNs != want {
		t.Fatalf("RxQueuedNs = %d, want %d", st.RxQueuedNs, want)
	}
	// A lone, unhurried sender queues nothing.
	for _, s := range senders {
		s.Send("master", nil, 12500)
		clk.RunUntilIdle()
	}
	if got := master.Stats().RxQueuedNs; got != want {
		t.Fatalf("uncongested sends queued time: %d, want still %d", got, want)
	}
}
