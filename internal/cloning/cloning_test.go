package cloning

import (
	"testing"
	"testing/quick"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/image"
	"clusterworx/internal/simnet"
)

// smallImage returns a 4 MiB image with 64 KiB chunks (64 chunks): big
// enough to exercise pacing, small enough for fast tests.
func smallImage() *image.Image {
	return image.New("test-os", "1.0", image.BootDisk, 4<<20)
}

func TestMulticastLosslessAllNodesUp(t *testing.T) {
	res := RunMulticast(smallImage(), 10, 0, 1, Params{})
	if len(res.NodeUp) != 10 {
		t.Fatalf("up nodes = %d, want 10", len(res.NodeUp))
	}
	if res.AllData == 0 || res.AllUp <= res.AllData {
		t.Fatalf("phase times: data %v, up %v", res.AllData, res.AllUp)
	}
	if res.RepairChunks != 0 {
		t.Fatalf("lossless run repaired %d chunks", res.RepairChunks)
	}
	// One poll per node with nothing lost.
	if res.Polls != 10 {
		t.Fatalf("polls = %d, want 10", res.Polls)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
}

func TestMulticastBurstBandwidthBound(t *testing.T) {
	img := smallImage()
	res := RunMulticast(img, 50, 0, 1, Params{})
	// Burst time ≈ image bits / 100 Mbps, independent of node count.
	wantMin := time.Duration(float64(img.Size*8) / 100e6 * float64(time.Second))
	if res.BurstDone < wantMin {
		t.Fatalf("burst %v faster than line rate %v", res.BurstDone, wantMin)
	}
	if res.BurstDone > wantMin*12/10 {
		t.Fatalf("burst %v more than 20%% over line rate %v", res.BurstDone, wantMin)
	}
}

func TestMulticastFlatInNodeCount(t *testing.T) {
	img := smallImage()
	r20 := RunMulticast(img, 20, 0, 1, Params{})
	r100 := RunMulticast(img, 100, 0, 1, Params{})
	// 5x the nodes must cost well under 2x the time (paper: hundreds of
	// nodes on one fast ethernet).
	if r100.AllUp > r20.AllUp*2 {
		t.Fatalf("multicast not flat: 20 nodes %v, 100 nodes %v", r20.AllUp, r100.AllUp)
	}
}

func TestUnicastLinearInNodeCount(t *testing.T) {
	img := smallImage()
	r4 := RunUnicast(img, 4, 0, 1, Params{})
	r16 := RunUnicast(img, 16, 0, 1, Params{})
	if len(r16.NodeUp) != 16 {
		t.Fatalf("unicast up = %d", len(r16.NodeUp))
	}
	// Compare data-completion: the constant flash+reboot tail would mask
	// transfer scaling at small node counts.
	ratio := float64(r16.AllData) / float64(r4.AllData)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("unicast scaling ratio %.2f for 4x nodes; expected near-linear", ratio)
	}
}

func TestMulticastBeatsUnicast(t *testing.T) {
	img := smallImage()
	mc := RunMulticast(img, 30, 0, 1, Params{})
	uc := RunUnicast(img, 30, 0, 1, Params{})
	if mc.AllUp >= uc.AllUp {
		t.Fatalf("multicast %v not faster than unicast %v at 30 nodes", mc.AllUp, uc.AllUp)
	}
	if mc.TotalBytes() >= uc.TotalBytes() {
		t.Fatalf("multicast moved %d bytes, unicast %d", mc.TotalBytes(), uc.TotalBytes())
	}
}

func TestMulticastConvergesUnderLoss(t *testing.T) {
	img := smallImage()
	res := RunMulticast(img, 12, 0.05, 7, Params{})
	if len(res.NodeUp) != 12 {
		t.Fatalf("up = %d under 5%% loss", len(res.NodeUp))
	}
	if res.RepairChunks == 0 {
		t.Fatal("5% loss produced zero repairs")
	}
}

func TestRepairTrafficGrowsWithLoss(t *testing.T) {
	img := smallImage()
	low := RunMulticast(img, 10, 0.02, 3, Params{})
	high := RunMulticast(img, 10, 0.20, 3, Params{})
	if high.RepairBytes <= low.RepairBytes {
		t.Fatalf("repair bytes: 2%% loss %d, 20%% loss %d", low.RepairBytes, high.RepairBytes)
	}
	// Repair cost is targeted: about nodes x loss x image on top of the
	// burst (expected ~3.5x total here), never a per-node full resend
	// (which would be ~10x).
	lossless := RunMulticast(img, 10, 0, 3, Params{})
	if high.TotalBytes() > 5*lossless.TotalBytes() {
		t.Fatalf("20%% loss inflated traffic %dx", high.TotalBytes()/lossless.TotalBytes())
	}
}

func TestChecksumsVerified(t *testing.T) {
	// Every client must complete with a clean manifest check.
	img := smallImage()
	res := RunMulticast(img, 8, 0.1, 11, Params{})
	if len(res.NodeUp) != 8 {
		t.Fatal("not all nodes up")
	}
	// Verified() is checked inside the client; a mismatch would have
	// stalled completion (chunk rejected), so convergence implies
	// bit-identity. Spot-check the accounting instead.
	if res.MulticastBytes <= img.Size {
		t.Fatalf("multicast bytes %d below image size %d", res.MulticastBytes, img.Size)
	}
}

func TestRebootTimeAffectsCompletion(t *testing.T) {
	img := smallImage()
	fast := RunMulticast(img, 5, 0, 1, Params{RebootTime: 3 * time.Second})
	slow := RunMulticast(img, 5, 0, 1, Params{RebootTime: 45 * time.Second})
	diff := slow.AllUp - fast.AllUp
	if diff < 41*time.Second || diff > 43*time.Second {
		t.Fatalf("reboot time delta %v, want ~42s", diff)
	}
}

func TestSingleNode(t *testing.T) {
	res := RunMulticast(smallImage(), 1, 0, 1, Params{})
	if len(res.NodeUp) != 1 || res.AllUp == 0 {
		t.Fatalf("single node result %+v", res)
	}
}

func TestSortedUpTimes(t *testing.T) {
	res := RunMulticast(smallImage(), 6, 0.05, 5, Params{})
	ups := res.SortedUpTimes()
	if len(ups) != 6 {
		t.Fatalf("ups = %d", len(ups))
	}
	for i := 1; i < len(ups); i++ {
		if ups[i] < ups[i-1] {
			t.Fatal("up times not sorted")
		}
	}
}

func TestParamDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.ChunkHeader == 0 || p.CtrlSize == 0 || p.PollTimeout == 0 ||
		p.MaxNakChunks == 0 || p.DiskBandwidth == 0 || p.RebootTime == 0 {
		t.Fatalf("defaults not filled: %+v", p)
	}
	// Explicit values survive.
	p2 := Params{RebootTime: time.Minute}.withDefaults()
	if p2.RebootTime != time.Minute {
		t.Fatal("explicit param overwritten")
	}
}

// Property: the protocol converges and delivers all nodes for arbitrary
// small configurations and loss rates up to 30 %.
func TestPropertyConvergence(t *testing.T) {
	f := func(nodes, lossPct, seed uint8) bool {
		n := int(nodes)%8 + 1
		loss := float64(lossPct%31) / 100
		img := image.New("p", "1", image.BootDisk, 512<<10)
		res := RunMulticast(img, n, loss, int64(seed), Params{})
		return len(res.NodeUp) == n && res.AllUp > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: lossless multicast transfers each chunk exactly once in the
// burst and never repairs.
func TestPropertyLosslessNoRepair(t *testing.T) {
	f := func(nodes uint8) bool {
		n := int(nodes)%20 + 1
		img := image.New("p", "1", image.BootDisk, 1<<20)
		res := RunMulticast(img, n, 0, 1, Params{})
		wantChunks := int64(img.NumChunks())
		gotPkts := res.MulticastBytes / int64(img.ChunkSize+64)
		return res.RepairChunks == 0 && gotPkts == wantChunks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// --- incremental updates (§4 "update files or packages in parallel") -----------

func updatePair() (*image.Image, *image.Image) {
	v1 := image.NewBuilder("os", "1.0", image.BootDisk, 24<<20).
		AddPackage("kernel-2.4.18", 2<<20).
		AddPackage("mpich", 4<<20).
		Build()
	v2 := image.NewBuilder("os", "1.1", image.BootDisk, 24<<20).
		AddPackage("kernel-2.4.19", 2<<20). // upgraded
		AddPackage("mpich", 4<<20).         // unchanged
		Build()
	return v1, v2
}

func TestUpdateTransfersOnlyDelta(t *testing.T) {
	v1, v2 := updatePair()
	full := RunMulticast(v2, 10, 0, 1, Params{})
	upd := RunUpdate(v1, v2, 10, 0, 1, Params{})
	if len(upd.NodeUp) != 10 {
		t.Fatalf("update upped %d nodes", len(upd.NodeUp))
	}
	if upd.MulticastBytes >= full.MulticastBytes/4 {
		t.Fatalf("update burst %d bytes vs full %d; delta not exploited",
			upd.MulticastBytes, full.MulticastBytes)
	}
	if upd.AllUp >= full.AllUp {
		t.Fatalf("update (%v) not faster than full clone (%v)", upd.AllUp, full.AllUp)
	}
	// The kernel is ~2 MB of a 30 MB image: burst bytes in that ballpark.
	if upd.MulticastBytes > 4<<20 {
		t.Fatalf("update moved %d bytes for a 2 MB kernel", upd.MulticastBytes)
	}
}

func TestUpdateUnderLoss(t *testing.T) {
	v1, v2 := updatePair()
	res := RunUpdate(v1, v2, 8, 0.1, 5, Params{})
	if len(res.NodeUp) != 8 {
		t.Fatalf("lossy update upped %d nodes", len(res.NodeUp))
	}
}

func TestUpdateEmptyDeltaStillReboots(t *testing.T) {
	v1, _ := updatePair()
	rebuild := image.NewBuilder("os", "1.0-rebuild", image.BootDisk, 24<<20).
		AddPackage("kernel-2.4.18", 2<<20).
		AddPackage("mpich", 4<<20).
		Build()
	res := RunUpdate(v1, rebuild, 5, 0, 1, Params{})
	if len(res.NodeUp) != 5 {
		t.Fatalf("empty-delta update upped %d nodes", len(res.NodeUp))
	}
	if res.MulticastBytes != 0 {
		t.Fatalf("empty delta multicast %d bytes", res.MulticastBytes)
	}
	// Completion is just reboot time, well under a full transfer.
	if res.AllUp > 30*time.Second {
		t.Fatalf("empty-delta update took %v", res.AllUp)
	}
}

// Exercise the client-facing accessors and the checksum-rejection path
// directly with a hand-driven session.
func TestClientSurfaceAndChecksumRejection(t *testing.T) {
	clk := clock.New()
	net := simnet.New(clk, 0)
	master := net.Attach("master", simnet.FastEthernet)
	ep := net.Attach("n0", simnet.FastEthernet)
	img := image.New("x", "1", image.BootDisk, 256<<10) // 4 chunks
	params := Params{}.withDefaults()
	c := NewClient(clk, ep, img, params)
	upCalled := false
	c.OnUp(func() { upCalled = true })

	if c.Complete() || c.Operational() || c.HaveCount() != 0 || c.Verified() != nil {
		t.Fatal("fresh client state wrong")
	}

	// Deliver a corrupted chunk: wrong checksum is rejected and recorded.
	master.Send("n0", chunkMsg{ImageID: img.ID(), Index: 0, Sum: [32]byte{0xde, 0xad}}, 100)
	clk.RunUntilIdle()
	if c.HaveCount() != 0 || c.Verified() == nil {
		t.Fatalf("corrupt chunk accepted: have=%d verified=%v", c.HaveCount(), c.Verified())
	}

	// Foreign image and out-of-range indexes are ignored.
	master.Send("n0", chunkMsg{ImageID: "other@9", Index: 0, Sum: img.ChunkSum(0)}, 100)
	master.Send("n0", chunkMsg{ImageID: img.ID(), Index: 99, Sum: img.ChunkSum(0)}, 100)
	clk.RunUntilIdle()
	if c.HaveCount() != 0 {
		t.Fatal("bogus chunks accepted")
	}

	// Deliver the real chunks (one duplicated).
	for i := 0; i < img.NumChunks(); i++ {
		master.Send("n0", chunkMsg{ImageID: img.ID(), Index: i, Sum: img.ChunkSum(i)}, 100)
	}
	master.Send("n0", chunkMsg{ImageID: img.ID(), Index: 0, Sum: img.ChunkSum(0)}, 100)
	clk.RunUntilIdle()
	if !c.Complete() || c.HaveCount() != img.NumChunks() {
		t.Fatalf("have %d/%d", c.HaveCount(), img.NumChunks())
	}
	if !c.Operational() || !upCalled {
		t.Fatal("client did not flash and report up")
	}
}

// TestSessionOnFinish: a Job's session reports its result when the last
// node is up, after its targets left the job's group; each target's OnUp
// ran first.
func TestSessionOnFinish(t *testing.T) {
	clk, net, master, eps := fabric(2, 1)
	img := image.New("x", "1", image.BootDisk, 128<<10)
	params := Params{}.withDefaults()
	ups := 0
	targets := []Target{{Ep: eps[0], Params: params, OnUp: func() { ups++ }}, {Ep: eps[1], Params: params, OnUp: func() { ups++ }}}
	var got Result
	finished := false
	Job{Clk: clk, Net: net, Master: master, Group: "g", Img: img, Targets: targets, Loss: 0.05, Params: params}.Start(func(r Result) {
		got, finished = r, true
		if n := net.GroupSize("g"); n != 0 {
			t.Errorf("group has %d member(s) when the job reports", n)
		}
	})
	clk.RunUntilIdle()
	if !finished || got.Nodes != 2 || len(got.NodeUp) != 2 || ups != 2 {
		t.Fatalf("OnFinish: %v %+v, %d node(s) up", finished, got, ups)
	}
}
