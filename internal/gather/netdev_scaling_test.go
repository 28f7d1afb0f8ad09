package gather

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"clusterworx/internal/procfs"
)

// fsWithIfaces builds a frozen /proc whose net/dev has n interfaces — the
// substrate for the paper's "21.6 µs per call per network device" claim.
func fsWithIfaces(n int) *procfs.FS {
	s := procfs.BaselineStat()
	s.Ifaces = nil
	for i := 0; i < n; i++ {
		s.Ifaces = append(s.Ifaces, procfs.IfaceStat{
			Name:    fmt.Sprintf("eth%d", i),
			RxBytes: uint64(i) * 1e6, RxPackets: uint64(i) * 1e3,
			TxBytes: uint64(i) * 5e5, TxPackets: uint64(i) * 500,
		})
	}
	fs := procfs.NewFS()
	procfs.RegisterStd(fs, func() *procfs.NodeStat { return &s })
	return fs
}

func TestNetDevParsesManyIfaces(t *testing.T) {
	for _, n := range []int{1, 4, 16} {
		fs := fsWithIfaces(n)
		g, err := NewNetDevGatherer(fs)
		if err != nil {
			t.Fatal(err)
		}
		var nd NetDevStats
		if err := g.Gather(&nd); err != nil {
			t.Fatalf("%d ifaces: %v", n, err)
		}
		if len(nd.Ifaces) != n {
			t.Fatalf("parsed %d of %d ifaces", len(nd.Ifaces), n)
		}
		for i, ifc := range nd.Ifaces {
			if ifc.Name != fmt.Sprintf("eth%d", i) || ifc.RxBytes != uint64(i)*1e6 {
				t.Fatalf("iface %d = %+v", i, ifc)
			}
		}
		g.Close()
	}
}

// The paper charges net/dev per device; measure that the per-call cost
// grows roughly linearly in the interface count (not quadratically, not
// flat). A loaded host swings single timings several-fold, so the verdict
// is the median, over interleaved rounds, of the ratio within a round; a
// round times each count as its best of three short batches, taken in
// turns, so that a batch the scheduler preempted does not count.
func TestNetDevCostPerDevice(t *testing.T) {
	batch := func(n int) func() time.Duration {
		g, err := NewNetDevGatherer(fsWithIfaces(n))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		var nd NetDevStats
		return func() time.Duration {
			start := time.Now()
			for i := 0; i < 100; i++ {
				if err := g.Gather(&nd); err != nil {
					t.Fatal(err)
				}
			}
			return time.Since(start)
		}
	}
	cost2, cost16 := batch(2), batch(16)
	ratios := make([]float64, 41)
	for k := range ratios {
		c2, c16 := cost2(), cost16()
		for range 2 {
			c2, c16 = min(c2, cost2()), min(c16, cost16())
		}
		ratios[k] = float64(c16) / float64(c2)
	}
	slices.Sort(ratios)
	// 8x the devices: expect several-fold growth, bounded well below
	// super-linear blowup. (There is a fixed header/open component, so the
	// ratio is below 8.)
	med := ratios[len(ratios)/2]
	t.Logf("2->16 ifaces cost ratio = %.1f in the median of %d rounds (%.1f to %.1f)", med, len(ratios), ratios[0], ratios[len(ratios)-1])
	if med < 1.5 || med > 16 {
		t.Fatal("want 1.5 to 16")
	}
}
