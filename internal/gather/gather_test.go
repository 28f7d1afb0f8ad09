package gather

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"clusterworx/internal/procfs"
)

func frozenFS() *procfs.FS {
	fs := procfs.NewFS()
	procfs.RegisterStd(fs, procfs.Frozen())
	return fs
}

// wantMem is what every strategy must extract from the frozen baseline.
func wantMem(t *testing.T, m MemStats) {
	t.Helper()
	base := procfs.BaselineStat()
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"MemTotal", m.MemTotal, base.MemTotal / 1024},
		{"MemFree", m.MemFree, base.MemFree / 1024},
		{"Buffers", m.Buffers, base.Buffers / 1024},
		{"Cached", m.Cached, base.Cached / 1024},
		{"SwapCached", m.SwapCached, base.SwapCached / 1024},
		{"Active", m.Active, base.Active / 1024},
		{"Inactive", m.Inactive, base.Inactive / 1024},
		{"SwapTotal", m.SwapTotal, base.SwapTotal / 1024},
		{"SwapFree", m.SwapFree, base.SwapFree / 1024},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestAllMeminfoStrategiesAgree(t *testing.T) {
	fs := frozenFS()
	keepOpen, err := NewKeepOpenMeminfo(fs)
	if err != nil {
		t.Fatal(err)
	}
	strategies := map[string]MeminfoGatherer{
		"naive":    NewNaiveMeminfo(fs),
		"buffered": NewBufferedMeminfo(fs),
		"apriori":  NewAprioriMeminfo(fs),
		"keepopen": keepOpen,
	}
	for name, g := range strategies {
		t.Run(name, func(t *testing.T) {
			var m MemStats
			if err := g.Gather(&m); err != nil {
				t.Fatal(err)
			}
			wantMem(t, m)
			// Second sample must also work (rewind path for keepopen).
			if err := g.Gather(&m); err != nil {
				t.Fatalf("second gather: %v", err)
			}
			wantMem(t, m)
			if err := g.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		})
	}
}

func TestKeepOpenSurvivesEvolvingContent(t *testing.T) {
	fs := procfs.NewFS()
	syn := procfs.NewSynthetic(7)
	procfs.RegisterStd(fs, syn.Stat)
	g, err := NewKeepOpenMeminfo(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var prev MemStats
	for i := 0; i < 500; i++ {
		var m MemStats
		if err := g.Gather(&m); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if m.MemTotal != 1<<20 { // 1 GiB in kB
			t.Fatalf("sample %d: MemTotal = %d kB", i, m.MemTotal)
		}
		if m.MemFree == 0 || m.MemFree > m.MemTotal {
			t.Fatalf("sample %d: implausible MemFree %d", i, m.MemFree)
		}
		prev = m
	}
	_ = prev
}

func TestStatGatherer(t *testing.T) {
	fs := frozenFS()
	g, err := NewStatGatherer(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var s CPUStats
	if err := g.Gather(&s); err != nil {
		t.Fatal(err)
	}
	if s.Total.User != 10000 || s.Total.Nice != 200 || s.Total.System != 4000 || s.Total.Idle != 300000 {
		t.Errorf("aggregate jiffies = %+v", s.Total)
	}
	if len(s.PerCPU) != 1 || s.PerCPU[0] != s.Total {
		t.Errorf("per-cpu = %+v", s.PerCPU)
	}
	if s.PageIn != 5000 || s.PageOut != 2000 {
		t.Errorf("page = %d/%d", s.PageIn, s.PageOut)
	}
	if s.SwapIn != 1 || s.SwapOut != 0 {
		t.Errorf("swap = %d/%d", s.SwapIn, s.SwapOut)
	}
	if s.Interrupts != 1_400_000 {
		t.Errorf("intr = %d", s.Interrupts)
	}
	if s.ContextSwitches != 3_000_000 {
		t.Errorf("ctxt = %d", s.ContextSwitches)
	}
	if s.BootTime != 1_027_895_183 {
		t.Errorf("btime = %d", s.BootTime)
	}
	if s.Processes != 2738 {
		t.Errorf("processes = %d", s.Processes)
	}
	if len(s.Disks) != 1 {
		t.Fatalf("disks = %d", len(s.Disks))
	}
	d := s.Disks[0]
	if d.Major != 3 || d.Minor != 0 || d.IO != 31000 || d.ReadIO != 20000 ||
		d.ReadSectors != 570000 || d.WriteIO != 11000 || d.WriteSectors != 300000 {
		t.Errorf("disk counters = %+v", d)
	}
}

func TestStatGenericMatchesApriori(t *testing.T) {
	var buf bytes.Buffer
	base := procfs.BaselineStat()
	base.CPUs = append(base.CPUs, procfs.CPUJiffies{User: 1, Nice: 2, System: 3, Idle: 4})
	procfs.RenderStat(&buf, &base)

	var a, g CPUStats
	if err := parseStatApriori(buf.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := parseStatGeneric(buf.Bytes(), &g); err != nil {
		t.Fatal(err)
	}
	if a.Total != g.Total || len(a.PerCPU) != len(g.PerCPU) ||
		a.ContextSwitches != g.ContextSwitches || a.Processes != g.Processes ||
		a.PageIn != g.PageIn || a.SwapOut != g.SwapOut || a.BootTime != g.BootTime {
		t.Fatalf("parsers disagree:\napriori %+v\ngeneric %+v", a, g)
	}
	if len(a.Disks) != len(g.Disks) || len(a.Disks) != 1 || a.Disks[0] != g.Disks[0] {
		t.Fatalf("disk parsers disagree: %+v vs %+v", a.Disks, g.Disks)
	}
	for i := range a.PerCPU {
		if a.PerCPU[i] != g.PerCPU[i] {
			t.Fatalf("percpu %d disagree: %+v vs %+v", i, a.PerCPU[i], g.PerCPU[i])
		}
	}
}

func TestLoadavgGatherer(t *testing.T) {
	fs := frozenFS()
	g, err := NewLoadavgGatherer(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var l LoadStats
	if err := g.Gather(&l); err != nil {
		t.Fatal(err)
	}
	if l.Load1 != 0.20 || l.Load5 != 0.18 || l.Load15 != 0.12 {
		t.Errorf("loads = %v %v %v", l.Load1, l.Load5, l.Load15)
	}
	if l.Running != 1 || l.Total != 80 || l.LastPID != 11206 {
		t.Errorf("procs = %d/%d pid %d", l.Running, l.Total, l.LastPID)
	}
}

func TestUptimeGatherer(t *testing.T) {
	fs := frozenFS()
	g, err := NewUptimeGatherer(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var u UptimeStats
	if err := g.Gather(&u); err != nil {
		t.Fatal(err)
	}
	if u.Uptime != 3017.41 || u.Idle != 2572.23 {
		t.Errorf("uptime = %v idle %v", u.Uptime, u.Idle)
	}
}

func TestNetDevGatherer(t *testing.T) {
	fs := frozenFS()
	g, err := NewNetDevGatherer(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var n NetDevStats
	if err := g.Gather(&n); err != nil {
		t.Fatal(err)
	}
	if len(n.Ifaces) != 2 {
		t.Fatalf("ifaces = %d, want 2", len(n.Ifaces))
	}
	lo, eth := n.Ifaces[0], n.Ifaces[1]
	if lo.Name != "lo" || lo.RxBytes != 1_908_775 || lo.TxPackets != 12_345 {
		t.Errorf("lo = %+v", lo)
	}
	if eth.Name != "eth0" || eth.RxBytes != 814_558_563 || eth.TxBytes != 96_834_552 {
		t.Errorf("eth0 = %+v", eth)
	}
}

func TestGatherMissingFile(t *testing.T) {
	fs := procfs.NewFS()
	if _, err := NewKeepOpenMeminfo(fs); err == nil {
		t.Fatal("NewKeepOpenMeminfo on empty fs did not fail")
	}
	g := NewNaiveMeminfo(fs)
	var m MemStats
	if err := g.Gather(&m); err == nil {
		t.Fatal("naive gather on empty fs did not fail")
	}
}

func TestParseErrors(t *testing.T) {
	var m MemStats
	if err := parseMeminfoApriori([]byte("x\ny\nz\n"), &m); err == nil {
		t.Error("apriori accepted truncated meminfo")
	}
	if err := parseMeminfoGeneric([]byte("garbage\n"), &m); err == nil {
		t.Error("generic accepted garbage meminfo")
	}
	var c CPUStats
	if err := parseStatApriori([]byte("nope\n"), &c); err == nil {
		t.Error("apriori accepted garbage stat")
	}
	if err := parseStatGeneric([]byte("nope\n"), &c); err == nil {
		t.Error("generic accepted stat without cpu line")
	}
	var l LoadStats
	if err := parseLoadavgApriori([]byte(""), &l); err == nil {
		t.Error("accepted empty loadavg")
	}
	var u UptimeStats
	if err := parseUptimeApriori([]byte(""), &u); err == nil {
		t.Error("accepted empty uptime")
	}
	var nd NetDevStats
	if err := parseNetDevApriori([]byte("h1\nh2\n"), &nd); err == nil {
		t.Error("accepted net/dev without interfaces")
	}
	perr := &ParseError{File: "/proc/x", Detail: "boom"}
	if perr.Error() != "gather: parse /proc/x: boom" {
		t.Errorf("ParseError.Error() = %q", perr.Error())
	}
}

// TestMeminfoAprioriChecksTags: the a-priori parser takes a number only
// from the line whose tag its 2.4 position holds. It reads the 2.4 layout
// (testdata/meminfo-linux-2.4, procfs's render of the baseline) and
// refuses a Linux 6.18 /proc/meminfo (testdata/meminfo-linux-6.18, read
// off a running kernel) with a ParseError naming the tag it expected and
// the one it found. Without the check it returned no error and a MemTotal
// read off the Buffers line.
func TestMeminfoAprioriChecksTags(t *testing.T) {
	old, err := os.ReadFile("testdata/meminfo-linux-2.4")
	if err != nil {
		t.Fatal(err)
	}
	var render bytes.Buffer
	base := procfs.BaselineStat()
	procfs.RenderMeminfo(&render, &base)
	if !bytes.Equal(old, render.Bytes()) {
		t.Fatal("testdata/meminfo-linux-2.4 is not procfs's render of the baseline")
	}
	var m MemStats
	if err := parseMeminfoApriori(old, &m); err != nil {
		t.Fatal(err)
	}
	wantMem(t, m)

	modern, err := os.ReadFile("testdata/meminfo-linux-6.18")
	if err != nil {
		t.Fatal(err)
	}
	var got MemStats
	err = parseMeminfoApriori(modern, &got)
	var perr *ParseError
	if !errors.As(err, &perr) || !strings.Contains(perr.Detail, `"MemTotal:"`) || !strings.Contains(perr.Detail, `"Buffers:"`) {
		t.Fatalf("a 6.18 meminfo parses to %+v, error %v; want a ParseError naming MemTotal: expected and Buffers: found", got, err)
	}
	if got != (MemStats{}) {
		t.Fatalf("a refused meminfo wrote %+v", got)
	}
	// One line out of place in the 2.4 layout is refused the same way.
	swapped := bytes.Replace(old, []byte("Active:  "), []byte("Active(anon):"), 1)
	if err := parseMeminfoApriori(swapped, &got); !errors.As(err, &perr) || !strings.Contains(perr.Detail, `"Active(anon):"`) {
		t.Fatalf("a renamed Active line: %v, want a ParseError naming it", err)
	}
}

// Property: apriori and generic meminfo parsers agree on arbitrary rendered
// states — the format knowledge is an optimization, not a semantic change.
func TestPropertyMeminfoParsersAgree(t *testing.T) {
	f := func(free, buffers, cached uint32, active uint16) bool {
		s := procfs.BaselineStat()
		s.MemFree = uint64(free)
		if s.MemFree > s.MemTotal {
			s.MemFree = s.MemTotal
		}
		s.HighFree = 0
		s.Buffers = uint64(buffers)
		s.Cached = uint64(cached)
		s.Active = uint64(active) * 1024
		var buf bytes.Buffer
		procfs.RenderMeminfo(&buf, &s)
		var a, g MemStats
		if err := parseMeminfoApriori(buf.Bytes(), &a); err != nil {
			return false
		}
		if err := parseMeminfoGeneric(buf.Bytes(), &g); err != nil {
			return false
		}
		return a == g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: parseFixedAt inverts two-decimal rendering for any
// non-negative centivalue.
func TestPropertyFixedPointRoundTrip(t *testing.T) {
	f := func(cent uint32) bool {
		v := float64(cent) / 100
		var buf bytes.Buffer
		s := procfs.BaselineStat()
		s.UptimeSec = v
		s.IdleSec = 0
		procfs.RenderUptime(&buf, &s)
		var u UptimeStats
		if err := parseUptimeApriori(buf.Bytes(), &u); err != nil {
			return false
		}
		diff := u.Uptime - v
		if diff < 0 {
			diff = -diff
		}
		return diff < 0.005
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// The in-package microbenchmarks; the paper-facing harness lives in the
// repository root bench_test.go.
func BenchmarkMeminfoNaive(b *testing.B) {
	fs := frozenFS()
	g := NewNaiveMeminfo(fs)
	var m MemStats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := g.Gather(&m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeminfoKeepOpen(b *testing.B) {
	fs := frozenFS()
	g, err := NewKeepOpenMeminfo(fs)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	var m MemStats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := g.Gather(&m); err != nil {
			b.Fatal(err)
		}
	}
}
