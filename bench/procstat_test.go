package bench

import (
	"os"
	"testing"
)

func TestParseSchedstat(t *testing.T) {
	ns, err := parseSchedstat([]byte("183927461 5520114 1042\n"))
	if err != nil || ns != 183927461 {
		t.Fatalf("got %d, %v", ns, err)
	}
	for _, bad := range []string{"", "12 34", "x 1 2", "1 2 3 4"} {
		if _, err := parseSchedstat([]byte(bad)); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestParseProcStatus(t *testing.T) {
	st, err := parseProcStatus([]byte("Name:\tcwxd\nVmPeak:\t 1234 kB\nVmHWM:\t   35648 kB\nThreads:\t7\n" +
		"voluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t9\n"))
	if err != nil {
		t.Fatal(err)
	}
	if st.ctxSwitches != 129 || st.vmHWMKB != 35648 {
		t.Errorf("got %+v", st)
	}
	if _, err := parseProcStatus([]byte("Name:\tx\nvoluntary_ctxt_switches:\t1\n")); err == nil {
		t.Error("a status file without both counters parsed")
	}
}

func TestSampleSelf(t *testing.T) {
	ps, err := sampleProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if ps.cpuNs == 0 || ps.rssPeakKB == 0 {
		t.Errorf("empty sample of this process: %+v", ps)
	}
	if ns, err := selfCPUNs(); err != nil || ns == 0 {
		t.Errorf("selfCPUNs = %d, %v", ns, err)
	}
}

const heapTrailer = `heap profile: 1: 16 [3: 4144] @ heap/1048576
1: 16 [1: 16] @ 0x4a 0x4b
#	0x4a	main.f+0x1a	/x/main.go:10

# runtime.MemStats
# Alloc = 2400624
# TotalAlloc = 98231552
# Sys = 18957328
# Lookups = 0
# Mallocs = 1293312
# Frees = 1280011
# HeapAlloc = 2400624
# HeapSys = 11829248
# PauseNs = [22011 0 0]
# NumGC = 41
# NumForcedGC = 2
# GCCPUFraction = 0.0012
# DebugGC = false
# MaxRSS = 23068672
`

func TestParseMemstatsTrailer(t *testing.T) {
	ms, err := parseMemstatsTrailer([]byte(heapTrailer))
	if err != nil {
		t.Fatal(err)
	}
	want := memStats{Mallocs: 1293312, TotalAlloc: 98231552, HeapAlloc: 2400624, NumGC: 41}
	if ms != want {
		t.Errorf("got %+v, want %+v", ms, want)
	}
	if _, err := parseMemstatsTrailer([]byte("# Mallocs = 5\n")); err == nil {
		t.Error("a trailer missing fields parsed")
	}
}

func TestParseTelemetry(t *testing.T) {
	got := parseTelemetry("OK\n# TYPE cwx_serve_hits_total counter\ncwx_serve_hits_total 812\n" +
		"# TYPE cwx_server_nodes gauge\ncwx_server_nodes 1024\n" +
		"cwx_ingest_latency_ns_bucket{le=\"1024\"} 7\ncwx_ingest_latency_ns_sum 90\n")
	if got["cwx_serve_hits_total"] != 812 || got["cwx_server_nodes"] != 1024 || got["cwx_ingest_latency_ns_sum"] != 90 {
		t.Errorf("got %v", got)
	}
	if len(got) != 3 {
		t.Errorf("labelled buckets and the status line must be skipped: %v", got)
	}
}
