package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// parseSchedstat returns the on-CPU nanoseconds of one task from the
// contents of /proc/<pid>/task/<tid>/schedstat: "run_ns wait_ns slices".
func parseSchedstat(b []byte) (uint64, error) {
	f := bytes.Fields(b)
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: want 3 fields, got %d in %q", len(f), b)
	}
	ns, err := strconv.ParseUint(string(f[0]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: %w", err)
	}
	return ns, nil
}

// procStatus is what the benchmark reads from a task's status file.
type procStatus struct {
	ctxSwitches uint64 // voluntary + nonvoluntary
	vmHWMKB     uint64 // peak resident set; 0 in a thread's file that omits it
}

// parseProcStatus reads the context-switch counters and the peak resident
// set from the contents of a /proc status file.
func parseProcStatus(b []byte) (procStatus, error) {
	var st procStatus
	seen := 0
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		key, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			continue
		}
		switch key {
		case "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches":
			n, err := strconv.ParseUint(f[0], 10, 64)
			if err != nil {
				return st, fmt.Errorf("status %s: %w", key, err)
			}
			st.ctxSwitches += n
			seen++
		case "VmHWM":
			n, err := strconv.ParseUint(f[0], 10, 64)
			if err != nil {
				return st, fmt.Errorf("status VmHWM: %w", err)
			}
			st.vmHWMKB = n
		}
	}
	if seen != 2 {
		return st, fmt.Errorf("status: found %d of 2 context-switch counters", seen)
	}
	return st, nil
}

// procSample is a process's CPU time and context switches summed over its
// threads, and its peak resident set.
type procSample struct {
	cpuNs       uint64
	ctxSwitches uint64
	rssPeakKB   uint64
}

// sampleProcess reads /proc for pid. Threads that exit between samples take
// their counters with them; cwxd's runtime keeps its threads.
func sampleProcess(pid int) (procSample, error) {
	var out procSample
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*", pid))
	if err != nil || len(tasks) == 0 {
		return out, fmt.Errorf("no tasks for pid %d", pid)
	}
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(t, "schedstat"))
		if err != nil {
			continue // the thread exited since the glob
		}
		ns, err := parseSchedstat(b)
		if err != nil {
			return out, err
		}
		out.cpuNs += ns
		if b, err = os.ReadFile(filepath.Join(t, "status")); err != nil {
			continue
		}
		st, err := parseProcStatus(b)
		if err != nil {
			return out, err
		}
		out.ctxSwitches += st.ctxSwitches
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return out, err
	}
	st, err := parseProcStatus(b)
	if err != nil {
		return out, err
	}
	out.rssPeakKB = st.vmHWMKB
	return out, nil
}

// selfCPUNs is this process's user plus system CPU time.
func selfCPUNs() (uint64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return uint64(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// memStats is the part of runtime.MemStats the benchmark reads from the
// trailer of /debug/pprof/heap?debug=1.
type memStats struct {
	Mallocs    uint64
	TotalAlloc uint64
	HeapAlloc  uint64
	NumGC      uint64
}

// parseMemstatsTrailer reads the "# Name = value" lines at the end of a
// debug=1 heap profile.
func parseMemstatsTrailer(b []byte) (memStats, error) {
	var ms memStats
	want := map[string]*uint64{
		"Mallocs": &ms.Mallocs, "TotalAlloc": &ms.TotalAlloc,
		"HeapAlloc": &ms.HeapAlloc, "NumGC": &ms.NumGC,
	}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "# ") {
			continue
		}
		key, val, ok := strings.Cut(line[2:], " = ")
		if !ok {
			continue
		}
		dst := want[key]
		if dst == nil {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return ms, fmt.Errorf("memstats %s: %w", key, err)
		}
		*dst = n
		found++
	}
	if err := sc.Err(); err != nil {
		return ms, fmt.Errorf("memstats: %w", err)
	}
	if found != len(want) {
		return ms, fmt.Errorf("memstats: found %d of %d fields", found, len(want))
	}
	return ms, nil
}

// parseTelemetry reads the scalar samples ("name value") of a Prometheus
// text exposition, skipping comments and labelled histogram buckets.
func parseTelemetry(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}
