package gather

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"clusterworx/internal/procfs"
)

// This file contains the two parser families the paper distinguishes:
//
//   - generic parsers (parseMeminfoGeneric, ...) scan the buffer line by
//     line, match field names, and convert with strconv — "parsing the data
//     within that buffer" with no format assumptions beyond name:value;
//   - a-priori parsers (parseMeminfoApriori, ...) exploit the exact known
//     line order and layout of the 2.4 formats, skipping straight to the
//     digits of each expected field (+236 % in the paper).

// --- low-level byte scanning ---------------------------------------------

// skipLine advances i past the next '\n'.
func skipLine(b []byte, i int) int {
	for i < len(b) && b[i] != '\n' {
		i++
	}
	if i < len(b) {
		i++
	}
	return i
}

// skipToDigit advances i to the next ASCII digit.
func skipToDigit(b []byte, i int) int {
	for i < len(b) && (b[i] < '0' || b[i] > '9') {
		i++
	}
	return i
}

// parseUintAt parses a decimal run starting at i, returning the value and
// the index one past it.
func parseUintAt(b []byte, i int) (uint64, int) {
	var v uint64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + uint64(b[i]-'0')
		i++
	}
	return v, i
}

// parseFixedAt parses "int.frac" as a float64 starting at i.
func parseFixedAt(b []byte, i int) (float64, int) {
	whole, i := parseUintAt(b, i)
	if i >= len(b) || b[i] != '.' {
		return float64(whole), i
	}
	i++
	start := i
	frac, i := parseUintAt(b, i)
	scale := 1.0
	for n := i - start; n > 0; n-- {
		scale *= 10
	}
	return float64(whole) + float64(frac)/scale, i
}

// nextDigitValue is the a-priori inner loop: skip to the next digit run and
// parse it.
func nextDigitValue(b []byte, i int) (uint64, int) {
	i = skipToDigit(b, i)
	return parseUintAt(b, i)
}

// --- meminfo ---------------------------------------------------------------

// meminfoTags are the 2.4 format's fourteen kB lines, in their fixed
// order, each as the line's leading tag.
var meminfoTags = [...][]byte{
	[]byte("MemTotal:"), []byte("MemFree:"), []byte("MemShared:"), []byte("Buffers:"),
	[]byte("Cached:"), []byte("SwapCached:"), []byte("Active:"), []byte("Inactive:"),
	[]byte("HighTotal:"), []byte("HighFree:"), []byte("LowTotal:"), []byte("LowFree:"),
	[]byte("SwapTotal:"), []byte("SwapFree:"),
}

// parseMeminfoApriori decodes the 2.4 /proc/meminfo with full knowledge of
// its layout: three header lines, then fourteen "Name: value kB" lines in
// fixed order. Each line's tag is checked against the one its position
// holds in 2.4 before its number is taken, so another layout — a modern
// kernel's, which has no header table and puts MemTotal first — is a
// ParseError naming the tag expected and the one found, never a value
// read off the wrong line.
func parseMeminfoApriori(b []byte, out *MemStats) error {
	i := 0
	for l := 0; l < 3; l++ { // header table: "total: used: ...", Mem:, Swap:
		i = skipLine(b, i)
	}
	var v [len(meminfoTags)]uint64
	for f, tag := range meminfoTags {
		if i >= len(b) {
			return &ParseError{File: "/proc/meminfo", Detail: "truncated kB block"}
		}
		if !bytes.HasPrefix(b[i:], tag) {
			return meminfoTagError(b, i, tag)
		}
		v[f], i = nextDigitValue(b, i+len(tag))
		i = skipLine(b, i)
	}
	out.MemTotal, out.MemFree, out.MemShared = v[0], v[1], v[2]
	out.Buffers, out.Cached, out.SwapCached = v[3], v[4], v[5]
	out.Active, out.Inactive = v[6], v[7]
	// v[8..11] are HighTotal/HighFree/LowTotal/LowFree, not monitored.
	out.SwapTotal, out.SwapFree = v[12], v[13]
	return nil
}

// meminfoTagError reports the line at i, whose tag is not the expected
// one. Kept out of line: only a layout mismatch allocates.
func meminfoTagError(b []byte, i int, want []byte) error {
	line := b[i:skipLine(b, i)]
	found := bytes.TrimRight(line, "\n")
	if colon := bytes.IndexByte(found, ':'); colon >= 0 {
		found = found[:colon+1]
	}
	return &ParseError{File: "/proc/meminfo", Detail: fmt.Sprintf("line tag %q, want %q (not the 2.4 layout)", found, want)}
}

// parseMeminfoGeneric decodes /proc/meminfo by scanning for known field
// names, tolerating reordered or missing lines.
func parseMeminfoGeneric(b []byte, out *MemStats) error {
	found := 0
	for len(b) > 0 {
		line := b
		if nl := bytes.IndexByte(b, '\n'); nl >= 0 {
			line, b = b[:nl], b[nl+1:]
		} else {
			b = nil
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			continue
		}
		name := string(line[:colon])
		var dst *uint64
		switch name {
		case "MemTotal":
			dst = &out.MemTotal
		case "MemFree":
			dst = &out.MemFree
		case "MemShared":
			dst = &out.MemShared
		case "Buffers":
			dst = &out.Buffers
		case "Cached":
			dst = &out.Cached
		case "SwapCached":
			dst = &out.SwapCached
		case "Active":
			dst = &out.Active
		case "Inactive":
			dst = &out.Inactive
		case "SwapTotal":
			dst = &out.SwapTotal
		case "SwapFree":
			dst = &out.SwapFree
		default:
			continue
		}
		fields := bytes.Fields(line[colon+1:])
		if len(fields) == 0 {
			return &ParseError{File: "/proc/meminfo", Detail: "no value for " + name}
		}
		v, err := strconv.ParseUint(string(fields[0]), 10, 64)
		if err != nil {
			return &ParseError{File: "/proc/meminfo", Detail: "bad value for " + name + ": " + err.Error()}
		}
		*dst = v
		found++
	}
	if found < 10 {
		return &ParseError{File: "/proc/meminfo", Detail: "missing fields"}
	}
	return nil
}

// --- stat ------------------------------------------------------------------

// parseStatApriori decodes the 2.4 /proc/stat layout: aggregate cpu line,
// per-cpu lines, page, swap, intr, optional disk_io, ctxt, btime, processes.
// Each line after the cpu lines is taken only after its keyword is checked,
// so another layout — a modern kernel's, which has no page or swap line —
// is a ParseError naming the keyword expected and the one found, never a
// counter read off the wrong line. On an error, out holds what was parsed
// before it.
func parseStatApriori(b []byte, out *CPUStats) error {
	i := 0
	if len(b) < 4 || b[0] != 'c' || b[1] != 'p' || b[2] != 'u' {
		return &ParseError{File: "/proc/stat", Detail: "missing cpu line"}
	}
	i = 4 // past "cpu "
	out.Total.User, i = nextDigitValue(b, i)
	out.Total.Nice, i = nextDigitValue(b, i)
	out.Total.System, i = nextDigitValue(b, i)
	out.Total.Idle, i = nextDigitValue(b, i)
	i = skipLine(b, i)

	out.PerCPU = out.PerCPU[:0]
	for i+3 < len(b) && b[i] == 'c' && b[i+1] == 'p' && b[i+2] == 'u' {
		var c procfs.CPUJiffies
		i += 3
		_, i = parseUintAt(b, skipToDigit(b, i)) // cpu index
		c.User, i = nextDigitValue(b, i)
		c.Nice, i = nextDigitValue(b, i)
		c.System, i = nextDigitValue(b, i)
		c.Idle, i = nextDigitValue(b, i)
		i = skipLine(b, i)
		out.PerCPU = append(out.PerCPU, c)
	}

	// page, swap, intr, an optional disk_io line, ctxt, btime, processes:
	// the first number (two for page and swap) after each keyword.
	out.Disks = out.Disks[:0]
	for _, f := range [...]struct {
		kw   string
		a, b *uint64
	}{{"page ", &out.PageIn, &out.PageOut}, {"swap ", &out.SwapIn, &out.SwapOut}, {"intr ", &out.Interrupts, nil},
		{"ctxt ", &out.ContextSwitches, nil}, {"btime ", &out.BootTime, nil}, {"processes ", &out.Processes, nil}} {
		if f.kw == "ctxt " && hasKeyword(b, i, "disk_io:") {
			// "(maj,min):(io,rio,rsect,wio,wsect)" per disk.
			j, end := i, skipLine(b, i)
			for {
				j = skipToDigit(b, j)
				if j >= end-1 {
					break
				}
				var d DiskCounters
				var v uint64
				v, j = parseUintAt(b, j)
				d.Major = int(v)
				v, j = nextDigitValue(b, j)
				d.Minor = int(v)
				d.IO, j = nextDigitValue(b, j)
				d.ReadIO, j = nextDigitValue(b, j)
				d.ReadSectors, j = nextDigitValue(b, j)
				d.WriteIO, j = nextDigitValue(b, j)
				d.WriteSectors, j = nextDigitValue(b, j)
				out.Disks = append(out.Disks, d)
			}
			i = end
		}
		if !hasKeyword(b, i, f.kw) {
			return statKeywordError(b, i, f.kw)
		}
		*f.a, i = nextDigitValue(b, i+len(f.kw))
		if f.b != nil {
			*f.b, i = nextDigitValue(b, i)
		}
		i = skipLine(b, i)
	}
	return nil
}

// hasKeyword reports whether the line at i starts with kw.
func hasKeyword(b []byte, i int, kw string) bool {
	return len(b)-i >= len(kw) && string(b[i:i+len(kw)]) == kw
}

// statKeywordError reports the line at i, whose keyword is not want. Kept
// out of line: only a layout mismatch allocates.
func statKeywordError(b []byte, i int, want string) error {
	found := b[min(i, len(b)):skipLine(b, i)]
	if sp := bytes.IndexAny(found, " \n"); sp >= 0 {
		found = found[:sp]
	}
	return &ParseError{File: "/proc/stat", Detail: fmt.Sprintf("line keyword %q, want %q (not the 2.4 layout)", found, strings.TrimSpace(want))}
}

// parseStatGeneric decodes /proc/stat by keyword lookup per line.
func parseStatGeneric(b []byte, out *CPUStats) error {
	out.PerCPU = out.PerCPU[:0]
	out.Disks = out.Disks[:0]
	sawCPU := false
	for len(b) > 0 {
		line := b
		if nl := bytes.IndexByte(b, '\n'); nl >= 0 {
			line, b = b[:nl], b[nl+1:]
		} else {
			b = nil
		}
		fields := bytes.Fields(line)
		if len(fields) == 0 {
			continue
		}
		key := string(fields[0])
		switch {
		case key == "cpu":
			if len(fields) < 5 {
				return &ParseError{File: "/proc/stat", Detail: "short cpu line"}
			}
			out.Total.User = mustU(fields[1])
			out.Total.Nice = mustU(fields[2])
			out.Total.System = mustU(fields[3])
			out.Total.Idle = mustU(fields[4])
			sawCPU = true
		case len(key) > 3 && key[:3] == "cpu":
			if len(fields) < 5 {
				return &ParseError{File: "/proc/stat", Detail: "short percpu line"}
			}
			out.PerCPU = append(out.PerCPU, procfs.CPUJiffies{
				User: mustU(fields[1]), Nice: mustU(fields[2]),
				System: mustU(fields[3]), Idle: mustU(fields[4]),
			})
		case key == "page" && len(fields) >= 3:
			out.PageIn, out.PageOut = mustU(fields[1]), mustU(fields[2])
		case key == "swap" && len(fields) >= 3:
			out.SwapIn, out.SwapOut = mustU(fields[1]), mustU(fields[2])
		case key == "intr" && len(fields) >= 2:
			out.Interrupts = mustU(fields[1])
		case key == "ctxt" && len(fields) >= 2:
			out.ContextSwitches = mustU(fields[1])
		case key == "btime" && len(fields) >= 2:
			out.BootTime = mustU(fields[1])
		case key == "processes" && len(fields) >= 2:
			out.Processes = mustU(fields[1])
		case key == "disk_io:":
			for _, tok := range fields[1:] {
				var d DiskCounters
				if _, err := fmt.Sscanf(string(tok), "(%d,%d):(%d,%d,%d,%d,%d)",
					&d.Major, &d.Minor, &d.IO, &d.ReadIO, &d.ReadSectors, &d.WriteIO, &d.WriteSectors); err == nil {
					out.Disks = append(out.Disks, d)
				}
			}
		}
	}
	if !sawCPU {
		return &ParseError{File: "/proc/stat", Detail: "missing cpu line"}
	}
	return nil
}

func mustU(b []byte) uint64 {
	v, _ := strconv.ParseUint(string(b), 10, 64)
	return v
}

// --- loadavg ----------------------------------------------------------------

func parseLoadavgApriori(b []byte, out *LoadStats) error {
	if len(b) < 9 {
		return &ParseError{File: "/proc/loadavg", Detail: "truncated"}
	}
	i := 0
	out.Load1, i = parseFixedAt(b, i)
	out.Load5, i = parseFixedAt(b, i+1)
	out.Load15, i = parseFixedAt(b, i+1)
	var v uint64
	v, i = nextDigitValue(b, i)
	out.Running = int(v)
	v, i = parseUintAt(b, i+1) // past '/'
	out.Total = int(v)
	v, _ = nextDigitValue(b, i)
	out.LastPID = int(v)
	return nil
}

// --- uptime -----------------------------------------------------------------

func parseUptimeApriori(b []byte, out *UptimeStats) error {
	if len(b) < 3 {
		return &ParseError{File: "/proc/uptime", Detail: "truncated"}
	}
	i := 0
	out.Uptime, i = parseFixedAt(b, i)
	if i >= len(b) {
		return &ParseError{File: "/proc/uptime", Detail: "missing idle"}
	}
	out.Idle, _ = parseFixedAt(b, i+1)
	return nil
}

// --- net/dev ----------------------------------------------------------------

// parseNetDevApriori decodes /proc/net/dev: two header lines, then one row
// per interface with sixteen counters in fixed positions.
func parseNetDevApriori(b []byte, out *NetDevStats) error {
	i := skipLine(b, 0)
	i = skipLine(b, i)
	out.Ifaces = out.Ifaces[:0]
	for i < len(b) {
		// Interface name: spaces, name, ':'.
		for i < len(b) && b[i] == ' ' {
			i++
		}
		start := i
		for i < len(b) && b[i] != ':' {
			i++
		}
		if i >= len(b) {
			break
		}
		var c IfaceCounters
		c.Name = string(b[start:i])
		i++ // past ':'
		c.RxBytes, i = nextDigitValue(b, i)
		c.RxPackets, i = nextDigitValue(b, i)
		c.RxErrs, i = nextDigitValue(b, i)
		c.RxDrop, i = nextDigitValue(b, i)
		_, i = nextDigitValue(b, i) // fifo
		_, i = nextDigitValue(b, i) // frame
		_, i = nextDigitValue(b, i) // compressed
		_, i = nextDigitValue(b, i) // multicast
		c.TxBytes, i = nextDigitValue(b, i)
		c.TxPackets, i = nextDigitValue(b, i)
		c.TxErrs, i = nextDigitValue(b, i)
		c.TxDrop, i = nextDigitValue(b, i)
		_, i = nextDigitValue(b, i) // fifo
		_, i = nextDigitValue(b, i) // colls
		_, i = nextDigitValue(b, i) // carrier
		_, i = nextDigitValue(b, i) // compressed
		i = skipLine(b, i)
		out.Ifaces = append(out.Ifaces, c)
	}
	if len(out.Ifaces) == 0 {
		return &ParseError{File: "/proc/net/dev", Detail: "no interfaces"}
	}
	return nil
}
