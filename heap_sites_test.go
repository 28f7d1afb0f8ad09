package clusterworx

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"text/tabwriter"

	"clusterworx/internal/core"
	"clusterworx/internal/transmit"
)

// heapSitesOut is where TestHeapSites writes its table; empty skips it.
// `make heap-sites` sets it, and -memprofilerate 1 with it: every
// allocation must be sampled for the table to be the heap.
var heapSitesOut = flag.String("heap-sites", "", "write the live-heap allocation-site table of a loaded root server to this file")

// TestHeapSites answers "where do a root's bytes per node go": it loads
// the benchmark's tree — 1 024 nodes × 32 numeric + 2 text values × 16
// samples — into a server through a real batch session, as the fed and
// query workloads' set-up does, and lists the allocation sites holding
// the most live heap. A site is the innermost frame outside the runtime
// and the standard library, so a map's buckets are charged to the line
// that assigned into it.
func TestHeapSites(t *testing.T) {
	if *heapSitesOut == "" {
		t.Skip("run through `make heap-sites`")
	}
	if runtime.MemProfileRate != 1 {
		t.Fatalf("-memprofilerate is %d, want 1", runtime.MemProfileRate)
	}
	const nodes, samples, batch, top = 1024, 16, 512, 12
	srv := core.NewServer(core.ServerConfig{Cluster: "heapsites"})
	dec := transmit.NewBatchDecoderV2()
	func() {
		// The sending side lives only as long as the load: the table is
		// the receiver's.
		enc := transmit.NewBatchEncoderV2()
		names := gateNodeNames(nodes)
		vals := gateMetricSet("a")
		frames := make([]transmit.Frame, nodes)
		var buf []byte
		seq := uint64(0)
		for s := 0; s < samples; s++ {
			for k := range vals[:32] {
				vals[k].Num = float64(s) + float64(k)*0.5
			}
			for i := range frames {
				if s == 0 {
					frames[i] = transmit.Frame{Node: names[i], Kind: transmit.FrameSnapshot, Values: vals}
				} else {
					frames[i] = transmit.Frame{Node: names[i], Values: vals[:32]}
				}
			}
			for lo := 0; lo < nodes; lo += batch {
				seq++
				buf = enc.Encode(buf[:0], seq, int64(seq)*1_000_000_000, frames[lo:lo+batch])
				_, err := dec.Decode(buf, func(f transmit.Frame) {
					if err := srv.HandleFrame(f); err != nil {
						t.Fatal(err)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if n, ok := dec.PendingAck(); ok {
					enc.Ack(n)
				}
			}
		}
	}()

	// A profile is as of the last completed collection; the second one
	// publishes what the first freed.
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; n, ok = runtime.MemProfile(recs, true) {
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	type site struct {
		where          string
		bytes, objects int64
	}
	bySite := map[string]*site{}
	var total int64
	for _, r := range recs {
		if r.InUseBytes() == 0 {
			continue
		}
		where := allocSite(r.Stack())
		s := bySite[where]
		if s == nil {
			s = &site{where: where}
			bySite[where] = s
		}
		s.bytes += r.InUseBytes()
		s.objects += r.InUseObjects()
		total += r.InUseBytes()
	}
	sites := make([]*site, 0, len(bySite))
	for _, s := range bySite {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].bytes != sites[j].bytes {
			return sites[i].bytes > sites[j].bytes
		}
		return sites[i].where < sites[j].where
	})
	var b strings.Builder
	fmt.Fprintf(&b, "live heap after loading %d nodes x 34 values x %d samples through a batch session: %.2f MB in %d sites, %.1f KB per node\n",
		nodes, samples, float64(total)/(1<<20), len(sites), float64(total)/1024/nodes)
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "MB\tB/node\tobjects\tsite")
	for _, s := range sites[:min(top, len(sites))] {
		fmt.Fprintf(tw, "%.2f\t%.0f\t%d\t%s\n", float64(s.bytes)/(1<<20), float64(s.bytes)/nodes, s.objects, s.where)
	}
	tw.Flush()
	if err := os.WriteFile(*heapSitesOut, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(srv)
	runtime.KeepAlive(dec)
}

// allocSite names the innermost frame of an allocation's stack that is
// this module's code: "function file.go:line".
func allocSite(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, "clusterworx") {
			file := f.File
			if i := strings.LastIndex(file, "/internal/"); i >= 0 {
				file = file[i+len("/internal/"):]
			} else if i := strings.LastIndexByte(file, '/'); i >= 0 {
				file = file[i+1:]
			}
			return fmt.Sprintf("%s %s:%d", strings.TrimPrefix(f.Function, "clusterworx/internal/"), file, f.Line)
		}
		if !more {
			return "(outside the module)"
		}
	}
}
