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
)

// allocSitesOut is where TestAllocSites writes its table; empty skips it.
// `make alloc-sites` sets it, and -memprofilerate 1 with it: every
// allocation must be sampled for the counts to be exact.
var allocSitesOut = flag.String("alloc-sites", "", "write the per-round allocation-site table of the in-process query_churn round to this file")

// TestAllocSites answers "what does a read allocate": it runs the
// query_churn round in process (queryChurn — the sentinel touched, its
// values pushed to a watcher, the 8-request script read back) and lists
// every allocation site of the counted rounds with its allocations and
// bytes per round. A site is the innermost frame of this module, as in
// `make heap-sites`, so a Builder's growth is charged to the line that
// wrote into it.
func TestAllocSites(t *testing.T) {
	if *allocSitesOut == "" {
		t.Skip("run through `make alloc-sites`")
	}
	if runtime.MemProfileRate != 1 {
		t.Fatalf("-memprofilerate is %d, want 1", runtime.MemProfileRate)
	}
	const rounds = 24
	round, stop := queryChurn(t)
	defer stop()
	before := allocsBySite()
	for i := 0; i < rounds; i++ {
		round()
	}
	after := allocsBySite()

	type site struct {
		where          string
		objects, bytes int64
	}
	var sites []site
	var total int64
	for where, n := range after {
		if d := (site{where, n.objects - before[where].objects, n.bytes - before[where].bytes}); d.objects > 0 {
			sites = append(sites, d)
			total += d.objects
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].objects != sites[j].objects {
			return sites[i].objects > sites[j].objects
		}
		return sites[i].where < sites[j].where
	})
	var b strings.Builder
	fmt.Fprintf(&b, "allocations of %d query_churn rounds in process (1 024 nodes, a values watcher, the 8-request script): %.2f per round, %.2f per request, in %d sites\n",
		rounds, float64(total)/rounds, float64(total)/rounds/8, len(sites))
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "/round\tB/round\tsite")
	for _, s := range sites {
		fmt.Fprintf(tw, "%.2f\t%.0f\t%s\n", float64(s.objects)/rounds, float64(s.bytes)/rounds, s.where)
	}
	tw.Flush()
	if err := os.WriteFile(*allocSitesOut, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// allocsBySite sums the process' allocations so far by site, leaving out
// its own. A profile is as of the last completed collection; the second
// one publishes everything allocated before the first.
func allocsBySite() map[string]struct{ objects, bytes int64 } {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; n, ok = runtime.MemProfile(recs, true) {
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	out := make(map[string]struct{ objects, bytes int64 })
	for _, r := range recs {
		where := allocSite(r.Stack())
		if strings.HasPrefix(where, "clusterworx.alloc") { // allocsBySite and allocSite: the tool, not the round
			continue
		}
		n := out[where]
		n.objects += r.AllocObjects
		n.bytes += r.AllocBytes
		out[where] = n
	}
	return out
}
