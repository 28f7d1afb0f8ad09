// E20 benchmarks: the serving plane's generation-gated query cache
// against the uncached ablation that rebuilds every rendering from the
// live registry. Three claims are measured — single-verb read latency
// (a hit must be ≥5× cheaper than a rebuild and allocation-free), the
// same for a history-windowed aggregate (compare), and a mixed workload
// (64 writers ingesting while ~1k readers poll) where the cache bounds
// read-side recomputation by generation changes instead of request
// count.
package clusterworx

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/core"
)

const (
	e20Nodes   = 64
	e20Samples = 64 // history points per node before measuring
)

func e20NodeName(i int) string { return fmt.Sprintf("snode%04d", i) }

// e20Server boots a registry on a frozen clock (so liveness deadlines
// never pass mid-measurement) with e20Nodes nodes carrying the standard
// monitor metrics plus a history window worth of samples.
func e20Server() *core.Server {
	srv, _ := e20Cluster(e20Nodes, e20Samples)
	return srv
}

// e20Cluster is e20Server at a given size; touch ingests one more sample
// for node i a second later, moving the generation.
func e20Cluster(nodes, samples int) (srv *core.Server, touch func(i int)) {
	var nowNs atomic.Int64
	srv = core.NewServer(core.ServerConfig{
		Cluster: "e20",
		Now:     func() time.Duration { return time.Duration(nowNs.Load()) },
	})
	// The names and the value set are made once, so that a touch costs the
	// server's work and not the fixture's.
	names := make([]string, nodes)
	for i := range names {
		names[i] = e20NodeName(i)
	}
	vals := make([]consolidate.Value, 4)
	s := 0
	ingest := func(i int) {
		vals[0] = consolidate.NumValue("load.1", consolidate.Dynamic, float64((s+i)%8))
		vals[1] = consolidate.NumValue("cpu.idle.pct", consolidate.Dynamic, float64((s*7+i)%100))
		vals[2] = consolidate.NumValue("mem.used.pct", consolidate.Dynamic, float64((s*3+i)%90))
		vals[3] = consolidate.NumValue("hw.temp.cpu", consolidate.Dynamic, 40+float64(i%20))
		srv.HandleValues(names[i], vals)
	}
	for ; s < samples; s++ {
		nowNs.Add(int64(time.Second))
		for i := 0; i < nodes; i++ {
			ingest(i)
		}
	}
	return srv, func(i int) {
		nowNs.Add(int64(time.Second))
		ingest(i)
		s++
	}
}

func benchE20Verb(b *testing.B, verb string, handle func(*core.Server, string) string) {
	srv := e20Server()
	if resp := handle(srv, verb); len(resp) < 2 || resp[:2] != "OK" {
		b.Fatalf("%s failed: %.80s", verb, resp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			handle(srv, verb)
		}
	})
}

func BenchmarkE20StatusHit(b *testing.B) {
	benchE20Verb(b, "status", (*core.Server).HandleCtl)
}

func BenchmarkE20StatusUncached(b *testing.B) {
	benchE20Verb(b, "status", (*core.Server).HandleCtlUncached)
}

func BenchmarkE20CompareHit(b *testing.B) {
	benchE20Verb(b, "compare load.1", (*core.Server).HandleCtl)
}

func BenchmarkE20CompareUncached(b *testing.B) {
	benchE20Verb(b, "compare load.1", (*core.Server).HandleCtlUncached)
}

// benchE20Rebuild is the live cluster's shape, where a write lands
// between any two reads: one of 1 024 nodes reports, then the verb is
// read. The rebuild costs what that one row costs — the rest of the table
// is copied from the previous rendering. A verb about one node reads it
// after it reported.
func benchE20Rebuild(b *testing.B, verb string, touched func(i int) int) {
	const nodes = 1024
	srv, touch := e20Cluster(nodes, 10)
	srv.HandleCtl(verb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		touch(touched(i) % nodes)
		if resp := srv.HandleCtl(verb); !strings.HasPrefix(resp, "OK") {
			b.Fatalf("%s failed: %.80s", verb, resp)
		}
	}
}

func anyNode(i int) int { return i * 7 }

func BenchmarkE20RebuildStatus1k(b *testing.B)     { benchE20Rebuild(b, "status", anyNode) }
func BenchmarkE20RebuildCompare1k(b *testing.B)    { benchE20Rebuild(b, "compare load.1", anyNode) }
func BenchmarkE20RebuildEfficiency1k(b *testing.B) { benchE20Rebuild(b, "efficiency", anyNode) }

// BenchmarkE20RebuildChart1k redraws one node's 60 × 12 chart after each
// of its reports.
func BenchmarkE20RebuildChart1k(b *testing.B) {
	benchE20Rebuild(b, "chart "+e20NodeName(0)+" load.1", func(int) int { return 0 })
}

// benchE20Mixed is the serving plane's target shape: 64 writer
// goroutines ingest change sets continuously while ~1k reader
// goroutines poll the monitoring verbs. The writers are deliberately
// unpaced — the generation moves faster than any rebuild completes, so
// a strict "entry generation == current generation" cache would miss on
// every read and serialize all readers behind the coalescing mutex.
// What keeps this regime sane is the Gate's freshness-relative-to-
// request contract: a waiter accepts any entry built at a generation ≥
// the one it observed on entry, so one rebuild satisfies the whole
// queue and the build rate is bounded by the ingest rate, not the
// request rate. Uncached, every reader rebuilds every answer.
func benchE20Mixed(b *testing.B, handle func(*core.Server, string) string) {
	srv := e20Server()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < e20Nodes; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			node := e20NodeName(id)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				srv.HandleValues(node, []consolidate.Value{
					consolidate.NumValue("load.1", consolidate.Dynamic, float64(i%8)),
					consolidate.NumValue("cpu.idle.pct", consolidate.Dynamic, float64(i%100)),
				})
			}
		}(w)
	}
	verbs := [...]string{"status", "compare load.1", "values snode0004", "efficiency"}
	var rid atomic.Int64
	// ~1k concurrent readers regardless of core count.
	b.SetParallelism(1024/runtime.GOMAXPROCS(0) + 1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(rid.Add(1))
		for i := 0; pb.Next(); i++ {
			handle(srv, verbs[(id+i)%len(verbs)])
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}

func BenchmarkE20MixedReadWriteCached(b *testing.B) {
	benchE20Mixed(b, (*core.Server).HandleCtl)
}

func BenchmarkE20MixedReadWriteUncached(b *testing.B) {
	benchE20Mixed(b, (*core.Server).HandleCtlUncached)
}
