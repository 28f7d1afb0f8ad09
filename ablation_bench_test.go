// Ablation benchmarks: sweeps over the design parameters DESIGN.md calls
// out, quantifying why each default is what it is.
//
//   - cloning chunk size: header overhead vs repair granularity
//   - cloning NAK batch size: repair round-trips vs acknowledgement size
//   - wire compression on/off: bytes on the management network
//   - consolidation under load: change suppression on idle vs busy nodes
//   - ICE Box sequencing stagger: time-to-all-up vs breaker margin
//   - server ingest locking: sharded + per-node locks vs one global mutex
//   - telemetry recording on/off: observability overhead on the hot path
package clusterworx

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/cloning"
	"clusterworx/internal/consolidate"
	"clusterworx/internal/core"
	"clusterworx/internal/events"
	"clusterworx/internal/history"
	"clusterworx/internal/icebox"
	"clusterworx/internal/image"
	"clusterworx/internal/monitor"
	"clusterworx/internal/node"
	"clusterworx/internal/telemetry"
	"clusterworx/internal/transmit"
)

// --- cloning chunk size ----------------------------------------------------------

func benchAblationChunkSize(b *testing.B, chunkKiB int) {
	img := image.NewWithChunkSize("abl", "1", image.BootDisk, 32<<20, chunkKiB<<10)
	var vt time.Duration
	var bytes int64
	for i := 0; i < b.N; i++ {
		r := cloning.RunMulticast(img, 12, 0.05, int64(i), cloning.Params{})
		if len(r.NodeUp) != 12 {
			b.Fatal("did not converge")
		}
		vt += r.AllUp
		bytes += r.TotalBytes()
	}
	b.ReportMetric(vt.Seconds()/float64(b.N), "vtime_s")
	b.ReportMetric(float64(bytes)/float64(b.N)/(32<<20), "bytes_vs_image")
}

func BenchmarkAblationCloneChunk16K(b *testing.B)  { benchAblationChunkSize(b, 16) }
func BenchmarkAblationCloneChunk64K(b *testing.B)  { benchAblationChunkSize(b, 64) }
func BenchmarkAblationCloneChunk256K(b *testing.B) { benchAblationChunkSize(b, 256) }

// --- cloning NAK batch size -------------------------------------------------------

func benchAblationNak(b *testing.B, maxNak int) {
	img := image.New("abl", "1", image.BootDisk, 16<<20)
	var polls int
	var vt time.Duration
	for i := 0; i < b.N; i++ {
		r := cloning.RunMulticast(img, 10, 0.15, int64(i), cloning.Params{MaxNakChunks: maxNak})
		if len(r.NodeUp) != 10 {
			b.Fatal("did not converge")
		}
		polls += r.Polls
		vt += r.AllUp
	}
	b.ReportMetric(float64(polls)/float64(b.N), "polls")
	b.ReportMetric(vt.Seconds()/float64(b.N), "vtime_s")
}

func BenchmarkAblationCloneNak16(b *testing.B)   { benchAblationNak(b, 16) }
func BenchmarkAblationCloneNak256(b *testing.B)  { benchAblationNak(b, 256) }
func BenchmarkAblationCloneNak2048(b *testing.B) { benchAblationNak(b, 2048) }

// --- wire compression on/off -------------------------------------------------------

func benchAblationWire(b *testing.B, compress bool) {
	clk := clock.New()
	n := node.New(clk, node.Config{Name: "abl"})
	n.PowerOn()
	clk.Advance(10 * time.Second)
	n.SetLoad(1)
	set, err := monitor.NewSet(monitor.Config{
		FS: n.FS(), Hostname: n.Name(), Now: clk.Now, Probes: n, Echo: n.Reachable,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer set.Close()
	cons := consolidate.New()
	if err := set.Install(cons); err != nil {
		b.Fatal(err)
	}
	w := transmit.NewWriter(discard{}, compress)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(time.Second)
		cons.Tick()
		buf = transmit.MarshalValues(buf[:0], cons.Delta())
		if err := w.WriteFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if w.RawBytes() > 0 {
		b.ReportMetric(float64(w.WireBytes())/float64(b.N), "wire_bytes/update")
	}
}

func BenchmarkAblationWireRaw(b *testing.B)        { benchAblationWire(b, false) }
func BenchmarkAblationWireCompressed(b *testing.B) { benchAblationWire(b, true) }

// --- consolidation suppression: idle vs busy node ------------------------------------

func benchAblationSuppression(b *testing.B, load float64) {
	clk := clock.New()
	n := node.New(clk, node.Config{Name: "abl"})
	n.PowerOn()
	clk.Advance(10 * time.Second)
	n.SetLoad(load)
	clk.Advance(5 * time.Minute)
	set, err := monitor.NewSet(monitor.Config{
		FS: n.FS(), Hostname: n.Name(), Now: clk.Now, Probes: n, Echo: n.Reachable,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer set.Close()
	cons := consolidate.New()
	if err := set.Install(cons); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(time.Second)
		cons.Tick()
		cons.Delta()
	}
	b.StopTimer()
	st := cons.Stats()
	if st.Collected > 0 {
		b.ReportMetric(100*float64(st.Suppressed)/float64(st.Collected), "suppressed_%")
	}
}

func BenchmarkAblationSuppressionIdle(b *testing.B) { benchAblationSuppression(b, 0) }
func BenchmarkAblationSuppressionBusy(b *testing.B) { benchAblationSuppression(b, 2) }

// --- ICE Box sequencing stagger ----------------------------------------------------------

func benchAblationStagger(b *testing.B, stagger time.Duration) {
	trips, allUp := 0, 0
	var vt time.Duration
	for i := 0; i < b.N; i++ {
		clk := clock.New()
		box := icebox.New(clk, "abl")
		nodes := make([]*node.Node, icebox.NodePorts)
		for p := range nodes {
			nodes[p] = node.New(clk, node.Config{Name: fmt.Sprintf("n%02d", p), Seed: int64(p)})
			if err := box.Connect(p, nodes[p]); err != nil {
				b.Fatal(err)
			}
		}
		box.SetSequenceDelay(stagger)
		box.PowerOnAll()
		clk.Advance(2 * time.Minute)
		if box.BreakerTripped(0) || box.BreakerTripped(1) {
			trips++
		}
		up := 0
		var last time.Duration
		for _, n := range nodes {
			if n.State() == node.Up {
				up++
			}
		}
		last = clk.Now()
		if up == icebox.NodePorts {
			allUp++
			vt += last
		}
	}
	b.ReportMetric(float64(trips)/float64(b.N), "breaker_trips")
	b.ReportMetric(float64(allUp)/float64(b.N), "full_rack_up_rate")
}

func BenchmarkAblationStagger0ms(b *testing.B)    { benchAblationStagger(b, 0) }
func BenchmarkAblationStagger100ms(b *testing.B)  { benchAblationStagger(b, 100*time.Millisecond) }
func BenchmarkAblationStagger300ms(b *testing.B)  { benchAblationStagger(b, 300*time.Millisecond) }
func BenchmarkAblationStagger1000ms(b *testing.B) { benchAblationStagger(b, time.Second) }

// --- server ingest locking: sharded vs global mutex ----------------------------------
//
// globalLockIngest replicates the pre-sharding server ingest design: one
// mutex over the whole node table, and a fresh event-sample map rebuilt
// from the node's full value set on every update while that mutex is held.
// Benchmarked against the sharded core.Server on the identical workload
// (same node population, same change sets — see runIngestBench), it
// quantifies what the lock striping, per-node locks, and incremental
// sample maintenance buy.

type globalLockRec struct {
	lastSeen time.Duration
	seen     bool
	values   map[string]consolidate.Value
}

type globalLockIngest struct {
	mu     sync.Mutex
	now    func() time.Duration
	nodes  map[string]*globalLockRec
	hist   *history.Store
	engine *events.Engine
}

func newGlobalLockIngest() *globalLockIngest {
	start := time.Now()
	g := &globalLockIngest{
		now:   func() time.Duration { return time.Since(start) },
		nodes: make(map[string]*globalLockRec),
		hist:  history.NewStore(0),
	}
	g.engine = events.New(nil, nil, g.now)
	return g
}

func (g *globalLockIngest) HandleValues(nodeName string, values []consolidate.Value) {
	now := g.now()
	g.mu.Lock()
	rec, ok := g.nodes[nodeName]
	if !ok {
		rec = &globalLockRec{values: make(map[string]consolidate.Value)}
		g.nodes[nodeName] = rec
	}
	rec.lastSeen = now
	rec.seen = true
	for _, v := range values {
		rec.values[v.Name] = v
		if !v.IsText {
			g.hist.Append(nodeName, v.Name, now, v.Num)
		}
	}
	sample := make(map[string]float64, len(rec.values))
	for name, v := range rec.values {
		if !v.IsText {
			sample[name] = v.Num
		}
	}
	g.mu.Unlock()
	g.engine.ObserveMap(nodeName, sample)
}

func benchAblationIngestGlobalLock(b *testing.B, parallelism int) {
	g := newGlobalLockIngest()
	runIngestBench(b, parallelism, g.HandleValues)
}

func benchAblationIngestSharded(b *testing.B, parallelism int) {
	srv := core.NewServer(core.ServerConfig{Cluster: "abl"})
	runIngestBench(b, parallelism, srv.HandleValues)
}

func BenchmarkAblationIngestGlobalLock1(b *testing.B)  { benchAblationIngestGlobalLock(b, 1) }
func BenchmarkAblationIngestGlobalLock64(b *testing.B) { benchAblationIngestGlobalLock(b, 64) }
func BenchmarkAblationIngestSharded1(b *testing.B)     { benchAblationIngestSharded(b, 1) }
func BenchmarkAblationIngestSharded64(b *testing.B)    { benchAblationIngestSharded(b, 64) }

// --- telemetry recording on/off ------------------------------------------------------
//
// The self-monitoring instrumentation rides the ingest hot path (striped
// atomic counters and histogram observes). This pair measures
// its full cost on the identical workload as the E15/sharding benchmarks:
// the Off variant flips the global kill switch, reducing every record to
// one atomic load and a branch. The observability budget is < 5%
// throughput and 0 extra allocations per update.

func benchAblationTelemetry(b *testing.B, on bool, parallelism int) {
	prev := telemetry.SetEnabled(on)
	defer telemetry.SetEnabled(prev)
	srv := core.NewServer(core.ServerConfig{Cluster: "abl"})
	runIngestBench(b, parallelism, srv.HandleValues)
}

func BenchmarkAblationTelemetryOn1(b *testing.B)   { benchAblationTelemetry(b, true, 1) }
func BenchmarkAblationTelemetryOff1(b *testing.B)  { benchAblationTelemetry(b, false, 1) }
func BenchmarkAblationTelemetryOn64(b *testing.B)  { benchAblationTelemetry(b, true, 64) }
func BenchmarkAblationTelemetryOff64(b *testing.B) { benchAblationTelemetry(b, false, 64) }
