// Allocation-regression gates: cwxlint's staticalloc analyzer proves at
// compile time that no //cwx:hotpath function makes a value escape; these
// tests count every allocation at run time, the ones that do not escape
// included, pinning the numbers the E6/E15/E18 benchmarks report so a
// regression fails `go test` rather than silently shifting a benchmark.
// They skip under -race, so `make check` does not run them; `make test`
// does.
//
// Every //cwx:hotpath function runs inside at least one gate. List the
// ones that do not (a 0.0% line whose function carries the marker):
//
//	go test -run TestAllocGate -coverpkg=./internal/... -coverprofile=c.out .
//	go tool cover -func=c.out
package clusterworx

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"clusterworx/internal/clock"
	"clusterworx/internal/consolidate"
	"clusterworx/internal/core"
	"clusterworx/internal/events"
	"clusterworx/internal/flight"
	"clusterworx/internal/gather"
	"clusterworx/internal/history"
	"clusterworx/internal/procfs"
	"clusterworx/internal/serve"
	"clusterworx/internal/transmit"
)

// skipUnderRace skips allocation gates when the race detector is on:
// race-runtime bookkeeping shows up in testing.AllocsPerRun, so the
// counts only pin the real hot path in an uninstrumented build.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts include race-detector instrumentation")
	}
}

// headWarmCycles is how many appends put a fresh history series past its
// last head growth step: the head grows at a series' 9th, 33rd and 129th
// append and then stays at its full 512 points. A gate that asserts a
// steady-state 0 while appending to the same series every cycle runs its
// cycle this many times first; the 201 cycles AllocsPerRun(200, …) then
// runs stay short of the 513th append, the first seal.
const headWarmCycles = 130

// steadyStateAllocs warms the history heads cycle appends to, then
// measures its allocations per run.
func steadyStateAllocs(cycle func()) float64 {
	for i := 0; i < headWarmCycles; i++ {
		cycle()
	}
	return testing.AllocsPerRun(200, cycle)
}

// measureOnce runs f with the package's goroutines held to one thread and
// returns the heap objects it allocated and the bytes by which the live
// heap grew across it, garbage collected on both sides.
func measureOnce(f func()) (mallocs uint64, heapDelta int64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	mallocs = after.Mallocs - before.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&after)
	return mallocs, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestAllocGateLosslessIngest pins the steady-state unsequenced ingest
// path (E15's shape) at zero allocations per update.
func TestAllocGateLosslessIngest(t *testing.T) {
	skipUnderRace(t)
	srv := core.NewServer(core.ServerConfig{Cluster: "allocgate"})
	names := ingestNodeNames()
	full := ingestFullSet()
	for _, name := range names {
		srv.HandleValues(name, full)
	}
	deltas := ingestDeltaSets()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		srv.HandleValues(names[i%len(names)], deltas[i%len(deltas)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("lossless ingest allocates %.1f times per update, want 0", allocs)
	}
}

// TestAllocGateSequencedIngest pins the loss-tolerant protocol's happy
// path (E18's shape): in-order sequenced deltas must also be
// allocation-free — the gap-detection bookkeeping is integer compares
// under the per-node lock already held — and so must every eighth frame,
// a snapshot refreshing the known node (anti-entropy), which compares
// each value with its slot and appends only the changes. It runs twice:
// bare, and with an event rule armed over a metric every frame carries,
// so each frame also copies the node's values into a pooled snapshot for
// the engine, which must go back to its pool.
func TestAllocGateSequencedIngest(t *testing.T) {
	skipUnderRace(t)
	for _, armed := range []bool{false, true} {
		srv := core.NewServer(core.ServerConfig{Cluster: "allocgate"})
		if armed {
			if err := srv.Engine().AddRule(events.Rule{Name: "hot", Metric: "metric.00", Op: events.GT, Threshold: 1e9}); err != nil {
				t.Fatal(err)
			}
		}
		full := ingestFullSet()
		deltas := ingestDeltaSets()
		const node = "fnode0001"
		if err := srv.HandleFrame(transmit.Frame{Node: node, Seq: 1, Kind: transmit.FrameSnapshot, Values: full}); err != nil {
			t.Fatal(err)
		}
		seq := uint64(1)
		i := 0
		allocs := steadyStateAllocs(func() {
			seq++
			f := transmit.Frame{Node: node, Seq: seq, Kind: transmit.FrameDelta, Values: deltas[i%len(deltas)]}
			if i%8 == 7 {
				f.Kind, f.Values = transmit.FrameSnapshot, full
			}
			if err := srv.HandleFrame(f); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("sequenced ingest (rule armed: %v) allocates %.1f times per update, want 0", armed, allocs)
		}
	}
}

// TestAllocGateHistoryHeadAppend pins the block engine's open-block
// append (E19's shape) at zero allocations: in-order points are bit-packed
// into the series' buffer and folded into the running summary. The buffer
// is grown to what this stream needs off the measured path, and the
// measured window stays inside one block, so a growth step or a close
// inside it would fail the gate (TestAllocGateHistoryHeadGrowth counts
// those).
func TestAllocGateHistoryHeadAppend(t *testing.T) {
	skipUnderRace(t)
	s := history.NewSeries(1 << 20)
	ts := time.Duration(0)
	allocs := steadyStateAllocs(func() {
		ts += time.Second
		s.Append(ts, 40.5)
	})
	if allocs != 0 {
		t.Fatalf("head append allocates %.1f times per point, want 0", allocs)
	}
}

// twoDecimalStream is the stream a root's busiest series see: a random
// two-decimal reading, changed every time, stamped by a wall clock with
// tens of milliseconds of jitter.
func twoDecimalStream() func() (time.Duration, float64) {
	rng := rand.New(rand.NewSource(1))
	ts := time.Duration(0)
	return func() (time.Duration, float64) {
		ts += time.Second + time.Duration(rng.Intn(50_000_000))
		return ts, math.Round(rng.Float64()*600) / 100
	}
}

// onGrid is next with its stamps as a stepped clock hands them out: each
// truncated to a whole number of steps.
func onGrid(next func() (time.Duration, float64), step time.Duration) func() (time.Duration, float64) {
	return func() (time.Duration, float64) {
		ts, v := next()
		return ts.Truncate(step), v
	}
}

// TestAllocGateHistoryHeadGrowth pins what a series' allocating steps
// cost in total, on the two streams a root's busiest series see: two-decimal
// readings changed every time, stamped by a free-running clock (≈7 B a
// point) and by cwxd's 100 ms stepped one (≈3 B). The first 512 appends of
// a fresh series double the buffer from 64 B up to the step the block's
// 512 points fill — 4 KiB in six steps on the first stream, 2 KiB in five
// on the second — one buffer each; appends 513…1 024 close once — the
// block, its exact-size data, and the first slot of the block chain — and
// otherwise reuse the buffer. Doubling is what the ladder does on purpose:
// on the stepped clock's stamps a buffer lasts 20, 40, 80 … appends, so a
// growth step is as rare per append as it was when a point cost 8 B and
// the buffer quadrupled, and a young series holds half the slack.
// measureOnce counts the whole process, so each bound leaves two
// allocations of slack for the runtime's own; the regressions this guards
// against (a buffer per close: 4, growth or close per append: hundreds)
// clear it.
func TestAllocGateHistoryHeadGrowth(t *testing.T) {
	skipUnderRace(t)
	for _, c := range []struct {
		name  string
		next  func() (time.Duration, float64)
		grows uint64
	}{
		{"free-running clock", twoDecimalStream(), 6},
		{"100 ms steps", onGrid(twoDecimalStream(), 100*time.Millisecond), 5},
	} {
		s := history.NewSeries(1 << 20)
		fill := func() {
			for i := 0; i < 512; i++ {
				s.Append(c.next())
			}
		}
		if grow, _ := measureOnce(fill); grow < c.grows || grow > c.grows+2 {
			t.Fatalf("%s: first 512 appends allocate %d times, want %d (the growth steps)", c.name, grow, c.grows)
		}
		if closing, _ := measureOnce(fill); closing > 3+2 {
			t.Fatalf("%s: appends 513…1024 allocate %d times, want 3 (one close)", c.name, closing)
		}
	}
}

// TestAllocGateHistoryYoungStoreHeap is the footprint gate for a young
// tree — the shape of the benchmark's fed and query workloads, which
// `go test ./...` does not run: 1 024 nodes × 32 numeric + 2 text values,
// 16 samples each, through the sequenced ingest path. History must cost
// what it holds, not what it might: each series' 16 changed values sit
// coded in a 128 B buffer (256 B on the ×4 ladder, 512 B of raw head
// arrays before the open block, 8 KiB when every series preallocated a
// 512-point head, ≈270 MB of live heap in all) behind a 104 B slot of its
// node's slab (a 160 B Series of its own and a pointer to it before: 10.3
// MB), and the registry beside it costs columns per node, not two maps
// and a map of series. The server here stamps with its default
// free-running clock, the costliest stamps there are, and the footprint is
// still exact on any host: 16 points of at most 38 + 13 bits are 102 B,
// inside the 108 B a 128 B buffer takes before it doubles, and a
// nanosecond clock never yields the 9-bit stamps that would fit 64 B.
// (cwxd's stepped clock: TestHistoryBytesIgnoreWakeJitter.)
func TestAllocGateHistoryYoungStoreHeap(t *testing.T) {
	skipUnderRace(t)
	const nodes, numeric, samples = 1024, 32, 16
	vals := make([]consolidate.Value, 0, numeric+2)
	for i := 0; i < numeric; i++ {
		vals = append(vals, consolidate.NumValue(fmt.Sprintf("metric.%02d", i), consolidate.Dynamic, 0))
	}
	vals = append(vals,
		consolidate.TextValue("os.kernel", consolidate.Static, "2.4.18"),
		consolidate.TextValue("cpu.model", consolidate.Static, "Pentium III (Coppermine)"))
	names := ingestNodeNames()[:nodes]
	var srv *core.Server
	_, heap := measureOnce(func() {
		srv = core.NewServer(core.ServerConfig{Cluster: "allocgate"})
		for seq := uint64(1); seq <= samples; seq++ {
			kind := transmit.FrameDelta
			if seq == 1 {
				kind = transmit.FrameSnapshot
			}
			for i := 0; i < numeric; i++ {
				vals[i].Num = float64(seq) + float64(i)*0.5
			}
			for _, name := range names {
				if err := srv.HandleFrame(transmit.Frame{Node: name, Seq: seq, Kind: kind, Values: vals}); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if got, want := srv.History().Bytes(), int64(nodes*numeric*128); got != want {
		t.Fatalf("history accounts %d B, want %d (a 128 B open block for each of %d series)", got, want, nodes*numeric)
	}
	mb := float64(heap) / (1 << 20)
	t.Logf("young tree: %.2f MB", mb)
	if mb > 8.7 {
		t.Fatalf("a %d-node × %d-metric × %d-sample tree retains %.2f MB of heap, want <= 8.7", nodes, numeric, samples, mb)
	}
}

// TestHistoryBytesIgnoreWakeJitter: what a load costs the history store
// must not depend on when the clock driver's goroutine happened to wake.
// The benchmark's tree — 1 024 nodes × 32 two-decimal readings × 16
// samples, a frame every 0.3 ms so that a sample round straddles three
// clock steps — is ingested twice, under two clocks driven as cwxd drives
// its own (cmd/cwxd stepClock: run until the elapsed time, truncated to
// the step) whose every tick wakes a different, seeded part of a step
// late. Both stores account the same bytes, a 128 B buffer a series. A
// driver that ran the clock to the untruncated wake time would stamp the
// lateness into every sample, ≈4.5 B of it a point, and the footprint
// would follow the scheduler.
func TestHistoryBytesIgnoreWakeJitter(t *testing.T) {
	const nodes, samples = 1024, 16
	const step = 100 * time.Millisecond
	names := gateNodeNames(nodes)
	load := func(wakeSeed int64) int64 {
		late := rand.New(rand.NewSource(wakeSeed))
		readings := rand.New(rand.NewSource(1)) // the same values under either clock
		clk := clock.New()
		srv := core.NewServer(core.ServerConfig{Cluster: "jitter", Now: clk.Now})
		vals := gateMetricSet("a")
		wall, tick := time.Duration(0), step
		wakes := tick + time.Duration(late.Int63n(int64(step)))
		for seq := uint64(1); seq <= samples; seq++ {
			f := transmit.Frame{Seq: seq, Kind: transmit.FrameDelta, Values: vals[:32]}
			if seq == 1 {
				f.Kind, f.Values = transmit.FrameSnapshot, vals
			}
			for _, name := range names {
				for wall += 300 * time.Microsecond; wakes <= wall; {
					clk.RunUntil(wakes.Truncate(step))
					tick += step
					wakes = tick + time.Duration(late.Int63n(int64(step)))
				}
				for i := range vals[:32] {
					vals[i].Num = math.Round(readings.Float64()*100000) / 100
				}
				f.Node = name
				if err := srv.HandleFrame(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		return srv.History().Bytes()
	}
	a, b := load(1), load(2)
	if want := int64(nodes * 32 * 128); a != b || a != want {
		t.Fatalf("the same load accounts %d B under one clock's wake times and %d B under another's, want %d under both", a, b, want)
	}
}

// gateNodeNames returns n node names, "g00000" on.
func gateNodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("g%05d", i)
	}
	return names
}

// gateMetricSet returns 32 numeric and 2 text values named under prefix:
// the 34 values a node of the benchmark's tree reports.
func gateMetricSet(prefix string) []consolidate.Value {
	vals := make([]consolidate.Value, 0, 34)
	for i := 0; i < 32; i++ {
		vals = append(vals, consolidate.NumValue(fmt.Sprintf("%s.metric.%02d", prefix, i), consolidate.Dynamic, float64(i)))
	}
	return append(vals,
		consolidate.TextValue(prefix+".os.kernel", consolidate.Static, "2.4.18"),
		consolidate.TextValue(prefix+".cpu.model", consolidate.Static, "Pentium III (Coppermine)"))
}

// registryBytesPerNode ingests frames(i) for node i of names into a fresh
// server and returns what the registry then holds per node: the live heap
// the server added, less the history engine's own — the series' buffers
// (Store.Bytes) and the slab chunks the series live in, each frame that
// brought a node numeric metrics it had no series for one chunk of them,
// at the size class its malloc takes. The process-wide table a
// registration also writes to (the flight journal's symbol, a name each)
// is filled by a server that is thrown away first, so it is not counted
// either.
func registryBytesPerNode(t *testing.T, names []string, frames func(i int) []transmit.Frame) float64 {
	t.Helper()
	warm := core.NewServer(core.ServerConfig{Cluster: "allocgate"})
	for _, name := range names {
		warm.RegisterNode(name)
	}
	var srv *core.Server
	_, heap := measureOnce(func() {
		srv = core.NewServer(core.ServerConfig{Cluster: "allocgate"})
		for i := range names {
			for _, f := range frames(i) {
				if err := srv.HandleFrame(f); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	var slabs int64
	for i := range names {
		held := map[string]bool{}
		for _, f := range frames(i) {
			fresh := 0
			for _, v := range f.Values {
				if !v.IsText && !held[v.Name] {
					held[v.Name] = true
					fresh++
				}
			}
			if fresh > 0 {
				slabs += chunkAlloc(fresh)
			}
		}
	}
	own := heap - srv.History().Bytes() - slabs
	return float64(own) / float64(len(names))
}

// chunkAllocs memoizes chunkAlloc.
var chunkAllocs = map[int]int64{}

// chunkAlloc returns the live heap a slab chunk of n series takes: n
// slots rounded up to their malloc size class.
func chunkAlloc(n int) int64 {
	if b, ok := chunkAllocs[n]; ok {
		return b
	}
	var chunk []history.Series
	_, heap := measureOnce(func() { chunk = make([]history.Series, n) })
	runtime.KeepAlive(chunk)
	chunkAllocs[n] = heap
	return heap
}

// TestAllocGateRegistryBytesPerNode pins what the node registry itself
// costs: 4 096 nodes × 34 values through HandleFrame must leave at most
// 1.5 KB per node beside the series — the record, its value columns, the
// node's history with its id column, and the two table entries that find
// them (9.3 KB when the record was two string-keyed maps and the history
// index a third).
func TestAllocGateRegistryBytesPerNode(t *testing.T) {
	skipUnderRace(t)
	names := gateNodeNames(4096)
	vals := gateMetricSet("a")
	perNode := registryBytesPerNode(t, names, func(i int) []transmit.Frame {
		return []transmit.Frame{{Node: names[i], Kind: transmit.FrameSnapshot, Values: vals}}
	})
	t.Logf("registry: %.0f B per node", perNode)
	if perNode > 1536 {
		t.Fatalf("the registry holds %.0f B per node beside its series, want <= 1536", perNode)
	}
}

// TestRecordCostsOwnMetrics: what a node costs follows the metrics that
// node holds, not the names the server — or the session — has seen. Two
// node classes with disjoint 34-name sets, interleaved, plus a name that
// first turns up after 1 024 nodes registered, must leave the registry
// within 10 % of what a homogeneous tree costs it per node, and a batch
// decoder that received the mixed tree within twice what the homogeneous
// one holds. A value slab as long as the metric table, or a predictor row
// as long as the session dictionary, fails both by a wide margin.
func TestRecordCostsOwnMetrics(t *testing.T) {
	skipUnderRace(t)
	names := gateNodeNames(1100)
	a, b := gateMetricSet("a"), gateMetricSet("b")
	homogeneous := func(i int) []transmit.Frame {
		return []transmit.Frame{{Node: names[i], Kind: transmit.FrameSnapshot, Values: a}}
	}
	mixed := func(i int) []transmit.Frame {
		f := transmit.Frame{Node: names[i], Kind: transmit.FrameSnapshot, Values: a}
		if i%2 == 1 {
			f.Values = b
		}
		if i < 1024 {
			return []transmit.Frame{f}
		}
		late := transmit.Frame{Node: names[i], Values: []consolidate.Value{consolidate.NumValue("late.metric", consolidate.Dynamic, 1)}}
		return []transmit.Frame{f, late}
	}
	regH, regM := registryBytesPerNode(t, names, homogeneous), registryBytesPerNode(t, names, mixed)
	t.Logf("registry per node: homogeneous %.0f B, mixed %.0f B", regH, regM)
	if regM > regH*1.1 || regM < regH*0.9 {
		t.Fatalf("the registry holds %.0f B per node of a mixed tree, %.0f B of a homogeneous one: want within 10 %%", regM, regH)
	}

	// The same two trees through a batch session, 256 nodes a frame.
	decoderHolds := func(frames func(i int) []transmit.Frame) int64 {
		var dec *transmit.BatchDecoderV2
		_, heap := measureOnce(func() {
			enc := transmit.NewBatchEncoderV2()
			dec = transmit.NewBatchDecoderV2()
			var buf []byte
			seq := uint64(0)
			for lo := 0; lo < len(names); lo += 256 {
				var chunk []transmit.Frame
				for i := lo; i < min(lo+256, len(names)); i++ {
					chunk = append(chunk, frames(i)[0])
				}
				seq++
				buf = enc.Encode(buf[:0], seq, int64(seq), chunk)
				if _, err := dec.Decode(buf, func(transmit.Frame) {}); err != nil {
					t.Fatal(err)
				}
			}
		})
		runtime.KeepAlive(dec)
		return heap
	}
	decH, decM := decoderHolds(homogeneous), decoderHolds(mixed)
	t.Logf("batch decoder: homogeneous %d B, mixed %d B", decH, decM)
	if decM > 2*decH {
		t.Fatalf("a batch decoder holds %d B for a mixed tree, %d B for a homogeneous one: want within 2x", decM, decH)
	}
}

// TestAllocGateHistoryBytesPerSample pins the compression ratio the E19
// benchmark reports: a monitor-shaped stream (1 s cadence, quantized
// dwelling values — the §5.3.2 change-suppressed shape) must cost at
// most 2 bytes/sample including block metadata, ≥8× under the naive
// ring's 16.
func TestAllocGateHistoryBytesPerSample(t *testing.T) {
	const n = 1 << 16
	s := history.NewSeries(n)
	for i := 0; i < n; i++ {
		s.Append(time.Duration(i)*time.Second, 40+float64((i/64)%32)*0.5)
	}
	if perSample := float64(s.Bytes()) / float64(s.Len()); perSample > 2.0 {
		t.Fatalf("history stores monitor stream at %.2f B/sample, want <= 2", perSample)
	}
}

// TestAllocGateHistoryDecimalBytesPerSample pins the other end of the
// value code: a stream where every reading changes — a random two-decimal
// value on a wall clock with tens of milliseconds of jitter, the shape a
// root's ingest stamps onto a busy metric, and the one XOR coding is worst
// at (≈12 B/sample; 16 raw). At most 8 bytes/sample including block
// metadata.
func TestAllocGateHistoryDecimalBytesPerSample(t *testing.T) {
	const n = 1 << 16
	s := history.NewSeries(n)
	next := twoDecimalStream()
	for i := 0; i < n; i++ {
		s.Append(next())
	}
	if perSample := float64(s.Bytes()) / float64(s.Len()); perSample > 8.0 {
		t.Fatalf("history stores two-decimal stream at %.2f B/sample, want <= 8", perSample)
	}
}

// TestAllocGateHistoryGridBytesPerSample pins what the same stream costs
// as a root actually stamps it: cwxd's clock steps 100 ms at a time, so
// every stamp is a whole number of steps and the stamp code spends a bit
// on a 1 Hz sample and about ten on one that arrives after a
// change-suppressed gap of 1–8 s, where the free-running clock's
// nanoseconds cost 36 and 68. At most 4 bytes/sample either way, block
// metadata included.
func TestAllocGateHistoryGridBytesPerSample(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(2))
	gap := time.Duration(0)
	next := twoDecimalStream()
	suppressed := func() (time.Duration, float64) {
		ts, v := next()
		gap += time.Duration(rng.Intn(8)) * time.Second
		return ts + gap, v
	}
	for _, c := range []struct {
		name string
		next func() (time.Duration, float64)
	}{
		{"1 Hz", onGrid(twoDecimalStream(), 100*time.Millisecond)},
		{"change-suppressed, 1–8 s apart", onGrid(suppressed, 100*time.Millisecond)},
	} {
		s := history.NewSeries(n)
		for i := 0; i < n; i++ {
			s.Append(c.next())
		}
		perSample := float64(s.Bytes()) / float64(s.Len())
		t.Logf("%s: %.2f B/sample", c.name, perSample)
		if perSample > 4.0 {
			t.Fatalf("%s: history stores the two-decimal stream on 100 ms stamps at %.2f B/sample, want <= 4", c.name, perSample)
		}
	}
}

// TestAllocGateServeHit pins the serving plane's cached read path (E20's
// shape) at zero allocations: with the generation unmoved, every ctl
// verb answers with a prebuilt string via an atomic pointer load, and
// Status() shares one immutable row slice across readers. The clock is
// frozen so the status snapshot's liveness deadline never passes inside
// the measurement.
func TestAllocGateServeHit(t *testing.T) {
	skipUnderRace(t)
	now := int64(time.Second)
	srv := core.NewServer(core.ServerConfig{
		Cluster: "allocgate",
		Now:     func() time.Duration { return time.Duration(atomic.LoadInt64(&now)) },
	})
	names := ingestNodeNames()
	full := ingestFullSet()
	for _, name := range names {
		srv.HandleValues(name, full)
	}
	reqs := []string{
		"status",
		"nodes",
		"values " + names[0],
		"compare metric.00",
		"chart " + names[1] + " metric.01",
		"spark " + names[2] + " metric.02",
		"sync",
	}
	for _, req := range reqs {
		req := req
		if resp := srv.HandleCtl(req); !strings.HasPrefix(resp, "OK") {
			t.Fatalf("%s failed: %.80s", req, resp)
		}
		allocs := testing.AllocsPerRun(200, func() {
			srv.HandleCtl(req)
		})
		if allocs != 0 {
			t.Fatalf("cached %q allocates %.1f times per hit, want 0", req, allocs)
		}
	}
	srv.Status() // warm the snapshot the API path shares
	allocs := testing.AllocsPerRun(200, func() {
		if rows := srv.Status(); len(rows) != len(names) {
			t.Fatalf("status rows = %d, want %d", len(rows), len(names))
		}
	})
	if allocs != 0 {
		t.Fatalf("cached Status() allocates %.1f times per call, want 0", allocs)
	}
}

// TestAllocGateServeRebuild pins what a rebuild costs on a live cluster,
// where a write lands between any two reads (cwxbench's query_churn
// shape): one of 1 024 nodes reports, then each cluster-wide table is
// read. The rebuild copies every unchanged row out of its predecessor, so
// it allocates the new snapshot — the text, and for status the API rows
// and row ends — and nothing per row: at most 16 allocations, where
// formatting every row through fmt cost 5 152 (status), 6 180 (compare)
// and 4 158 (efficiency). Each answer still equals the from-scratch one.
// The touched node's chart and values draw in stack scratch and publish
// one string: at most 3 each, the gate's entry included (measured 2 and 2;
// 39 and 4 when the chart drew into a heap grid through fmt and the values
// were copied out into a slice of their own).
func TestAllocGateServeRebuild(t *testing.T) {
	skipUnderRace(t)
	const nodes = 1024
	srv, touch := e20Cluster(nodes, 10)
	i := 0
	for _, c := range []struct {
		verb  string
		touch func() int // the node to touch
		most  float64
		rows  int
	}{
		{"status", func() int { return i * 7 % nodes }, 16, nodes},
		{"compare load.1", func() int { return i * 7 % nodes }, 16, nodes},
		{"efficiency", func() int { return i * 7 % nodes }, 16, nodes},
		{"chart " + e20NodeName(5) + " load.1", func() int { return 5 }, 3, 14},
		{"values " + e20NodeName(5), func() int { return 5 }, 3, 4},
	} {
		srv.HandleCtl(c.verb)
		allocs := testing.AllocsPerRun(20, func() {
			i++
			touch(c.touch())
			srv.HandleCtl(c.verb)
		})
		if allocs > c.most {
			t.Errorf("touch one node + %q allocates %.1f times per rebuild, want <= %.0f", c.verb, allocs, c.most)
		}
		if got, want := srv.HandleCtl(c.verb), srv.HandleCtlUncached(c.verb); got != want || strings.Count(got, "\n") < c.rows {
			t.Errorf("rebuilt %q differs from the uncached answer (%d and %d bytes)", c.verb, len(got), len(want))
		}
	}
}

// pipeListener hands a Serve loop the server ends of net.Pipes.
type pipeListener struct {
	conn chan net.Conn
	done chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conn:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { close(l.done); return nil }
func (l *pipeListener) Addr() net.Addr { return nil }

// servePipes runs serve (a server's ServeCtl or ServeAgents) on n net.Pipe
// connections and returns their client ends; stop closes them and waits
// for serve to return.
func servePipes(serve func(net.Listener) error, n int) (clients []net.Conn, stop func()) {
	l := &pipeListener{conn: make(chan net.Conn, n), done: make(chan struct{})}
	for i := 0; i < n; i++ {
		server, client := net.Pipe()
		l.conn <- server
		clients = append(clients, client)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		serve(l) //nolint:errcheck // ends with the listener
	}()
	return clients, func() {
		for _, c := range clients {
			c.Close()
		}
		l.Close()
		<-served
	}
}

// TestAllocGateCtlConnHit pins the control connection's own cost around a
// cached answer at 0: the request line is read, trimmed, tested for "quit"
// and "watch" and looked up in the gate table in the scanner's buffer. The
// loop used to split every line into fields to look for "watch", scan the
// whole response for lines to dot-stuff into a copy, box it through
// fmt.Fprintf, and, until reading in place, make a string of every line.
func TestAllocGateCtlConnHit(t *testing.T) {
	skipUnderRace(t)
	srv, _ := e20Cluster(e20Nodes, 4)
	clients, stop := servePipes(srv.ServeCtl, 1)
	client := clients[0]
	req, end := []byte("status\n"), []byte("\n.\n")
	buf := make([]byte, 0, 64<<10)
	exchange := func() {
		if _, err := client.Write(req); err != nil {
			t.Fatal(err)
		}
		for buf = buf[:0]; !bytes.HasSuffix(buf, end); {
			n, err := client.Read(buf[len(buf):cap(buf)])
			if err != nil {
				t.Fatal(err)
			}
			buf = buf[:len(buf)+n]
		}
	}
	exchange()
	if want := srv.HandleCtl("status") + "\n.\n"; string(buf) != want {
		t.Fatalf("status over the connection:\n%s\nwant:\n%s", buf, want)
	}
	if allocs := testing.AllocsPerRun(200, exchange); allocs != 0 {
		t.Errorf("a cached status over a ctl connection allocates %.1f times per request, want 0", allocs)
	}
	stop()
}

// readBlocks reads n dot-terminated blocks from r without allocating.
func readBlocks(t *testing.T, r *bufio.Reader, n int) {
	t.Helper()
	for ; n > 0; n-- {
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				t.Fatal(err)
			}
			if len(line) == 2 && line[0] == '.' {
				break
			}
		}
	}
}

// queryChurn sets up cwxbench's query_churn round in process: 1 024
// nodes, one connection watching the sentinel's values and one running
// the benchmark's 8-request script after the sentinel reports. The
// round's five rebuilds are status, compare, efficiency, and the
// sentinel's values and chart; value and history answer live and the
// other node's values hit. The first rounds, run here, build every gate
// and grow every buffer.
func queryChurn(t *testing.T) (round func(), stop func()) {
	const nodes = 1024
	srv, touch := e20Cluster(nodes, 16)
	a, b := e20NodeName(0), e20NodeName(3)
	clients, stop := servePipes(srv.ServeCtl, 2)
	watch, ctl := bufio.NewReader(clients[0]), bufio.NewReader(clients[1])
	if _, err := clients[0].Write([]byte("watch values " + a + "\n")); err != nil {
		t.Fatal(err)
	}
	readBlocks(t, watch, 1) // the initial snapshot
	var script []byte
	for _, req := range []string{
		"status", "values " + a, "compare load.1", "values " + b, "chart " + a + " load.1",
		"value " + a + " load.1", "history " + a + " load.1 50", "efficiency",
	} {
		script = append(append(script, req...), '\n')
	}
	round = func() {
		touch(0)
		readBlocks(t, watch, 1) // the push of the sentinel's new values
		if _, err := clients[1].Write(script); err != nil {
			t.Fatal(err)
		}
		readBlocks(t, ctl, 8)
	}
	for i := 0; i < 4; i++ {
		round()
	}
	return round, stop
}

// TestAllocGateQueryChurnRound pins a whole query_churn round (queryChurn)
// at what its rebuilds publish — each a string and a gate entry, and the
// status snapshot's rows and offsets — plus the two live requests' lines:
// 15.0 measured, at most 24. It was 87.0 while the chart drew into a heap
// grid through fmt, every request line, watch op and live answer was a
// string of its own and a watch block was built in a Builder and copied
// (`make alloc-sites` lists the sites).
func TestAllocGateQueryChurnRound(t *testing.T) {
	skipUnderRace(t)
	round, stop := queryChurn(t)
	defer stop()
	before := serve.ReadStats()
	allocs := testing.AllocsPerRun(24, round)
	if after := serve.ReadStats(); after.Misses-before.Misses != 5*25 {
		t.Fatalf("%d rebuilds in 25 rounds, want 5 a round", after.Misses-before.Misses)
	}
	t.Logf("query_churn round: %.1f allocations", allocs)
	if allocs > 24 {
		t.Errorf("a query_churn round allocates %.1f times, want <= 24", allocs)
	}
}

// TestAllocGateWireRoundtrip pins the compressed wire path (E6's shape):
// marshal + frame + deflate on the agent side, decode + inflate on the
// server side, at zero allocations per roundtrip. (This was 1 until the
// Reader's header scratch moved into the struct — a local escaped to the
// heap through the io.ReadFull interface call on every frame.) The same
// roundtrip carries a v2 payload down the raw path, which skips deflate,
// and the two control frames the server writes back uncompressed: a
// dictionary ack and a resync request.
func TestAllocGateWireRoundtrip(t *testing.T) {
	skipUnderRace(t)
	snap := transmit.Frame{Node: "node042", Seq: 1, Kind: transmit.FrameSnapshot, Values: ingestFullSet()}
	payload := transmit.MarshalFrame(nil, snap)
	v2 := transmit.NewEncoderV2().Encode(nil, snap)
	var wire bytes.Buffer
	w := transmit.NewWriter(&wire, true)
	back := transmit.NewWriter(&wire, false)
	r := transmit.NewReader(&wire)
	var ctl []byte
	frame := func(write func([]byte) error, p []byte) {
		if err := write(p); err != nil {
			t.Fatal(err)
		}
		out, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(p) {
			t.Fatalf("roundtrip returned %d bytes, want %d", len(out), len(p))
		}
	}
	roundtrip := func() {
		frame(w.WriteFrame, payload)
		frame(w.WriteFrameRaw, v2)
		ctl = transmit.MarshalDictAck(ctl[:0], len(snap.Values))
		frame(back.WriteFrame, ctl)
		ctl = transmit.MarshalResync(ctl[:0], snap.Node)
		frame(back.WriteFrame, ctl)
	}
	roundtrip() // warm the reader's scratch buffers off the measured path
	allocs := testing.AllocsPerRun(200, roundtrip)
	if allocs != 0 {
		t.Fatalf("wire roundtrip allocates %.1f times, want 0", allocs)
	}
}

// TestAllocGateFlightAppend pins the flight recorder's journal append
// (E21's shape) at zero allocations once its ring chunk exists: one CAS
// claim plus eight atomic stores into a ring slot. This is what lets
// the recorder stay always-on under the ingest hot path.
func TestAllocGateFlightAppend(t *testing.T) {
	skipUnderRace(t)
	j := flight.NewJournal()
	node := j.Sym("node042") // interning is setup-time, off the measured path
	e := flight.Entry{Kind: flight.KindStage, Stage: 3, Node: node, Trace: 0xfeed, TimeNs: 1, A: 2, B: 3}
	for i := 0; i < flight.Capacity(); i++ {
		j.Append(0, e) // make stripe 0's whole ring, so every measured append reuses a chunk
	}
	allocs := testing.AllocsPerRun(200, func() {
		j.Append(0, e)
	})
	if allocs != 0 {
		t.Fatalf("journal append allocates %.1f times, want 0", allocs)
	}
}

// TestAllocGateFlightUnsampledTick pins the cost a NON-sampled agent
// tick pays for tracing — one modular check — at zero allocations, and
// the sampled path's id mint at zero too (it is pure integer mixing).
func TestAllocGateFlightUnsampledTick(t *testing.T) {
	skipUnderRace(t)
	salt := flight.Salt("node042")
	var n uint64
	var sink uint64
	allocs := testing.AllocsPerRun(200, func() {
		n++
		sink += flight.NextTrace(salt, n)
	})
	if allocs != 0 {
		t.Fatalf("trace sampling decision allocates %.1f times, want 0", allocs)
	}
	_ = sink
}

// TestAllocGateTracedIngest pins the sequenced ingest path carrying a
// trace context: the journal append and exemplar CAS it adds over
// TestAllocGateSequencedIngest must also be free.
func TestAllocGateTracedIngest(t *testing.T) {
	skipUnderRace(t)
	srv := core.NewServer(core.ServerConfig{Cluster: "allocgate"})
	full := ingestFullSet()
	deltas := ingestDeltaSets()
	const node = "fnode0001"
	if err := srv.HandleFrame(transmit.Frame{Node: node, Seq: 1, Kind: transmit.FrameSnapshot, Values: full}); err != nil {
		t.Fatal(err)
	}
	seq := uint64(1)
	i := 0
	allocs := steadyStateAllocs(func() {
		seq++
		f := transmit.Frame{Node: node, Seq: seq, Kind: transmit.FrameDelta,
			Values: deltas[i%len(deltas)], TraceID: seq | 1, TraceNs: int64(seq)}
		if err := srv.HandleFrame(f); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("traced sequenced ingest allocates %.1f times per update, want 0", allocs)
	}
}

// TestAllocGateTracedMarshal pins the wire cost of carrying the trace
// option: marshaling a traced frame into a reused buffer allocates
// nothing beyond the untraced path, in v1 text and in v2 binary.
func TestAllocGateTracedMarshal(t *testing.T) {
	skipUnderRace(t)
	f := transmit.Frame{Node: "node042", Seq: 9, Kind: transmit.FrameDelta,
		Values: ingestFullSet(), TraceID: 0xabcdef0123456789, TraceNs: 1 << 40}
	buf := transmit.MarshalFrame(nil, f) // size the scratch off the measured path
	enc := transmit.NewEncoderV2()
	v2 := enc.Encode(nil, f)
	enc.Ack(enc.TableLen())
	allocs := testing.AllocsPerRun(200, func() {
		buf = transmit.MarshalFrame(buf[:0], f)
		f.Seq++
		v2 = enc.Encode(v2[:0], f)
	})
	if allocs != 0 {
		t.Fatalf("traced marshal allocates %.1f times, want 0", allocs)
	}
}

// TestAllocGateV2Marshal pins the agent's send path in the v2 binary
// format (the E22 shape) at zero allocations: once the dictionary is
// interned and the scratch buffers are sized, a tick consolidates the
// sample, takes the change set (Delta) and encodes it — varint appends
// and XOR bit-writes into reused memory.
func TestAllocGateV2Marshal(t *testing.T) {
	skipUnderRace(t)
	enc := transmit.NewEncoderV2()
	deltas := ingestDeltaSets()
	const node = "fnode0001"
	sample := ingestFullSet()
	cons := consolidate.New()
	cons.AddSource(consolidate.FuncSource{SourceName: "gate", Fn: func(dst []consolidate.Value) ([]consolidate.Value, error) {
		return append(dst, sample...), nil
	}}, 1)
	// Warmup interns every name, sizes the scratch, and drains the tail.
	cons.Tick()
	f := transmit.Frame{Node: node, Seq: 1, Kind: transmit.FrameSnapshot, Values: cons.Delta(), SentNs: 0}
	buf := enc.Encode(nil, f)
	enc.Ack(enc.TableLen())
	seq := uint64(1)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		seq++
		sample = deltas[i%len(deltas)]
		cons.Tick()
		buf = enc.Encode(buf[:0], transmit.Frame{
			Node: node, Seq: seq, Kind: transmit.FrameDelta,
			Values: cons.Delta(), SentNs: int64(seq) * 15_000_000_000,
		})
		i++
	})
	if allocs != 0 {
		t.Fatalf("v2 marshal allocates %.1f times per frame, want 0", allocs)
	}
}

// TestAllocGateV2Ingest pins the full v2 receive path — binary decode
// into the decoder's scratch, then sequenced ingest — at zero
// allocations per in-order numeric delta, matching the v1 path's gate.
func TestAllocGateV2Ingest(t *testing.T) {
	skipUnderRace(t)
	srv := core.NewServer(core.ServerConfig{Cluster: "allocgate"})
	enc := transmit.NewEncoderV2()
	dec := transmit.NewDecoderV2()
	deltas := ingestDeltaSets()
	const node = "fnode0001"
	buf := enc.Encode(nil, transmit.Frame{Node: node, Seq: 1, Kind: transmit.FrameSnapshot, Values: ingestFullSet()})
	f, err := dec.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.HandleFrame(f); err != nil {
		t.Fatal(err)
	}
	if n, ok := dec.PendingAck(); ok {
		enc.Ack(n)
	}
	seq := uint64(1)
	i := 0
	allocs := steadyStateAllocs(func() {
		seq++
		buf = enc.Encode(buf[:0], transmit.Frame{
			Node: node, Seq: seq, Kind: transmit.FrameDelta,
			Values: deltas[i%len(deltas)], SentNs: int64(seq) * 15_000_000_000,
		})
		f, err := dec.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.HandleFrame(f); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("v2 ingest allocates %.1f times per frame, want 0", allocs)
	}
}

// batchGateFrames builds an 8-node batch of delta sub-frames (Seq 0,
// shared timestamp column) with values drawn from the shared delta
// fixtures, rotated by i so consecutive encodes carry fresh numbers.
func batchGateFrames(frames []transmit.Frame, names []string, deltas [][]consolidate.Value, i int) []transmit.Frame {
	frames = frames[:0]
	for j, name := range names {
		frames = append(frames, transmit.Frame{
			Node: name, Kind: transmit.FrameDelta, Values: deltas[(i+j)%len(deltas)],
		})
	}
	return frames
}

// TestAllocGateUplinkBatchMarshal pins the federation uplink's batched
// v2 encode (the E23 wire shape) at zero allocations per frame: once
// the dictionary is interned and every (node, metric) predictor pair
// exists, a steady-state batch is varint appends and XOR bit-writes
// into reused scratch, whatever the node count.
func TestAllocGateUplinkBatchMarshal(t *testing.T) {
	skipUnderRace(t)
	enc := transmit.NewBatchEncoderV2()
	names := ingestNodeNames()[:8]
	deltas := ingestDeltaSets()
	var frames []transmit.Frame
	// Warmup interns every name, creates the predictor pairs, sizes the
	// scratch, and drains the dictionary tail.
	frames = batchGateFrames(frames, names, deltas, 0)
	for i := range frames {
		frames[i].Kind = transmit.FrameSnapshot
		frames[i].Values = ingestFullSet()
	}
	buf := enc.Encode(nil, 1, 0, frames)
	enc.Ack(enc.TableLen())
	seq := uint64(1)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		seq++
		i++
		frames = batchGateFrames(frames, names, deltas, i)
		buf = enc.Encode(buf[:0], seq, int64(seq)*100_000_000, frames)
	})
	if allocs != 0 {
		t.Fatalf("batched uplink marshal allocates %.1f times per frame, want 0", allocs)
	}
}

// TestAllocGateUplinkBatchIngest pins the parent tier's receive path —
// the agent port's connection loop reading a batch frame the child wrote
// raw, batch decode into the decoder's scratch, then one unsequenced
// ingest per node section — at zero allocations per batch frame, matching
// the per-node v2 gate. This is what keeps a root ingesting 100k mirrored
// nodes from touching the allocator at all in steady state: every cycle
// appends to the same 8 × 8 history series, whose heads are grown to
// full size before the measured window (see headWarmCycles).
//
// The session is the benchmark tree's: one snap-all of 1 024 nodes × 34
// values opens it and deltas of 8 values a node follow, 256 nodes at a
// time where scratch is measured. The decoder must
// not go on holding scratch sized for the snap-all — 2 MB of values and
// ids — once the deltas have shown what the link needs: eight deltas in,
// it holds twice a delta's need (240 KB of values and ids, 60 KB of
// section headers) and has given the rest back.
func TestAllocGateUplinkBatchIngest(t *testing.T) {
	skipUnderRace(t)
	const nodes, window, touched = 1024, 256, 8
	names := gateNodeNames(nodes)
	full := gateMetricSet("a")
	deltas := make([][]consolidate.Value, 4)
	for v := range deltas {
		deltas[v] = make([]consolidate.Value, touched)
		for i := range deltas[v] {
			deltas[v][i] = consolidate.NumValue(full[(i*7)%32].Name, consolidate.Dynamic, float64(v*100+i))
		}
	}
	snapAll := make([]transmit.Frame, nodes)
	for i, name := range names {
		snapAll[i] = transmit.Frame{Node: name, Kind: transmit.FrameSnapshot, Values: full}
	}
	// open starts a session with the snap-all; its cycle sends one delta
	// frame. deliver carries an encoded frame to the receiver and returns
	// the receiver's dictionary ack, which is owed when tail is set (the
	// frame carried entries the receiver had not acked).
	open := func(deliver func(payload []byte, tail bool) (ack int, ok bool)) (sendSnapAll func(), cycle func(nodes int)) {
		enc := transmit.NewBatchEncoderV2()
		var frames []transmit.Frame
		var buf []byte
		seq, acked := uint64(0), 0
		send := func(frames []transmit.Frame) {
			seq++
			buf = enc.Encode(buf[:0], seq, int64(seq)*100_000_000, frames)
			if n, ok := deliver(buf, enc.TableLen() > acked); ok {
				enc.Ack(n)
				acked = n
			}
		}
		return func() { send(snapAll) }, func(nodes int) {
			frames = batchGateFrames(frames, names[:nodes], deltas, int(seq))
			send(frames)
		}
	}

	// First into nothing, so the heap moves only with what the session
	// holds. Two empty frames make the decoder let go of all scratch — the
	// first leaves none in use, the second finds it so — which shows how
	// much it still held.
	dec := transmit.NewBatchDecoderV2()
	sendSnapAll, cycle := open(func(payload []byte, _ bool) (int, bool) {
		if _, err := dec.Decode(payload, func(transmit.Frame) {}); err != nil {
			t.Fatal(err)
		}
		return dec.PendingAck()
	})
	sendSnapAll()
	_, afterDeltas := measureOnce(func() {
		for i := 0; i < 8; i++ {
			cycle(window)
		}
	})
	_, afterEmpty := measureOnce(func() {
		cycle(0)
		cycle(0)
	})
	runtime.KeepAlive(cycle) // the session outlives the measurement
	const valueAndID = int64(unsafe.Sizeof(consolidate.Value{})) + 4
	if held := -afterEmpty; held <= 0 {
		t.Fatalf("two empty frames released %d B: the decoder never lets scratch go", held)
	} else if held > 320<<10 {
		t.Fatalf("eight deltas after the snap-all the decoder holds %d B of scratch, want <= 320 KB", held)
	}
	if released, snapAllNeeds := -(afterDeltas + afterEmpty), nodes*int64(len(full))*valueAndID; released < snapAllNeeds {
		t.Fatalf("the decoder gave back %d B of scratch in all; the snap-all alone needed %d", released, snapAllNeeds)
	}

	// Then the same session into a server's agent port. A frame is
	// applied when the server's batch count reaches it; the snap-all's
	// dictionary comes back acked.
	srv := core.NewServer(core.ServerConfig{Cluster: "allocgate"})
	clients, stop := servePipes(srv.ServeAgents, 1)
	defer stop()
	w, r := transmit.NewWriter(clients[0], false), transmit.NewReader(clients[0])
	sent := int64(0)
	sendSnapAll, cycle = open(func(payload []byte, tail bool) (int, bool) {
		if err := w.WriteFrameRaw(payload); err != nil {
			t.Fatal(err)
		}
		sent++
		if tail {
			ctl, err := r.ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			return transmit.ParseDictAck(ctl)
		}
		for srv.UplinkInStats().Frames < sent {
			runtime.Gosched()
		}
		return 0, false
	})
	sendSnapAll()
	if allocs := steadyStateAllocs(func() { cycle(8) }); allocs != 0 {
		t.Fatalf("batched uplink ingest allocates %.1f times per frame, want 0", allocs)
	}
}

// TestAllocGateUplinkFlush pins the child side end to end: ingest marks
// the dirty stripes (noteFrame under the ingest hot path), and Flush
// drains, reads the registry, assembles sub-frames, and encodes one
// batch — all in reused scratch, zero allocations per flush cycle once
// the history heads the ingest half appends to are at full size. A
// connectivity sweep whose every echo flips marks each node through the
// server-side path (noteValue); it and the flush that ships the flips
// cost what the sweep's name list costs (NodeNames), nothing more.
func TestAllocGateUplinkFlush(t *testing.T) {
	skipUnderRace(t)
	srv := core.NewServer(core.ServerConfig{Cluster: "allocgate"})
	u := core.NewUplink(srv, core.UplinkConfig{
		Name: "leaf", Send: func([]byte) error { return nil },
	})
	srv.SetUplink(u)
	// Negotiate the batch wire the way a parent would.
	u.HandleControl(transmit.MarshalWireAnswer(nil, transmit.WireV2), 0)
	names := ingestNodeNames()[:8]
	full := ingestFullSet()
	deltas := ingestDeltaSets()
	for _, name := range names {
		srv.HandleValues(name, full)
	}
	// First flush is the snap-all (registers every node and interns the
	// dictionary); the second sizes the delta-path scratch.
	now := int64(0)
	if _, err := u.Flush(now); err != nil {
		t.Fatal(err)
	}
	for j, name := range names {
		srv.HandleValues(name, deltas[j%len(deltas)])
	}
	now += 100_000_000
	if _, err := u.Flush(now); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := steadyStateAllocs(func() {
		i++
		for j, name := range names {
			srv.HandleValues(name, deltas[(i+j)%len(deltas)])
		}
		now += 100_000_000
		if sent, err := u.Flush(now); err != nil || sent != len(names) {
			t.Fatalf("flush sent %d (%v), want %d", sent, err, len(names))
		}
	})
	if allocs != 0 {
		t.Fatalf("uplink mark+flush allocates %.1f times per cycle, want 0", allocs)
	}

	reach := false
	probe := func(string) bool { return reach }
	list := testing.AllocsPerRun(20, func() { srv.NodeNames() })
	allocs = steadyStateAllocs(func() {
		reach = !reach
		srv.ProbeConnectivity(probe)
		now += 100_000_000
		if sent, err := u.Flush(now); err != nil || sent != len(names) {
			t.Fatalf("flush after a sweep sent %d (%v), want %d", sent, err, len(names))
		}
	})
	if allocs != list {
		t.Fatalf("probe sweep+flush allocates %.1f times per cycle, want the %.1f of its name list", allocs, list)
	}
}

// TestAllocGateRollupTick pins the aggregate's idle cost: a tier's rollup
// ticks on the wall clock whatever the tree does, so an allocation there
// is charged to whichever round it lands in. A steady Reset, Observe,
// AppendValues cycle over 32 metrics, and a Rollup.Tick over 64 children
// whose fold did not change, both allocate nothing: the four names of a
// metric's fold are built when its entry is made, not on every tick.
func TestAllocGateRollupTick(t *testing.T) {
	skipUnderRace(t)
	full := gateMetricSet("a")
	acc := consolidate.NewRollupAcc()
	var dst []consolidate.Value
	cycle := func() {
		acc.Reset()
		for i := range full[:32] {
			acc.Observe(full[i].Name, full[i].Num)
		}
		dst = acc.AppendValues(dst[:0])
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 || len(dst) != 4*32 {
		t.Fatalf("a fold cycle allocates %.1f times and emits %d values, want 0 and %d", allocs, len(dst), 4*32)
	}

	srv := core.NewServer(core.ServerConfig{Cluster: "allocgate"})
	for _, name := range gateNodeNames(64) {
		srv.HandleValues(name, full)
	}
	roll := core.NewRollup(srv, "rack/leaf0", "")
	// The first tick publishes the aggregate, registering its node; the
	// second re-reads the roster that registration moved.
	roll.Tick()
	roll.Tick()
	gen := srv.Generation()
	if allocs := testing.AllocsPerRun(100, func() { roll.Tick() }); allocs != 0 || srv.Generation() != gen {
		t.Fatalf("an unchanged tick allocates %.1f times (generation %d → %d), want 0 and no emission", allocs, gen, srv.Generation())
	}
}

// TestAllocGateKeepOpenMeminfo pins the monitor's keep-open samples —
// rewind, one read, the a-priori parse with its line-tag checks — of
// /proc/meminfo and of /proc/stat at zero allocations.
func TestAllocGateKeepOpenMeminfo(t *testing.T) {
	skipUnderRace(t)
	fs := procfs.NewFS()
	procfs.RegisterStd(fs, procfs.Frozen())
	g, err := gather.NewKeepOpenMeminfo(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sg, err := gather.NewStatGatherer(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	var m gather.MemStats
	var c gather.CPUStats
	sg.Gather(&c) //nolint:errcheck // sizes the per-cpu and disk slices; checked below
	var gerr error
	if allocs := testing.AllocsPerRun(200, func() { gerr = g.Gather(&m) }); allocs != 0 || gerr != nil {
		t.Fatalf("a keep-open meminfo sample allocates %.1f times (%v), want 0", allocs, gerr)
	}
	if allocs := testing.AllocsPerRun(200, func() { gerr = sg.Gather(&c) }); allocs != 0 || gerr != nil {
		t.Fatalf("a keep-open stat sample allocates %.1f times (%v), want 0", allocs, gerr)
	}
}

// TestAllocGateRestoredStoreHeap: a history store restored by LoadFrom
// costs no more heap per series than the store that was saved. 1 024
// nodes × 32 metrics × 16 samples are appended a frame at a time, saved,
// and loaded into a fresh store; beside the series' buffers (Bytes), the
// restored store must hold what the ingested one holds — its nodes'
// series in one slab chunk each, as a node whose first frame was a
// snapshot has them — within the 4 B a series that two measurements of
// one build differ by, and at most 168 B: before the slab, a 160 B Series
// and its slot in the node's pointer column alone came to that (177 B in
// all, measured this way).
func TestAllocGateRestoredStoreHeap(t *testing.T) {
	skipUnderRace(t)
	const nodes, metrics, samples = 1024, 32, 16
	names := gateNodeNames(nodes)
	vals := gateMetricSet("a")[:metrics]
	perSeries := func(st *history.Store, heap int64) float64 {
		return float64(heap-st.Bytes()) / (nodes * metrics)
	}
	var ingested *history.Store
	_, heap := measureOnce(func() {
		ingested = history.NewStore(0)
		for s := 0; s < samples; s++ {
			for _, name := range names {
				ingested.Node(name).AppendFrame(time.Duration(s)*time.Second, metrics, func(k int) (uint32, float64, bool) {
					return ingested.MetricID(vals[k].Name), float64(s) + float64(k)/4, true
				})
			}
		}
	})
	in := perSeries(ingested, heap)
	var saved bytes.Buffer
	if err := ingested.SaveTo(&saved); err != nil {
		t.Fatal(err)
	}
	file := saved.Bytes()
	var restored *history.Store
	_, heap = measureOnce(func() {
		restored = history.NewStore(0)
		if err := restored.LoadFrom(bytes.NewReader(file)); err != nil {
			t.Fatal(err)
		}
	})
	back := perSeries(restored, heap)
	t.Logf("per series beside its buffer: ingested %.1f B, restored %.1f B", in, back)
	if restored.Bytes() != ingested.Bytes() || back > in+4 || back > 168 {
		t.Fatalf("restored: %d B of buffers and %.1f B a series beside them; ingested: %d B and %.1f B; want the same buffers and <= %.1f B (and <= 168 B)",
			restored.Bytes(), back, ingested.Bytes(), in, in+4)
	}
	runtime.KeepAlive(ingested)
	runtime.KeepAlive(restored)
	runtime.KeepAlive(file)
}
