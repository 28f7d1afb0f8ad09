package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/serve"
)

// planeServer builds a server on a hand-cranked clock so every test in
// this file is deterministic: time moves only when the test says so.
func planeServer() (*Server, *atomic.Int64) {
	var nowNs atomic.Int64
	s := NewServer(ServerConfig{
		Cluster: "plane",
		Now:     func() time.Duration { return time.Duration(nowNs.Load()) },
	})
	return s, &nowNs
}

func planeIngest(s *Server, node string, load, idle, mem float64) {
	s.HandleValues(node, []consolidate.Value{
		consolidate.NumValue("load.1", consolidate.Dynamic, load),
		consolidate.NumValue("cpu.idle.pct", consolidate.Dynamic, idle),
		consolidate.NumValue("mem.used.pct", consolidate.Dynamic, mem),
	})
}

// TestPlaneCachedMatchesUncached is the serving plane's differential
// test: random ingest interleaved with reads, every cached answer
// byte-identical to the uncached ablation that rebuilds from the live
// registry. Any divergence — a stale entry surviving a generation move,
// a window end drifting off the ingest timestamp — fails here. The cached
// table views rebuild from their previous rendering and the uncached ones
// from nothing, so it is also the incremental ≡ from-scratch test, and
// the run takes the row cache through everything that invalidates rows:
// nodes registering mid-run before, between and after the existing names
// (one longer than the name column), a node that stops reporting and goes
// DOWN by the clock alone, values that raise and — once the 6-point
// series evict them — lower compare's bar scale, negative and NaN
// readings, and a metric only some nodes carry. Two readers ask at once:
// under -race a rebuild that wrote into its predecessor would show.
func TestPlaneCachedMatchesUncached(t *testing.T) {
	var nowNs atomic.Int64
	s := NewServer(ServerConfig{
		Cluster:         "plane",
		Now:             func() time.Duration { return time.Duration(nowNs.Load()) },
		HistoryCapacity: 6,
	})
	rng := rand.New(rand.NewSource(1))
	nodes := []string{"node000", "node001", "node002", "node003", "node004"}
	late := []string{"aaa-sorts-first", "node0025", "zzz-a-name-longer-than-the-column", "node0035"}
	verbs := []string{
		"status", "nodes", "values node002", "values nosuch",
		"compare load.1", "compare hw.temp.cpu", "chart node001 disk.pct", "spark node003 disk.pct",
		"efficiency", "sync", "selfmon", "history node001 load.1 4", "value node002 load.1",
	}
	reading := func(scale float64) float64 {
		v := rng.Float64() * scale
		switch rng.Intn(16) {
		case 0:
			return -v
		case 1:
			return math.NaN()
		case 2:
			return v * 1e9 // the largest maximum by far, until its series evicts it
		}
		return v
	}
	const iterations = 800
	for i := 0; i < iterations; i++ {
		if i%150 == 100 && len(late) > 0 {
			nodes, late = append(nodes, late[0]), late[1:]
		}
		// A random burst of ingest on a random subset of the cluster, each
		// frame a random subset of the metrics (a row must notice any one
		// input moving); node004 falls silent halfway and every third node
		// has no temperature sensor.
		for k, n := range nodes {
			if rng.Intn(3) != 0 || n == "node004" && i > iterations/2 {
				continue
			}
			// Chart and Sparkline cannot plot NaN: they get a metric of their own.
			frame := []consolidate.Value{consolidate.NumValue("disk.pct", consolidate.Dynamic, rng.Float64()*100)}
			for _, m := range []struct {
				name  string
				scale float64
			}{{"load.1", 8}, {"cpu.idle.pct", 100}, {"mem.used.pct", 100}, {"hw.temp.cpu", 60}} {
				if rng.Intn(2) == 0 && (m.name != "hw.temp.cpu" || k%3 != 0) {
					frame = append(frame, consolidate.NumValue(m.name, consolidate.Dynamic, reading(m.scale)))
				}
			}
			if rng.Intn(20) == 0 { // a metric the node never had: only its value count moves
				frame = []consolidate.Value{consolidate.NumValue(fmt.Sprintf("extra.%d", i), consolidate.Dynamic, 1)}
			}
			s.HandleValues(n, frame)
		}
		nowNs.Add(rng.Int63n(int64(3 * time.Second)))
		verb := verbs[rng.Intn(len(verbs))]
		var got [2]string
		var wg sync.WaitGroup
		for r := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[r] = s.HandleCtl(verb)
			}()
		}
		wg.Wait()
		want := s.HandleCtlUncached(verb)
		if got[0] != want || got[1] != want {
			t.Fatalf("iteration %d: cached %q diverged from uncached:\ncached:\n%s\n%s\nuncached:\n%s",
				i, verb, got[0], got[1], want)
		}
	}
	if status := s.HandleCtl("status"); !strings.Contains(status, "node004      DOWN") || !strings.Contains(status, " up ") {
		t.Fatalf("node004, not everything, should have gone DOWN by the clock:\n%s", status)
	}
	if cmp := s.HandleCtl("compare load.1"); strings.Count(cmp, "\n") != 1+len(nodes) || len(late) != 0 {
		t.Fatalf("compare lost a late node (%d still to register):\n%s", len(late), cmp)
	}
}

// TestPlaneStatusLiveness: the status cache must not outlive a liveness
// deadline — a node that falls silent flips to DOWN purely by the clock
// passing lastSeen+DownAfter, with no ingest to move the generation.
func TestPlaneStatusLiveness(t *testing.T) {
	s, nowNs := planeServer()
	planeIngest(s, "node000", 1, 50, 20)
	if rows := s.Status(); len(rows) != 1 || !rows[0].Alive {
		t.Fatalf("fresh node not alive: %+v", rows)
	}
	// Within the window the cached snapshot keeps answering.
	nowNs.Store(int64(DownAfter))
	if rows := s.Status(); !rows[0].Alive {
		t.Fatal("node DOWN before the deadline passed")
	}
	// One tick past the deadline the Stale hook forces a rebuild.
	nowNs.Store(int64(DownAfter) + 1)
	if rows := s.Status(); rows[0].Alive {
		t.Fatal("cached status snapshot outlived the liveness deadline")
	}
	if !strings.Contains(s.HandleCtl("status"), "DOWN") {
		t.Fatal("ctl status rendering missed the down transition")
	}
}

// TestPlaneCoalescing: concurrent identical misses collapse onto one
// rebuild (acceptance bar: ≥90% collapsed; this allows at most 2 builds
// for 100 readers to tolerate scheduling skew around the bump).
func TestPlaneCoalescing(t *testing.T) {
	s, _ := planeServer()
	for i := 0; i < 32; i++ {
		planeIngest(s, fmt.Sprintf("node%03d", i), float64(i), 50, 20)
	}
	s.HandleCtl("status") // warm, then invalidate once
	planeIngest(s, "node000", 9, 50, 20)
	before := serve.ReadStats()
	const readers = 100
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s.HandleCtl("status")
		}()
	}
	close(start)
	wg.Wait()
	after := serve.ReadStats()
	if builds := after.Misses - before.Misses; builds > 2 {
		t.Fatalf("%d identical concurrent misses ran %d rebuilds, want ≤2 (≥90%% coalesced)", readers, builds)
	}
}

// TestPlaneChartShortCircuit: chart/spark ride their one series' append
// counter, so ingest on other nodes (which moves the global generation)
// leaves the cached rendering untouched — hits, not rebuilds.
func TestPlaneChartShortCircuit(t *testing.T) {
	s, nowNs := planeServer()
	for i := 0; i < 4; i++ {
		nowNs.Add(int64(time.Second))
		planeIngest(s, "node000", float64(i), 50, 20)
		planeIngest(s, "node001", float64(i*2), 50, 20)
	}
	first := s.HandleCtl("chart node000 load.1")
	if !strings.HasPrefix(first, "OK") {
		t.Fatalf("chart failed: %s", first)
	}
	pre := serve.ReadStats()
	// Ingest on a *different* node: global generation moves, node000's
	// load.1 series does not.
	nowNs.Add(int64(time.Second))
	planeIngest(s, "node001", 42, 50, 20)
	if got := s.HandleCtl("chart node000 load.1"); got != first {
		t.Fatal("chart changed without its series changing")
	}
	mid := serve.ReadStats()
	if mid.Misses != pre.Misses {
		t.Fatalf("chart rebuilt on unrelated ingest: misses %d -> %d", pre.Misses, mid.Misses)
	}
	if mid.Hits == pre.Hits {
		t.Fatal("chart re-read did not register as a cache hit")
	}
	// Ingest on the charted series invalidates it.
	nowNs.Add(int64(time.Second))
	planeIngest(s, "node000", 99, 50, 20)
	if got := s.HandleCtl("chart node000 load.1"); got == first {
		t.Fatal("chart survived its own series changing")
	}
	if post := serve.ReadStats(); post.Misses == mid.Misses {
		t.Fatal("changed chart served without a rebuild")
	}
}

// TestPlaneValuesShardGating: a node's values answer survives ingest on
// nodes in other shards and tracks its own updates.
func TestPlaneValuesShardGating(t *testing.T) {
	s, _ := planeServer()
	planeIngest(s, "node000", 1, 50, 20)
	first := s.HandleCtl("values node000")
	want := s.HandleCtlUncached("values node000")
	if first != want {
		t.Fatalf("cached values diverged:\n%s\nvs\n%s", first, want)
	}
	planeIngest(s, "node000", 7, 50, 20)
	if got := s.HandleCtl("values node000"); got == first {
		t.Fatal("values survived the node's own update")
	} else if want := s.HandleCtlUncached("values node000"); got != want {
		t.Fatalf("post-update values diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestServeConcurrentHammer drives writers and cached readers together;
// its value is under -race, where it must stay silent.
func TestServeConcurrentHammer(t *testing.T) {
	s, nowNs := planeServer()
	const writers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			node := fmt.Sprintf("node%03d", id)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				nowNs.Add(int64(time.Millisecond))
				planeIngest(s, node, float64(i%10), 50, 20)
			}
		}(w)
	}
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			verbs := []string{"status", "nodes", "values node003", "compare load.1", "efficiency", "spark node001 load.1"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp := s.HandleCtl(verbs[(id+i)%len(verbs)])
				if strings.HasPrefix(resp, "ERR unknown request") {
					t.Errorf("bad verb: %s", resp)
					return
				}
			}
		}(r)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	// And the end state still agrees with the oracle.
	if got, want := s.HandleCtl("status"), s.HandleCtlUncached("status"); got != want {
		t.Fatalf("post-hammer status diverged:\n%s\nvs\n%s", got, want)
	}
}
