package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/events"
	"clusterworx/internal/history"
	"clusterworx/internal/telemetry"
	"clusterworx/internal/transmit"
)

// ingestUpdate builds a small agent-style change set.
func ingestUpdate(load float64) []consolidate.Value {
	return []consolidate.Value{
		consolidate.NumValue("load.1", consolidate.Dynamic, load),
		consolidate.NumValue("hw.temp.cpu", consolidate.Dynamic, 40+load),
		consolidate.NumValue("mem.used.pct", consolidate.Dynamic, 10*load),
		consolidate.TextValue("os.kernel", consolidate.Static, "2.4.18"),
	}
}

// TestIngestUnregisteredNode verifies HandleValues auto-registers nodes it
// has never seen: the update must land in the registry, history, and the
// event engine without RegisterNode having been called.
func TestIngestUnregisteredNode(t *testing.T) {
	srv := NewServer(ServerConfig{Cluster: "t"})
	if err := srv.Engine().AddRule(events.Rule{
		Name: "hot", Metric: "hw.temp.cpu", Op: events.GT, Threshold: 90,
	}); err != nil {
		t.Fatal(err)
	}

	srv.HandleValues("fresh-node", ingestUpdate(55)) // temp = 95 > 90

	if v, ok := srv.NodeValue("fresh-node", "load.1"); !ok || v.Num != 55 {
		t.Fatalf("NodeValue(fresh-node, load.1) = %v, %v", v, ok)
	}
	names := srv.NodeNames()
	if len(names) != 1 || names[0] != "fresh-node" {
		t.Fatalf("NodeNames = %v", names)
	}
	rows := srv.Status()
	if len(rows) != 1 || rows[0].Name != "fresh-node" || !rows[0].Alive {
		t.Fatalf("Status = %+v", rows)
	}
	if s := srv.History().Series("fresh-node", "load.1"); s == nil || s.Len() != 1 {
		t.Fatalf("history series missing for auto-registered node")
	}
	if !srv.Engine().Triggered("hot", "fresh-node") {
		t.Fatal("event rule did not fire for auto-registered node")
	}
}

// TestIngestSampleTracksTextTransition verifies the incrementally
// maintained event sample forgets a metric that switches from numeric to
// text (the rule must stop matching on the stale number).
func TestIngestSampleTracksTextTransition(t *testing.T) {
	srv := NewServer(ServerConfig{Cluster: "t"})
	if err := srv.Engine().AddRule(events.Rule{
		Name: "hi", Metric: "m", Op: events.GT, Threshold: 1,
	}); err != nil {
		t.Fatal(err)
	}
	srv.HandleValues("n0", []consolidate.Value{consolidate.NumValue("m", consolidate.Dynamic, 5)})
	if !srv.Engine().Triggered("hi", "n0") {
		t.Fatal("rule should trigger on numeric value")
	}
	// The metric turns textual; later updates must not keep re-evaluating
	// the stale numeric reading. The rule stays triggered (absence of a
	// metric is not a violation) but a clear must be possible via a fresh
	// numeric value.
	srv.HandleValues("n0", []consolidate.Value{consolidate.TextValue("m", consolidate.Dynamic, "n/a")})
	srv.HandleValues("n0", []consolidate.Value{consolidate.NumValue("m", consolidate.Dynamic, 0)})
	if srv.Engine().Triggered("hi", "n0") {
		t.Fatal("rule should have cleared after numeric value returned below threshold")
	}
}

// pluginPath is one of the ingest paths that run the event engine: rule,
// armed on node n0 with the test's plugin, fires once when fire runs,
// and its metric then reads want.
type pluginPath struct {
	name string
	rule events.Rule
	want float64
	fire func(srv *Server)
}

// pluginPaths are an agent's frame and the server's own connectivity
// sweep, the one monitor value measured at the server (§5.1): a rule on
// it is what heals a wedged node.
var pluginPaths = []pluginPath{
	{"frame", events.Rule{Name: "hot", Metric: "load.1", Op: events.GT, Threshold: 10}, 42,
		func(srv *Server) { srv.HandleValues("n0", ingestUpdate(42)) }},
	{"probe", events.Rule{Name: "unreachable", Metric: probeMetric, Op: events.LT, Threshold: 1}, 0,
		func(srv *Server) {
			srv.RegisterNode("n0")
			srv.ProbeConnectivity(func(string) bool { return false })
		}},
}

// fireWithin runs path.fire and fails t, naming what deadlocked, unless it
// returns within 10 s.
func fireWithin(t *testing.T, srv *Server, path pluginPath, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		path.fire(srv)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s ingest deadlocked with a plugin %s", path.name, what)
	}
}

// TestIngestPluginReadsServerState pins the locking contract for event
// plugins: a rule plugin fired from an ingest path may read server state
// — including the very node being ingested — without deadlocking. (Event
// evaluation runs on a private snapshot with no server lock held.)
func TestIngestPluginReadsServerState(t *testing.T) {
	for _, path := range pluginPaths {
		t.Run(path.name, func(t *testing.T) {
			srv := NewServer(ServerConfig{Cluster: "t"})
			saw := -1.0
			var sawRows int
			rule := path.rule
			rule.Action = events.ActPlugin
			rule.Plugin = func(node string) error {
				if v, ok := srv.NodeValue(node, rule.Metric); ok {
					saw = v.Num
				}
				sawRows = len(srv.Status())
				return nil
			}
			if err := srv.Engine().AddRule(rule); err != nil {
				t.Fatal(err)
			}
			fireWithin(t, srv, path, "reading server state")
			if saw != path.want {
				t.Fatalf("plugin read %s = %v, want %v", rule.Metric, saw, path.want)
			}
			if sawRows != 1 {
				t.Fatalf("plugin saw %d status rows, want 1", sawRows)
			}
		})
	}
}

// TestIngestPluginReingestsSameNode pins the stronger half of the plugin
// contract: a rule plugin may synchronously re-ingest values for the SAME
// node it fired on (a remediation plugin recording its own marker metric)
// without self-deadlocking, because event evaluation holds no server or
// record lock.
func TestIngestPluginReingestsSameNode(t *testing.T) {
	for _, path := range pluginPaths {
		t.Run(path.name, func(t *testing.T) {
			srv := NewServer(ServerConfig{Cluster: "t"})
			rule := path.rule
			rule.Action = events.ActPlugin
			rule.Plugin = func(node string) error {
				srv.HandleValues(node, []consolidate.Value{
					consolidate.NumValue("heal.attempts", consolidate.Dynamic, 1),
				})
				return nil
			}
			if err := srv.Engine().AddRule(rule); err != nil {
				t.Fatal(err)
			}
			fireWithin(t, srv, path, "re-ingesting for its own node")
			if v, ok := srv.NodeValue("n0", "heal.attempts"); !ok || v.Num != 1 {
				t.Fatalf("NodeValue(n0, heal.attempts) = %v, %v; want 1", v, ok)
			}
		})
	}
}

// TestIngestConcurrentHammer drives HandleValues, Status, NodeValue,
// NodeValues, NodeNames, the history read side (Compare, Downsample —
// the dashboard's queries), telemetry scraping (WriteTelemetry, the
// trace verb's journal scan, registry walks), and the meta-monitor's
// self-ingest from 32
// goroutines over 256 nodes. Run under -race this is the regression gate
// for the sharded ingest path: no global-lock serialization means every
// interleaving must still be clean, including history reads racing
// appends to the same series and telemetry scrapes racing the striped
// counters they sum.
func TestIngestConcurrentHammer(t *testing.T) {
	srv := NewServer(ServerConfig{Cluster: "t"})
	if err := srv.Engine().AddRule(events.Rule{
		Name: "hot", Metric: "hw.temp.cpu", Op: events.GT, Threshold: 1000, // never fires
	}); err != nil {
		t.Fatal(err)
	}
	meta := NewMetaMonitor(srv)

	const (
		workers = 32
		nodes   = 256
		iters   = 300
	)
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%03d", i)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := names[(w*31+i)%nodes]
				switch i % 13 {
				case 0, 1, 2, 3, 4:
					srv.HandleValues(name, ingestUpdate(float64(w)))
				case 5:
					if _, ok := srv.NodeValue(name, "load.1"); ok {
						srv.NodeValues(name)
					}
				case 6:
					srv.Status()
				case 7:
					srv.NodeNames()
				case 8:
					var c history.Comparison
					srv.History().Compare(&c, "load.1", 0, 1<<62)
				case 9:
					if s := srv.History().Series(name, "load.1"); s != nil {
						s.Downsample(nil, 0, 1<<62, 8)
						s.Last()
					}
				case 10:
					var sb strings.Builder
					if err := srv.WriteTelemetry(&sb); err != nil {
						panic(err)
					}
				case 11:
					srv.HandleCtl("trace")
					telemetry.Default().Walk(func(string, float64) {})
				case 12:
					meta.Tick()
				}
			}
		}(w)
	}
	wg.Wait()

	// The meta-monitor registered itself as one extra node.
	rows := srv.Status()
	if len(rows) != nodes+1 {
		t.Fatalf("Status has %d rows, want %d", len(rows), nodes+1)
	}
	for _, row := range rows {
		if row.Values == 0 {
			t.Fatalf("node %s ingested no values", row.Name)
		}
	}
	if got := len(srv.NodeNames()); got != nodes+1 {
		t.Fatalf("NodeNames has %d entries, want %d", got, nodes+1)
	}
	if _, ok := srv.NodeValue(MetaNodeName, "cwx.ingest.updates.total"); !ok {
		t.Fatalf("meta node %s has no self-monitoring values", MetaNodeName)
	}
}

// TestIngestReadDuringSlowIngest verifies read-side APIs on one node are
// not blocked by ingest on another node (the per-node locking contract).
func TestIngestReadDuringSlowIngest(t *testing.T) {
	srv := NewServer(ServerConfig{Cluster: "t"})
	srv.HandleValues("a", ingestUpdate(1))
	srv.HandleValues("b", ingestUpdate(2))

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			srv.HandleValues("a", ingestUpdate(float64(i)))
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 2000; i++ {
		if _, ok := srv.NodeValue("b", "load.1"); !ok {
			t.Fatal("node b lost its value during ingest on node a")
		}
		if time.Now().After(deadline) {
			t.Fatal("read side starved by ingest")
		}
	}
	<-done
}

// TestIngestInternsMetricNames: values parsed off the v1 wire name their
// metrics with slices of the frame's lines, one copy per node and frame.
// Whatever the server says a node holds must be named by the metric
// table's one copy of each name, and so must the store's series —
// whichever frame first brought the name.
func TestIngestInternsMetricNames(t *testing.T) {
	srv := NewServer(ServerConfig{Cluster: "t"})
	parse := func(wire string) []consolidate.Value {
		t.Helper()
		vals, err := transmit.UnmarshalValues([]byte(wire))
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	nodes := []string{"n1", "n2", "n3"}
	for _, node := range nodes {
		frames := []transmit.Frame{
			{Node: node, Seq: 1, Kind: transmit.FrameSnapshot, Values: parse("load.1 D n 0.5\nos.kernel S t \"2.4.18\"\n")},
			{Node: node, Seq: 2, Kind: transmit.FrameDelta, Values: parse("load.1 D n 0.75\nmem.free.kb D n 1024\n")},
			{Node: node, Seq: 3, Kind: transmit.FrameSnapshot, Values: parse("load.1 D n 1\nmem.free.kb D n 1024\nos.kernel S t \"2.4.18\"\n")},
		}
		for _, f := range frames {
			if err := srv.HandleFrame(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	// where maps a metric name to the address of the first string seen
	// naming it.
	where := map[string]*byte{}
	check := func(node, holder, name string) {
		t.Helper()
		if at, ok := where[name]; !ok {
			where[name] = unsafe.StringData(name)
		} else if at != unsafe.StringData(name) {
			t.Errorf("%s: %s %q is a copy of its own", node, holder, name)
		}
	}
	for _, node := range nodes {
		rec := srv.node(node)
		rec.mu.RLock()
		if len(rec.ids) != 3 || len(rec.texts) != 1 {
			t.Fatalf("%s holds %d values, %d of them text, want 3 and 1", node, len(rec.ids), len(rec.texts))
		}
		rec.mu.RUnlock()
		for _, v := range srv.NodeValues(node) {
			check(node, "value name ", v.Name)
			if got, _ := srv.NodeValue(node, v.Name); got.Name != v.Name {
				t.Errorf("%s: NodeValue(%q) is named %q", node, v.Name, got.Name)
			} else {
				check(node, "value name ", got.Name)
			}
		}
		metrics := srv.History().Metrics(node)
		if len(metrics) != 2 {
			t.Fatalf("%s has series %v, want 2", node, metrics)
		}
		for _, name := range metrics {
			check(node, "series key ", name)
		}
	}
}
