package core

import (
	"strings"
	"testing"
	"time"

	"clusterworx/internal/dashboard"
	"clusterworx/internal/telemetry"
)

// telemetrySubsystems is the coverage contract for the exposition: at
// least one series from every stage of the pipeline must show up on a
// scrape of a working cluster.
var telemetrySubsystems = []string{
	"cwx_gather_",
	"cwx_consolidate_",
	"cwx_transmit_",
	"cwx_ingest_",
	"cwx_events_",
	"cwx_notify_",
	"cwx_history_",
}

// TestWriteTelemetryCoversPipeline scrapes a booted sim and checks the
// Prometheus text output is well-formed and spans every pipeline stage
// with a healthy number of distinct series.
func TestWriteTelemetryCoversPipeline(t *testing.T) {
	sim := bootSim(t, 4)
	sim.Advance(time.Minute)

	var sb strings.Builder
	if err := sim.Server.WriteTelemetry(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	series := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			series[name] = true
		}
	}
	if len(series) < 12 {
		t.Fatalf("scrape exposes %d distinct series, want >= 12:\n%s", len(series), out)
	}
	for _, prefix := range telemetrySubsystems {
		found := false
		for name := range series {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no series with prefix %s in scrape", prefix)
		}
	}

	// Spot-check well-formedness: every non-comment line is "name value"
	// or "name{labels} value", and the pipeline actually moved data.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, " ") != 1 {
			t.Fatalf("malformed sample line: %q", line)
		}
	}
	for _, want := range []string{"cwx_ingest_updates_total", "cwx_server_nodes 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestCtlTelemetryAndTrace exercises the control verbs end to end on a
// live sim at the default sampling rate: telemetry returns a Prometheus
// document, trace renders each node's newest retained trace from the
// flight journal, and bad arguments get ERR.
func TestCtlTelemetryAndTrace(t *testing.T) {
	sim := bootSim(t, 2)
	sim.Advance(time.Minute)

	resp := sim.Server.HandleCtl("telemetry")
	if !strings.HasPrefix(resp, "OK\n") || !strings.Contains(resp, "# TYPE cwx_ingest_updates_total counter") {
		t.Fatalf("telemetry response:\n%s", firstLine(resp))
	}

	resp = sim.Server.HandleCtl("trace")
	if !strings.HasPrefix(resp, "OK") {
		t.Fatalf("trace response:\n%s", resp)
	}
	for _, col := range []string{"node", "trace", "gather", "consolidate", "transmit", "ingest", "events", "node000"} {
		if !strings.Contains(resp, col) {
			t.Fatalf("trace output missing %q:\n%s", col, resp)
		}
	}

	resp = sim.Server.HandleCtl("trace node001")
	if !strings.HasPrefix(resp, "OK") || !strings.Contains(resp, "node001") {
		t.Fatalf("trace node001 response:\n%s", resp)
	}
	if strings.Contains(resp, "node000") {
		t.Fatalf("trace node001 leaked other nodes:\n%s", resp)
	}
	if resp := sim.Server.HandleCtl("trace ghost"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("trace ghost: %q", firstLine(resp))
	}
	if resp := sim.Server.HandleCtl("trace a b"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("trace a b: %q", firstLine(resp))
	}
}

// TestSelfMonitorChartsLikeANode runs a sim with the meta-monitor on and
// proves the paper's "monitor the monitor" claim: the server's own
// telemetry lands in the registry and history under MetaNodeName and is
// chartable through the exact same paths as any compute node.
func TestSelfMonitorChartsLikeANode(t *testing.T) {
	sim, err := NewSim(SimConfig{Nodes: 3, Cluster: "test", SelfMonitor: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Stop)
	sim.PowerOnAll()
	sim.Advance(2 * time.Minute)

	if sim.Meta == nil {
		t.Fatal("Sim.Meta not wired despite SelfMonitor")
	}
	names := sim.Server.NodeNames()
	found := false
	for _, n := range names {
		if n == MetaNodeName {
			found = true
		}
	}
	if !found {
		t.Fatalf("meta node missing from NodeNames: %v", names)
	}

	if v, ok := sim.Server.NodeValue(MetaNodeName, "cwx.ingest.updates.total"); !ok || v.Num <= 0 {
		t.Fatalf("cwx.ingest.updates.total = %v, %v; want > 0", v, ok)
	}
	if v, ok := sim.Server.NodeValue(MetaNodeName, "cwx.server.nodes"); !ok || v.Num != 4 {
		t.Fatalf("cwx.server.nodes = %v, %v; want 4 (3 sim + meta)", v, ok)
	}

	// The counter grows every tick, so its history series accumulates
	// points despite change suppression — and charts like any node metric.
	s := sim.Server.History().Series(MetaNodeName, "cwx.ingest.updates.total")
	if s == nil || s.Len() < 5 {
		t.Fatalf("meta history series missing or short: %v", s)
	}
	chart := dashboard.Chart(s, 0, sim.Clk.Now(), 40, 8)
	if !strings.Contains(chart, "*") || !strings.Contains(chart, "+---") {
		t.Fatalf("meta series did not chart:\n%s", chart)
	}
	resp := sim.Server.HandleCtl("chart " + MetaNodeName + " cwx.ingest.updates.total")
	if !strings.HasPrefix(resp, "OK") || !strings.Contains(resp, "*") {
		t.Fatalf("ctl chart of meta series failed:\n%s", firstLine(resp))
	}

	// And the dedicated panel view.
	resp = sim.Server.HandleCtl("selfmon")
	if !strings.HasPrefix(resp, "OK") || !strings.Contains(resp, "cwx.ingest.updates.total") {
		t.Fatalf("selfmon response:\n%s", firstLine(resp))
	}
}

// TestTelemetryDisabledStillScrapes pins the kill switch: with recording
// off the scrape still succeeds (metrics exist, frozen), and hot paths
// stop accumulating.
func TestTelemetryDisabledStillScrapes(t *testing.T) {
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)

	srv := NewServer(ServerConfig{Cluster: "t"})
	before := counterValue(t, srv, "cwx_ingest_updates_total")
	srv.HandleValues("n0", ingestUpdate(1))
	srv.HandleValues("n0", ingestUpdate(2))
	after := counterValue(t, srv, "cwx_ingest_updates_total")
	if after != before {
		t.Fatalf("cwx_ingest_updates_total moved %v -> %v with telemetry disabled", before, after)
	}
	// The data path itself is unaffected.
	if v, ok := srv.NodeValue("n0", "load.1"); !ok || v.Num != 2 {
		t.Fatalf("ingest broken with telemetry disabled: %v, %v", v, ok)
	}
}

// counterValue scrapes srv and returns the sample for the named series.
func counterValue(t *testing.T, srv *Server, name string) string {
	t.Helper()
	var sb strings.Builder
	if err := srv.WriteTelemetry(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return rest
		}
	}
	t.Fatalf("series %s not in scrape", name)
	return ""
}
