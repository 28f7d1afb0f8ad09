package core

import (
	"fmt"
	"io"
	"strings"
	"time"

	"clusterworx/internal/flight"
	"clusterworx/internal/telemetry"
)

// Self-monitoring series for the management server. The ingest series
// are striped by the node table's shard index — the same hash that
// spreads the locks spreads the counters — so 64 concurrent agents do
// not re-serialize on a metric cache line that PR 1 just unshared.
var (
	mIngestUpdates    = telemetry.Default().Counter("cwx_ingest_updates_total")
	mIngestValues     = telemetry.Default().Counter("cwx_ingest_values_total")
	mIngestRegistered = telemetry.Default().Counter("cwx_ingest_node_registrations_total")
	mIngestLatencyNs  = telemetry.Default().Histogram("cwx_ingest_latency_ns")
	mIngestBatch      = telemetry.Default().Histogram("cwx_ingest_batch_values")
	mEventsDwellNs    = telemetry.Default().Histogram("cwx_ingest_events_dwell_ns")
	mDownDetections   = telemetry.Default().Counter("cwx_server_down_detections_total")
	mCtlPanics        = telemetry.Default().Counter("cwx_ctl_panics_total")
	mCtlLongLines     = telemetry.Default().Counter("cwx_ctl_long_lines_total")
	gNodes            = telemetry.Default().Gauge("cwx_server_nodes")
	gNodesDown        = telemetry.Default().Gauge("cwx_server_nodes_down")

	// Loss-tolerant delta protocol (§5.3 transmission over flaky
	// networks): server-side gap/regression detection and resync
	// requests, plus the agent-side retransmit and snapshot counters.
	mIngestSeqGaps        = telemetry.Default().Counter("cwx_ingest_seq_gaps_total")
	mIngestSeqRegressions = telemetry.Default().Counter("cwx_ingest_seq_regressions_total")
	mIngestResyncReqs     = telemetry.Default().Counter("cwx_ingest_resync_requests_total")
	mIngestSnapshots      = telemetry.Default().Counter("cwx_ingest_snapshot_frames_total")
	mAgentSendFailures    = telemetry.Default().Counter("cwx_agent_send_failures_total")
	mAgentRetransmits     = telemetry.Default().Counter("cwx_agent_retransmits_total")
	mAgentResyncSnapshots = telemetry.Default().Counter("cwx_agent_resync_snapshots_total")

	// Hierarchical federation (PR 10): the child side's uplink flush
	// counters and the parent side's batch ingest counters.
	mUplinkFrames    = telemetry.Default().Counter("cwx_uplink_frames_total")
	mUplinkNodes     = telemetry.Default().Counter("cwx_uplink_nodes_forwarded_total")
	mUplinkBytes     = telemetry.Default().Counter("cwx_uplink_bytes_total")
	mUplinkSendFails = telemetry.Default().Counter("cwx_uplink_send_failures_total")
	mUplinkSnapAlls  = telemetry.Default().Counter("cwx_uplink_snap_all_total")
	mUplinkInFrames  = telemetry.Default().Counter("cwx_uplink_ingest_frames_total")
	mUplinkInNodes   = telemetry.Default().Counter("cwx_uplink_ingest_nodes_total")
	mUplinkInDesyncs = telemetry.Default().Counter("cwx_uplink_desyncs_total")
)

// WriteTelemetry emits the process's entire self-monitoring state in the
// Prometheus text exposition format, refreshing the server-level gauges
// first so a scrape always carries current node counts.
func (s *Server) WriteTelemetry(w io.Writer) error {
	s.Status()
	return telemetry.Default().WritePrometheus(w)
}

// renderTraces renders trace rows as an aligned table: a node's newest
// retained trace id, then one column per stage showing the hop's
// duration/size ("-" where the journal holds no record of it).
func renderTraces(rows []flight.NodeTrace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-16s", "node", "trace")
	for st := flight.Stage(0); st < flight.NumStages; st++ {
		fmt.Fprintf(&b, " %14s", st.String())
	}
	b.WriteByte('\n')
	for _, row := range rows {
		fmt.Fprintf(&b, "%-16s %-16s", row.Node, flight.FormatTrace(row.Trace))
		for _, r := range row.Stages {
			if r.Seq == 0 {
				fmt.Fprintf(&b, " %14s", "-")
				continue
			}
			fmt.Fprintf(&b, " %14s", fmtDur(time.Duration(r.A))+"/"+fmt.Sprintf("%d", r.B))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// fmtDur renders a duration at the resolution an operator reads at a
// glance: ns below a microsecond, then µs, ms, s.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
