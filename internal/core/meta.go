package core

import (
	"runtime"
	"sync"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/monitor"
)

// MetaNodeName is the registry entry under which the management server
// monitors itself. The meta-monitor's values land here through the same
// ingest path as any node's, so the dashboard charts them, history
// stores them, and event rules fire on them — "monitor the monitor"
// dogfooded through the paper's own pipeline.
const MetaNodeName = "cwx-server"

// MetaMonitor feeds the server's own telemetry back through the normal
// monitoring pipeline: a consolidator (change suppression and all) over
// the telemetry registry plus server/runtime vitals, ingested as the
// MetaNodeName node.
type MetaMonitor struct {
	mu   sync.Mutex //cwx:lockrank meta 2
	srv  *Server
	cons *consolidate.Consolidator
}

// NewMetaMonitor builds the self-monitoring loop for srv. A Daemon ticks
// it every DaemonConfig.SelfMonitor of its clock.
func NewMetaMonitor(srv *Server) *MetaMonitor {
	cons := consolidate.New()
	cons.AddSource(monitor.TelemetrySource{}, 1)
	cons.AddSource(serverVitalsSource{srv}, 1)
	return &MetaMonitor{srv: srv, cons: cons}
}

// Tick runs one self-monitoring round: consolidate the current
// telemetry and ingest the change set like any agent transmission.
// Safe for concurrent use; rounds are serialized.
func (m *MetaMonitor) Tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cons.Tick()
	if delta := m.cons.Delta(); len(delta) > 0 {
		m.srv.HandleValues(MetaNodeName, delta)
	}
}

// Consolidator exposes the meta-monitor's consolidation stage (for
// stats and tests).
func (m *MetaMonitor) Consolidator() *consolidate.Consolidator { return m.cons }

// serverVitalsSource contributes the management process's own vitals —
// the numbers a telemetry registry walk cannot see.
type serverVitalsSource struct{ s *Server }

// Name implements consolidate.Source.
func (serverVitalsSource) Name() string { return "server" }

// Collect implements consolidate.Source.
func (src serverVitalsSource) Collect(dst []consolidate.Value) ([]consolidate.Value, error) {
	rows := src.s.Status()
	down := 0
	for _, r := range rows {
		if !r.Alive {
			down++
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d := consolidate.Dynamic
	return append(dst,
		consolidate.NumValue("cwx.server.nodes", d, float64(len(rows))),
		consolidate.NumValue("cwx.server.nodes.down", d, float64(down)),
		consolidate.NumValue("cwx.server.goroutines", d, float64(runtime.NumGoroutine())),
		consolidate.NumValue("cwx.server.heap.kb", d, float64(ms.HeapAlloc/1024)),
		consolidate.NumValue("cwx.server.history.kb", d, float64(src.s.hist.Bytes()/1024)),
	), nil
}
