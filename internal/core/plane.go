package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/dashboard"
	"clusterworx/internal/serve"
	"clusterworx/internal/telemetry"
)

// The serving plane: the read side of the management server. Every verb
// with a generation source in the verb table (ctlverbs.go) answers from an
// immutable rendering cached behind a serve.Gate, tagged with the
// generation of the data it was computed from. A hit is an atomic pointer
// load returning a shared string — no allocation, no timer anywhere:
// validity is "the inputs have not changed", tracked by the per-shard
// ingest generation vector in Server.
//
// History-windowed views (compare, efficiency, selfmon) end their window
// at the last ingest timestamp rather than the caller's clock, so a
// cached answer equals its uncached ablation byte for byte, and a
// simulated run renders identically no matter when the queries land.
//
// The one time-dependent answer is status: a node flips DOWN purely by
// the clock passing lastSeen+DownAfter with no ingest to move the
// generation. The status snapshot therefore carries the earliest such
// deadline, and its gate's Stale hook forces a rebuild once the clock
// passes it — liveness stays exact without any background timer.

// maxKeyedEntries bounds the gate table. The argless views are in it from
// the start; past the cap, new argument combinations (values <node>,
// compare <metric>, chart/spark <node> <metric>) are still served — just
// rebuilt per request — so a scanner enumerating the argument space
// cannot grow server memory without bound.
const maxKeyedEntries = 16384

// statusSnap is one immutable status answer: the API rows, the ctl
// rendering, and the earliest alive→DOWN flip time (0: no alive nodes).
// It is also its successor's row cache: offs says where each row sits in
// rendered, and recs is the name-sorted roster as of regGen, so a rebuild
// walks and sorts the shards only after a registration.
type statusSnap struct {
	rows     []NodeStatus
	rendered string
	deadline time.Duration
	offs     []int32 // row i, its leading '\n' included, is rendered[offs[i]:offs[i+1]]
	recs     []*nodeRec
	regGen   uint64
}

type plane struct {
	s *Server

	// status is the one typed gate: Server.Status shares its rows.
	status *serve.Gate[*statusSnap]

	// keyed maps a canonical request line — lower-case verb, single-spaced
	// arguments: "efficiency", "chart node3 load.1" — to its gate's Get, so
	// a hit on that spelling never parses the request at all.
	kmu   sync.RWMutex //cwx:lockrank keyed 35
	keyed map[string]func() string

	hubOnce sync.Once
	hub     *serve.Hub
}

func newPlane(s *Server) *plane {
	p := &plane{s: s, keyed: make(map[string]func() string)}
	p.status = &serve.Gate[*statusSnap]{
		Name:  "status",
		GenFn: s.Generation,
		Stale: func(sn *statusSnap) bool { return sn.deadline > 0 && s.now() > sn.deadline },
		Build: func() *statusSnap {
			prev, _ := p.status.Peek()
			return p.buildStatus(prev)
		},
	}
	p.keyed["status"] = func() string { return p.status.Get().rendered }
	// The argless views take their slots now: the cap can then only ever
	// refuse a per-argument gate.
	for i := range ctlVerbs {
		if v := &ctlVerbs[i]; v.gen != nil && v.min == 0 {
			p.ensure(v, nil)
		}
	}
	return p
}

// lastData is the serving plane's history-window end: the ingest
// timestamp of the most recent value anywhere in the cluster.
func (p *plane) lastData() time.Duration { return time.Duration(p.s.lastDataNs.Load()) }

// view returns the cached rendering registered under a request line, nil
// if there is none: the line is not canonical, not a cached verb, or not
// asked for yet.
//
//cwx:hotpath
func (p *plane) view(line string) func() string {
	p.kmu.RLock()
	get := p.keyed[line]
	p.kmu.RUnlock()
	return get
}

// viewBytes is view for a request line still in the connection's read
// buffer: the map index converts it without allocating.
//
//cwx:hotpath
func (p *plane) viewBytes(line []byte) func() string {
	p.kmu.RLock()
	get := p.keyed[string(line)]
	p.kmu.RUnlock()
	return get
}

// ensure returns (creating if needed) the rendering of a cached verb for
// parsed arguments, registered under the canonical request so that every
// spelling of one request shares one gate. At capacity the new gate is
// returned unregistered: the answer is built for this request alone.
func (p *plane) ensure(v *ctlVerb, args []string) func() string {
	var scratch [128]byte
	canon := append(scratch[:0], v.name...)
	for _, a := range args[:v.min] {
		canon = append(append(canon, ' '), a...)
	}
	if get := p.viewBytes(canon); get != nil {
		return get
	}
	key := string(canon)
	args = strings.Fields(key)[1:] // the gate keeps its key, not the caller's request line
	get := (&serve.Gate[string]{Name: v.name, GenFn: v.gen(p, args), Build: v.open(p, args)}).Get
	p.kmu.Lock()
	if cur := p.keyed[key]; cur != nil {
		get = cur // lost a registration race; adopt the winner
	} else if len(p.keyed) < maxKeyedEntries {
		p.keyed[key] = get
	}
	p.kmu.Unlock()
	return get
}

// genSeries gates a chart/spark rendering on its one series' append
// counter, so the rendering survives ingest on every other series. The
// high bit tags the series-generation space: entries cached while the
// series did not yet exist ride the (low, small) global generation and
// must not collide with series counters once it appears.
func genSeries(p *plane, a []string) func() uint64 {
	return func() uint64 {
		if ser := p.s.hist.Series(a[0], a[1]); ser != nil {
			return 1<<63 | ser.Gen()
		}
		return p.s.Generation()
	}
}

// watchHub lazily creates the watch dispatcher (no goroutine, no hub at
// all, until the first watch subscriber).
func (p *plane) watchHub() *serve.Hub {
	p.hubOnce.Do(func() { p.hub = serve.NewHub(p.s.Generation, &p.s.watchSig) })
	return p.hub
}

// --- builders ---------------------------------------------------------------
//
// Each builder produces the exact byte string its verb has always
// returned. The table builders take their previous rendering and copy
// from it the rows whose inputs did not change; HandleCtlUncached runs
// them with none, and the differential test asserts cached == uncached,
// which is incremental == from scratch.

func (p *plane) buildStatus(prev *statusSnap) *statusSnap {
	on := telemetry.On()
	s := p.s
	now := s.now()
	if prev == nil {
		prev = &statusSnap{}
	}
	snap := &statusSnap{recs: prev.recs, regGen: s.regGen.Load()}
	if snap.regGen != prev.regGen {
		snap.recs = s.rosterByName()
	}
	snap.rows = make([]NodeStatus, 0, len(snap.recs))
	snap.offs = append(make([]int32, 0, len(snap.recs)+1), int32(len("OK")))
	var b strings.Builder
	b.Grow(max(len(prev.rendered)+len(prev.rendered)/16, len(snap.recs)*64) + 128)
	b.WriteString("OK")
	var scratch [128]byte
	downCount, j := 0, 0
	for _, rec := range snap.recs {
		rec.mu.RLock()
		st := NodeStatus{
			Name:     rec.name,
			Alive:    rec.seen && now-rec.lastSeen <= DownAfter,
			LastSeen: rec.lastSeen,
			Values:   len(rec.ids),
		}
		// Liveness bookkeeping runs regardless of the telemetry kill
		// switch — down/alive transitions are state, not instrumentation;
		// only the detection counter increment is conditional.
		if st.Alive {
			rec.down.Store(false)
			if d := rec.lastSeen + DownAfter; snap.deadline == 0 || d < snap.deadline {
				snap.deadline = d
			}
		} else {
			downCount++
			if rec.seen && !rec.down.Swap(true) && on {
				mDownDetections.Inc()
			}
		}
		for k, dst := range [...]*float64{&st.Load1, &st.TempC, &st.MemPct} {
			if i, ok := rec.find(s.statusIDs[k]); ok {
				*dst = rec.nums[i]
			}
		}
		rec.mu.RUnlock()
		snap.rows = append(snap.rows, st)
		// Both rosters are name-sorted: step the predecessor's to this name.
		for j < len(prev.rows) && prev.rows[j].Name < st.Name {
			j++
		}
		if j < len(prev.rows) && sameStatusRow(&prev.rows[j], &st) {
			b.WriteString(prev.rendered[prev.offs[j]:prev.offs[j+1]])
		} else {
			b.Write(appendStatusRow(scratch[:0], &st))
		}
		snap.offs = append(snap.offs, int32(b.Len()))
	}
	gNodes.Set(float64(len(snap.rows)))
	gNodesDown.Set(float64(downCount))
	snap.rendered = b.String()
	return snap
}

// sameStatusRow reports whether two rows render alike: the inputs of
// appendStatusRow, bit for bit (0 and −0 print differently).
func sameStatusRow(a, b *NodeStatus) bool {
	return a.Name == b.Name && a.Alive == b.Alive && a.Values == b.Values &&
		math.Float64bits(a.Load1) == math.Float64bits(b.Load1) &&
		math.Float64bits(a.TempC) == math.Float64bits(b.TempC) &&
		math.Float64bits(a.MemPct) == math.Float64bits(b.MemPct)
}

// appendStatusRow is "\n%-12s %-5s values=%-3d load=%-6.2f temp=%-6.1f mem%%=%.1f".
//
//cwx:hotpath
func appendStatusRow(b []byte, st *NodeStatus) []byte {
	state := "DOWN"
	if st.Alive {
		state = "up"
	}
	b = dashboard.AppendStr(append(b, '\n'), st.Name, -12)
	b = dashboard.AppendStr(append(b, ' '), state, -5)
	b = dashboard.AppendInt(append(b, " values="...), int64(st.Values), -3)
	b = dashboard.AppendFloat(append(b, " load="...), st.Load1, -6, 2)
	b = dashboard.AppendFloat(append(b, " temp="...), st.TempC, -6, 1)
	return dashboard.AppendFloat(append(b, " mem%="...), st.MemPct, 0, 1)
}

func (p *plane) buildNodes() string {
	return "OK\n" + strings.Join(p.s.NodeNames(), "\n")
}

// buildValues copies the node's values out of its record and renders
// them in stack scratch sized for a benchmark node's 34 values: the
// published string is the rebuild's one allocation.
func (p *plane) buildValues(node string) string {
	rec, ok := p.s.lookup(node)
	if !ok {
		return "ERR unknown node " + node
	}
	var vals [48]consolidate.Value
	var text [4096]byte
	rec.mu.RLock()
	rows := p.s.appendValuesLocked(vals[:0], rec)
	rec.mu.RUnlock()
	slices.SortFunc(rows, func(a, b consolidate.Value) int { return strings.Compare(a.Name, b.Name) })
	b := append(text[:0], "OK"...)
	for _, v := range rows {
		b = dashboard.AppendStr(append(b, '\n'), v.Name, -28)
		b = appendValue(append(b, ' '), v)
	}
	return string(b)
}

// appendValue appends v.Render().
//
//cwx:hotpath
func appendValue(b []byte, v consolidate.Value) []byte {
	if v.IsText {
		return append(b, v.Text...)
	}
	return strconv.AppendFloat(b, v.Num, 'g', -1, 64)
}

func (p *plane) buildCompare(view *dashboard.View, metric string) string {
	return view.CompareNodes("OK\n", p.s.hist, metric, 0, p.lastData(), 30)
}

// buildChart draws in stack scratch that holds the 60 × 12 chart: the
// published string is the rebuild's one allocation.
func (p *plane) buildChart(node, metric string) string {
	series := p.s.hist.Series(node, metric)
	if series == nil {
		return fmt.Sprintf("ERR no history for %s %s", node, metric)
	}
	last, _ := series.Last()
	var text [2048]byte
	b := append(append(append(text[:0], "OK "...), node...), ' ')
	b = append(append(b, metric...), '\n')
	b = dashboard.AppendChart(b, series, 0, last.T, 60, 12)
	return string(bytes.TrimRight(b, "\n"))
}

func (p *plane) buildSpark(node, metric string) string {
	series := p.s.hist.Series(node, metric)
	if series == nil {
		return fmt.Sprintf("ERR no history for %s %s", node, metric)
	}
	last, _ := series.Last()
	var text [256]byte
	return string(dashboard.AppendSparkline(append(text[:0], "OK "...), series, 0, last.T, 40))
}

func (p *plane) buildEfficiency(view *dashboard.View) string {
	return view.EfficiencyReport("OK\n", p.s.hist, 0, p.lastData(), 30)
}

func (p *plane) buildSelfmon() string {
	out := dashboard.TelemetryPanel(p.s.hist, MetaNodeName, 0, p.lastData(), 32)
	return "OK\n" + strings.TrimRight(out, "\n")
}

// syncHeader is the sync table's heading, in its rows' columns.
var syncHeader = fmt.Sprintf("OK\n%-12s %8s %-8s %5s %5s %7s %5s",
	"node", "seq", "state", "gaps", "regr", "resyncs", "snaps")

func (p *plane) buildSync() string {
	states := p.s.SyncStates()
	b := append(make([]byte, 0, 64*(1+len(states))), syncHeader...)
	for _, st := range states {
		state := "synced"
		if !st.Synced {
			state = "DIVERGED"
		}
		b = dashboard.AppendStr(append(b, '\n'), st.Node, -12)
		b = dashboard.AppendUint(append(b, ' '), st.Seq, 8)
		b = dashboard.AppendStr(append(b, ' '), state, -8)
		b = dashboard.AppendInt(append(b, ' '), st.Gaps, 5)
		b = dashboard.AppendInt(append(b, ' '), st.Regressions, 5)
		b = dashboard.AppendInt(append(b, ' '), st.ResyncReqs, 7)
		b = dashboard.AppendInt(append(b, ' '), st.Snapshots, 5)
	}
	return string(b)
}
