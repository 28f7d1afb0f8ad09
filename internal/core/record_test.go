package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/events"
	"clusterworx/internal/transmit"
)

// modelRec is the reference record: the two string-keyed maps a node's
// record was before it became columns, and the rules HandleFrame,
// applySnapshotLocked and ProbeConnectivity applied to them.
type modelRec struct {
	values   map[string]consolidate.Value
	sample   map[string]float64
	lastSeen time.Duration
	seen     bool
	appends  map[string]int // history points per metric
}

func newModelRec() *modelRec {
	return &modelRec{
		values:  map[string]consolidate.Value{},
		sample:  map[string]float64{},
		appends: map[string]int{},
	}
}

func (m *modelRec) set(v consolidate.Value) {
	m.values[v.Name] = v
	if v.IsText {
		delete(m.sample, v.Name)
	} else {
		m.sample[v.Name] = v.Num
	}
}

func (m *modelRec) apply(f transmit.Frame, now time.Duration) {
	m.lastSeen, m.seen = now, true
	if f.Kind != transmit.FrameSnapshot {
		for _, v := range f.Values {
			m.set(v)
			if !v.IsText {
				m.appends[v.Name]++
			}
		}
		return
	}
	present := map[string]bool{}
	for _, v := range f.Values {
		old, seen := m.values[v.Name]
		m.set(v)
		if !v.IsText && (!seen || !old.Equal(v)) {
			m.appends[v.Name]++
		}
		present[v.Name] = true
	}
	for name := range m.values {
		if !present[name] && name != probeMetric {
			delete(m.values, name)
			delete(m.sample, name)
		}
	}
}

func (m *modelRec) sorted() []consolidate.Value {
	out := make([]consolidate.Value, 0, len(m.values))
	for _, v := range m.values {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (m *modelRec) status(name string, now time.Duration) NodeStatus {
	return NodeStatus{
		Name:     name,
		Alive:    m.seen && now-m.lastSeen <= DownAfter,
		LastSeen: m.lastSeen,
		Values:   len(m.values),
		Load1:    m.values["load.1"].Num,
		TempC:    m.values["hw.temp.cpu"].Num,
		MemPct:   m.values["mem.used.pct"].Num,
	}
}

// sameValue compares two values bit for bit: NaN equals NaN, 0 is not −0.
func sameValue(a, b consolidate.Value) bool {
	return a.Name == b.Name && a.Kind == b.Kind && a.IsText == b.IsText && a.Text == b.Text &&
		math.Float64bits(a.Num) == math.Float64bits(b.Num)
}

func sameValues(a, b []consolidate.Value) bool {
	return slices.EqualFunc(a, b, sameValue)
}

// TestRecordMatchesMapModel drives the column record and the map model
// with the same seeded frames — deltas and snapshots, sequenced and not,
// values switching between number and text, snapshots that drop metrics
// and later ones that bring them back, empty snapshots, probe sweeps,
// NaN, ±Inf and −0 — and after every frame requires every reader of the
// record to say what the model says: NodeValues, NodeValue, the status
// row, the observation map the event engine is handed, the rollup's fold
// (as the aggregate node it ingests) and the uplink's sections.
func TestRecordMatchesMapModel(t *testing.T) {
	const framesPerNode = 2000
	nodes := []string{"n01", "n02", "n03"}
	const agg = "rack/r0"
	metrics := []string{
		"load.1", "hw.temp.cpu", "mem.used.pct", "mem.free.kb", "net.eth0.rx",
		"os.kernel", "cpu.model", "disk.sda.pct", "uptime.s", "proc.count", "fan.rpm",
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1}
	rng := rand.New(rand.NewSource(21))

	var now time.Duration
	srv := NewServer(ServerConfig{Cluster: "model", Now: func() time.Duration { return now }})
	if err := srv.Engine().AddRule(events.Rule{Name: "never", Metric: "no.such.metric", Op: events.GT, Threshold: 1}); err != nil {
		t.Fatal(err)
	}
	up := NewUplink(srv, UplinkConfig{Send: func([]byte) error { return nil }})
	srv.SetUplink(up)
	roll := NewRollup(srv, agg, "")

	model := map[string]*modelRec{agg: newModelRec()}
	for _, n := range nodes {
		model[n] = newModelRec()
	}
	var lastFold []consolidate.Value
	seqs := map[string]uint64{}

	randValue := func(name string) consolidate.Value {
		kind := consolidate.Kind(rng.Intn(2))
		switch r := rng.Intn(20); {
		case r < 2:
			return consolidate.TextValue(name, kind, fmt.Sprintf("text-%d", rng.Intn(4)))
		case r < 5:
			return consolidate.NumValue(name, kind, specials[rng.Intn(len(specials))])
		default:
			return consolidate.NumValue(name, kind, float64(rng.Intn(4000))/100)
		}
	}
	randFrame := func(node string) transmit.Frame {
		f := transmit.Frame{Node: node}
		n := 1 + rng.Intn(4)
		if rng.Intn(4) == 0 {
			f.Kind = transmit.FrameSnapshot
			n = []int{0, 2, 5, len(metrics), len(metrics)}[rng.Intn(5)]
		}
		for _, k := range rng.Perm(len(metrics))[:n] {
			f.Values = append(f.Values, randValue(metrics[k]))
		}
		if rng.Intn(2) == 0 {
			seqs[node] += uint64(1 + rng.Intn(8)/7) // now and then a gap
			f.Seq = seqs[node]
		}
		return f
	}

	// check compares every reader of node's record with the model.
	check := func(step int, node string) {
		t.Helper()
		m := model[node]
		want := m.sorted()
		if got := srv.NodeValues(node); !sameValues(got, want) {
			t.Fatalf("step %d: NodeValues(%s)\n got %v\nwant %v", step, node, got, want)
		}
		for _, name := range append(metrics[:len(metrics):len(metrics)], probeMetric, "never.seen") {
			got, ok := srv.NodeValue(node, name)
			if w, has := m.values[name]; ok != has || !sameValue(got, w) {
				t.Fatalf("step %d: NodeValue(%s, %s) = %v, %v, want %v, %v", step, node, name, got, ok, w, has)
			}
		}
		var row NodeStatus
		for _, r := range srv.Status() {
			if r.Name == node {
				row = r
			}
		}
		if w := m.status(node, now); !sameStatusRow(&row, &w) || row.LastSeen != w.LastSeen {
			t.Fatalf("step %d: status row of %s = %+v, want %+v", step, node, row, w)
		}
		rec := srv.node(node)
		rec.mu.RLock()
		snap := srv.observationSnapshot(rec)
		rec.mu.RUnlock()
		if len(snap) != len(m.sample) {
			t.Fatalf("step %d: %s hands the engine %v, want %v", step, node, snap, m.sample)
		}
		for name, num := range m.sample {
			if got, ok := snap[name]; !ok || math.Float64bits(got) != math.Float64bits(num) {
				t.Fatalf("step %d: %s hands the engine %s = %v (%v), want %v", step, node, name, got, ok, num)
			}
		}
		clear(snap)
		samplePool.Put(snap)
	}
	// section requires the uplink to have built exactly the named sections.
	section := func(step int, want map[string]transmit.Frame) {
		t.Helper()
		if len(up.frames) != len(want) {
			t.Fatalf("step %d: uplink built %d sections, want %d", step, len(up.frames), len(want))
		}
		for _, f := range up.frames {
			w, ok := want[f.Node]
			if !ok || f.Kind != w.Kind || !sameValues(f.Values, w.Values) {
				t.Fatalf("step %d: uplink section\n got %+v\nwant %+v (expected %v)", step, f, w, ok)
			}
		}
	}
	snapshotOf := func(node string) transmit.Frame {
		return transmit.Frame{Node: node, Kind: transmit.FrameSnapshot, Values: model[node].sorted()}
	}
	// tick folds the model's nodes as Rollup.Tick folds the records, and
	// reports whether the aggregate was re-ingested.
	acc := consolidate.NewRollupAcc()
	tick := func() bool {
		acc.Reset()
		children := 0
		for _, n := range nodes {
			m := model[n]
			if !m.seen {
				continue
			}
			for name, num := range m.sample {
				if name != probeMetric {
					acc.Observe(name, num)
				}
			}
			children++
		}
		if got := roll.Tick(); got != children {
			t.Fatalf("rollup folded %d children, want %d", got, children)
		}
		fold := acc.AppendValues(nil)
		if children == 0 || rollupEqual(fold, lastFold) {
			return false
		}
		lastFold = fold
		model[agg].apply(transmit.Frame{Node: agg, Kind: transmit.FrameSnapshot, Values: fold}, now)
		return true
	}

	for step := 0; step < framesPerNode*len(nodes); step++ {
		now += time.Second
		want := map[string]transmit.Frame{}
		if step%41 == 40 {
			// A probe sweep: every node, records the agent has not yet
			// written to included.
			reach := rng.Intn(2) == 0
			srv.ProbeConnectivity(func(string) bool { return reach })
			v := consolidate.NumValue(probeMetric, consolidate.Dynamic, 0)
			if reach {
				v.Num = 1
			}
			for _, n := range srv.NodeNames() {
				m := model[n]
				if old, had := m.values[probeMetric]; !had || !old.Equal(v) {
					want[n] = transmit.Frame{Node: n, Values: []consolidate.Value{v}}
				}
				m.set(v)
				m.appends[probeMetric]++
			}
		} else {
			f := randFrame(nodes[rng.Intn(len(nodes))])
			if err := srv.HandleFrame(f); err != nil && !errors.Is(err, ErrResyncNeeded) {
				t.Fatal(err)
			}
			m := model[f.Node]
			m.apply(f, now)
			if f.Kind == transmit.FrameSnapshot {
				want[f.Node] = snapshotOf(f.Node)
			} else {
				d := transmit.Frame{Node: f.Node}
				for _, v := range f.Values {
					d.Values = append(d.Values, m.values[v.Name])
				}
				slices.SortFunc(d.Values, func(a, b consolidate.Value) int { return strings.Compare(a.Name, b.Name) })
				want[f.Node] = d
			}
		}
		if tick() {
			want[agg] = snapshotOf(agg)
		}
		for n := range model {
			if _, registered := srv.lookup(n); registered {
				check(step, n)
			}
		}
		up.drain(false)
		up.build()
		section(step, want)
		if step%97 == 96 {
			all := map[string]transmit.Frame{}
			for _, n := range srv.NodeNames() {
				all[n] = snapshotOf(n)
			}
			up.drain(true)
			up.build()
			section(step, all)
		}
	}
	for n, m := range model {
		for name, count := range m.appends {
			if got := srv.History().Series(n, name).Len(); got != count {
				t.Errorf("%s/%s holds %d history points, want %d", n, name, got, count)
			}
		}
		if got, want := len(srv.History().Metrics(n)), len(m.appends); got != want {
			t.Errorf("%s has %d series, want %d", n, got, want)
		}
	}
}
