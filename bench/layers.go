package bench

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"
)

// This file measures single layers for the traced run: from the spans the
// rounds recorded, from the product's own counters, and — where a layer
// cannot be seen through the socket — by timing direct calls into an
// in-process replica fed the same seeded inputs. A workload reports the
// layers it exercises; the rest read zero, which is what they did.

// LayerMetric names one per-layer metric.
type LayerMetric struct {
	Name, Unit   string
	HigherBetter bool
}

// ctlVerbs are the verbs of the read script, in script order.
var ctlVerbs = []string{"status", "values", "compare", "chart", "value", "history", "efficiency"}

// LayerMetrics is every per-layer metric, in report order.
var LayerMetrics = func() []LayerMetric {
	ms := []LayerMetric{
		{"gather.meminfo_ns", "ns", false}, {"gather.stat_ns", "ns", false},
		{"gather.loadavg_ns", "ns", false}, {"gather.uptime_ns", "ns", false},
		{"gather.netdev_ns", "ns", false}, {"procfs.read_ns", "ns", false},
		{"agent.tick_ns", "ns", false}, {"agent.values_collected_per_tick", "count", false},
		{"consolidate.sent_ratio", "ratio", false}, {"agent.snapshot_ticks_pct", "%", false},
		{"wire.send_ns_per_frame", "ns", false}, {"wire.bytes_per_frame", "B", false},
		{"wire.v1_bytes_per_frame", "B", false},
		{"core.ingest_ns_per_frame", "ns", false}, {"core.ingest_snapshot_ns_per_frame", "ns", false},
		{"core.ingest_self_ns", "ns", false},
		{"history.append_ns_per_sample", "ns", false}, {"history.bytes_per_sample", "B", false},
		{"history.range_ns", "ns", false}, {"history.stats_ns", "ns", false},
		{"history.save_ms", "ms", false}, {"history.load_ms", "ms", false},
		{"events.observe_ns_per_frame", "ns", false}, {"events.firings", "count", false},
		{"wire.recv_us_per_frame", "us", false},
		{"uplink.flush_ns_per_node", "ns", false}, {"uplink.bytes_per_node", "B", false},
		{"uplink.nodes_per_batch", "count", true}, {"uplink.idle_nodes_sent", "count", false},
		{"fed.leaf_ingest_us", "us", false}, {"fed.flush_us", "us", false}, {"fed.root_wait_us", "us", false},
		{"rollup.tick_ns", "ns", false}, {"rollup.values_emitted", "count", false},
	}
	for _, v := range ctlVerbs {
		ms = append(ms,
			LayerMetric{"ctl." + v + ".hit_us", "us", false}, LayerMetric{"ctl." + v + ".rebuild_us", "us", false},
			LayerMetric{"plane." + v + ".hit_ns", "ns", false}, LayerMetric{"plane." + v + ".rebuild_ns", "ns", false})
	}
	return append(ms,
		LayerMetric{"ctl.framing_us_per_kb", "us", false}, LayerMetric{"churn.fresh_us", "us", false},
		LayerMetric{"serve.hit_ratio", "ratio", true}, LayerMetric{"serve.rebuilds_per_round", "count", false},
		LayerMetric{"serve.coalesced", "count", false}, LayerMetric{"serve.watch_pushes_per_round", "count", false},
		LayerMetric{"ingest.seq_gaps", "count", false},
		LayerMetric{"cwxd.ctx_switches_per_op", "count", false}, LayerMetric{"cwxd.rss_peak_mb", "MB", false},
		LayerMetric{"cwxd.gc_cycles", "count", false}, LayerMetric{"cwxd.alloc_bytes_per_op", "B", false},
		LayerMetric{"round_p99_ms", "ms", false},
		LayerMetric{"trace.overhead_pct", "%", false}, LayerMetric{"host.slice_spread_pct", "%", false})
}()

// perCallNs times n back-to-back calls of fn, reps times, and returns the
// fastest repetition's nanoseconds per call.
func perCallNs(reps, n int, fn func()) float64 {
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		best = math.Min(best, float64(time.Since(t0))/float64(n))
	}
	return best
}

// medianNs times fn once per repetition, calling before ahead of each, and
// returns the median.
func medianNs(reps int, before func() error, fn func() error) (float64, error) {
	ds := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		if err := before(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return median(ds), nil
}

func (w *flatWorkload) layers(e *env) error {
	l, t := e.layers, w.threads[0]
	spans := e.tr.Spans()
	total, _, count := spanTotals(spans)
	ticks := float64(count["agent.ticks"] * flatTicks)
	l["agent.tick_ns"] = float64(total["agent.ticks"]) / ticks
	_, wire := t.sess.WireStats()
	frames := float64(t.sess.Frames - t.v1n)
	l["wire.send_ns_per_frame"] = float64(total["wire.send"]) / float64(t.sess.Frames-t.tracedFrom)
	l["wire.bytes_per_frame"] = float64(wire-t.v1) / frames
	l["wire.v1_bytes_per_frame"] = float64(t.v1) / float64(t.v1n)
	cticks, collected, changed := t.sess.ConsolidateStats()
	l["agent.values_collected_per_tick"] = float64(collected) / float64(cticks)
	l["consolidate.sent_ratio"] = float64(changed) / float64(collected)
	l["agent.snapshot_ticks_pct"] = float64(t.sess.Snapshots) / float64(t.sess.Frames) * 100

	probe, err := NewGatherProbe("probe000", e.cfg.Seed)
	if err != nil {
		return err
	}
	defer probe.Close()
	for i, name := range probe.Names {
		var perr error
		l[name] = perCallNs(5, 2000, func() {
			if err := probe.Run(i); err != nil {
				perr = err
			}
		})
		if perr != nil {
			return fmt.Errorf("%s: %w", name, perr)
		}
	}

	// One more round's frames, replayed into the layers behind the socket.
	t.sess.Tick(flatTicks)
	sample := t.sess.CapturedCopy()
	state := numericSample(t.sess.State())
	t.sess.DropCaptured()
	var deltaNs, snapNs, deltas, snaps float64
	for rep := 0; rep < 5; rep++ {
		rp, err := NewReplica()
		if err != nil {
			return err
		}
		var dNs, sNs, d, s float64
		for _, f := range sample {
			rp.Step(agentPeriod)
			t0 := time.Now()
			err := rp.Ingest(f)
			dt := float64(time.Since(t0))
			if err != nil {
				return fmt.Errorf("replica ingest seq %d: %w", f.Seq, err)
			}
			if isSnapshot(f) {
				sNs, s = sNs+dt, s+1
			} else {
				dNs, d = dNs+dt, d+1
			}
		}
		if rep == 0 || dNs < deltaNs {
			deltaNs, snapNs, deltas, snaps = dNs, sNs, d, s
		}
	}
	l["core.ingest_ns_per_frame"] = deltaNs / deltas
	if snaps > 0 {
		l["core.ingest_snapshot_ns_per_frame"] = snapNs / snaps
	}

	var samples float64
	appendNs := math.Inf(1)
	var hp *HistoryProbe
	for rep := 0; rep < 5; rep++ {
		hp = NewHistoryProbe()
		samples = 0
		t0 := time.Now()
		for i, f := range sample {
			if isSnapshot(f) {
				continue
			}
			for _, v := range f.Values {
				if !v.IsText {
					hp.Append(f.Node, v.Name, time.Duration(i)*agentPeriod, v.Num)
					samples++
				}
			}
		}
		appendNs = math.Min(appendNs, float64(time.Since(t0))/samples)
	}
	l["history.append_ns_per_sample"] = appendNs
	l["history.bytes_per_sample"] = float64(hp.Bytes()) / samples
	var saved bytes.Buffer
	t0 := time.Now()
	if err := hp.Save(&saved); err != nil {
		return err
	}
	l["history.save_ms"] = float64(time.Since(t0)) / 1e6
	t0 = time.Now()
	if err := NewHistoryProbe().Load(bytes.NewReader(saved.Bytes())); err != nil {
		return err
	}
	l["history.load_ms"] = float64(time.Since(t0)) / 1e6

	ev, err := NewEventsProbe()
	if err != nil {
		return err
	}
	firings := 0
	l["events.observe_ns_per_frame"] = perCallNs(5, len(sample), func() { firings += ev.Observe(sample[0].Node, state) })
	l["events.firings"] = float64(firings)
	l["core.ingest_self_ns"] = l["core.ingest_ns_per_frame"] -
		l["events.observe_ns_per_frame"] - appendNs*samples/deltas
	// What cwxd spends per frame outside ingest: reading, decoding, answering.
	l["wire.recv_us_per_frame"] = e.metrics["server_cpu_us_per_op"] - l["core.ingest_ns_per_frame"]/1e3
	return nil
}

func (w *fedWorkload) layers(e *env) error {
	l := e.layers
	total, self, count := spanTotals(e.tr.Spans())
	if count["round"] == 0 {
		return fmt.Errorf("no round spans")
	}
	mean := func(name string) float64 { return float64(total[name]) / float64(count[name]) }
	l["fed.leaf_ingest_us"] = mean("fed.leaf_ingest") / 1e3
	l["fed.flush_us"] = mean("fed.flush") / 1e3
	l["fed.root_wait_us"] = mean("fed.root_wait") / 1e3
	l["rollup.tick_ns"] = mean("rollup.tick")
	up := w.t.leaf.Uplink()
	nodes := float64(up.Nodes - w.up0.Nodes)
	l["uplink.flush_ns_per_node"] = float64(total["uplink.flush"]) / nodes
	l["uplink.bytes_per_node"] = float64(up.Bytes-w.up0.Bytes) / nodes
	l["uplink.nodes_per_batch"] = nodes / float64(up.Frames-w.up0.Frames)
	l["uplink.idle_nodes_sent"] = float64(w.idle)
	l["rollup.values_emitted"] = float64(strings.Count(w.t.leaf.Ctl("values "+LeafAggregate), "\n"))
	// The three phases are the whole round: its self time is the harness's
	// own span bookkeeping.
	if float64(self["round"]) > 0.02*float64(total["round"]) {
		return fmt.Errorf("fed rounds spend %d of %d ns outside their three phases", self["round"], total["round"])
	}
	return nil
}

// verbRequest is the request line of verb in script s.
func verbRequest(s *script, verb string) string {
	for _, r := range s.reqs {
		if strings.HasPrefix(r, verb+" ") || r == verb {
			return r
		}
	}
	return verb
}

func (w *queryWorkload) layers(e *env) error {
	l, t := e.layers, w.t
	s := w.scripts[0]
	kind := "hit"
	reps := 200
	// Before each timed request of the churn variant the sentinel changes
	// and the root confirms it, so the request finds its gate invalid.
	before := func() error { return nil }
	beforeLeaf := before
	if w.churn {
		kind, reps = "rebuild", 30
		total, _, count := spanTotals(e.tr.Spans())
		l["churn.fresh_us"] = float64(total["churn.fresh"]) / float64(count["churn.fresh"]) / 1e3
		before = func() error {
			if err := t.touchSentinel(); err != nil {
				return err
			}
			if err := t.flush(); err != nil {
				return err
			}
			return t.barrier()
		}
		beforeLeaf = t.touchSentinel
	}
	var statusBytes float64
	for _, verb := range ctlVerbs {
		req := verbRequest(s, verb)
		if w.churn && verb == "values" {
			// The watch stream has already rebuilt the sentinel's values by
			// the time the barrier returns; a neighbour in the same stripe
			// is invalidated by the same ingest and rebuilt by nobody.
			req = "values " + nodeName(t.stripeMate())
		}
		ns, err := medianNs(reps, before, func() error {
			b, err := w.ctl.do(req)
			if verb == "status" {
				statusBytes = float64(len(b))
			}
			return err
		})
		if err != nil {
			return err
		}
		l["ctl."+verb+"."+kind+"_us"] = ns / 1e3
		// The leaf holds the same tree; its plane is the replica's.
		ns, err = medianNs(reps, beforeLeaf, func() error {
			if resp := t.leaf.Ctl(req); strings.HasPrefix(resp, "ERR") {
				return fmt.Errorf("leaf %q: %s", req, resp)
			}
			return nil
		})
		if err != nil {
			return err
		}
		l["plane."+verb+"."+kind+"_ns"] = ns
	}
	if !w.churn {
		l["ctl.framing_us_per_kb"] = (l["ctl.status.hit_us"] - l["plane.status.hit_ns"]/1e3) / (statusBytes / 1024)
		return nil
	}
	// What a rebuild of compare or efficiency reads: every node's series of
	// one metric, ranged and aggregated.
	hp := NewHistoryProbe()
	for s := 0; s < queryFullSamples+queryNamedSamples; s++ {
		for i := 0; i < t.nodes; i++ {
			hp.Append(nodeName(i), metricNames[0], time.Duration(s)*time.Second, t.gen.num(0))
		}
	}
	node := 0
	l["history.range_ns"] = perCallNs(5, t.nodes, func() { hp.Range(nodeName(node%t.nodes), metricNames[0]); node++ })
	l["history.stats_ns"] = perCallNs(5, t.nodes, func() { hp.Stats(nodeName(node%t.nodes), metricNames[0]); node++ })
	return nil
}

// stripeMate is a node other than the sentinel in the sentinel's stripe.
func (t *tree) stripeMate() int {
	want := shardOf(nodeName(t.sentinel))
	for _, i := range t.others {
		if shardOf(nodeName(i)) == want {
			return i
		}
	}
	return t.other
}

// fillLayers gives every per-layer metric a value: zero for the layers the
// workload does not exercise.
func fillLayers(l map[string]float64) {
	for _, m := range LayerMetrics {
		if _, ok := l[m.Name]; !ok {
			l[m.Name] = 0
		}
	}
}
