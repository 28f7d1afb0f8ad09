package bench

import (
	"fmt"
	"math"
	"math/rand"
)

// The synthetic cluster the fed and query workloads load into the tree:
// treeNodes nodes of numMetrics numeric and two static text values. The
// first metrics carry the names the read verbs and cwxd's default rules
// look at, in ranges that never fire a rule.
const (
	numMetrics   = 32
	touchMetrics = 8 // numeric values one round changes on a node
	roundMetric  = "bench.round"
)

// The first touchMetrics names are what the sentinel changes every round:
// the round counter the barrier waits for, and the metrics the read
// script's status, compare, chart and efficiency verbs are built from.
var metricNames = func() [numMetrics]string {
	named := []string{
		"load.1", roundMetric, "cpu.idle.pct", "mem.used.pct", "hw.temp.cpu",
		"load.5", "load.15", "swap.used.pct", "cpu.user.pct", "cpu.sys.pct",
	}
	var out [numMetrics]string
	for i := range out {
		if i < len(named) {
			out[i] = named[i]
		} else {
			out[i] = fmt.Sprintf("bench.m%02d", i)
		}
	}
	return out
}()

// metricRange gives each metric a base and a spread.
func metricRange(i int) (base, spread float64) {
	switch metricNames[i] {
	case "load.1", "load.5", "load.15":
		return 0.5, 6
	case "cpu.idle.pct", "mem.used.pct":
		return 10, 80
	case "hw.temp.cpu":
		return 30, 30
	case "swap.used.pct":
		return 0, 20
	case "cpu.user.pct", "cpu.sys.pct":
		return 0, 45
	}
	return 0, 1000
}

// nodeName is the i-th synthetic node.
func nodeName(i int) string { return fmt.Sprintf("n%04d", i) }

// shardOf mirrors the product's node-table striping (FNV-1a folded to 64
// stripes). The uplink drains its dirty set in stripe order, so a sentinel
// in the last stripe, touched last, is the last node section of a batch;
// and query_churn needs a node that does not share the sentinel's stripe.
// If the product's striping changes, query_churn's rebuild count check
// fails and says so.
func shardOf(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h & 63
}

// Gen is the seeded change-set generator. The same seed yields the same
// sequence of values, and so the same bytes on the wire.
type Gen struct {
	rng  *rand.Rand
	vals []Value // scratch for one frame
}

// NewGen seeds a generator.
func NewGen(seed int64) *Gen { return &Gen{rng: rand.New(rand.NewSource(seed))} }

// num draws a value for metric i, to two decimals as a monitor would report
// it.
func (g *Gen) num(i int) float64 {
	base, spread := metricRange(i)
	return math.Round((base+spread*g.rng.Float64())*100) / 100
}

// Full returns a node's complete value set: every numeric metric redrawn,
// the round counter set to round, and the two static texts. The slice is
// valid until the next call.
func (g *Gen) Full(node int, round int) []Value {
	g.vals = g.vals[:0]
	for i := 0; i < numMetrics; i++ {
		v := g.num(i)
		if metricNames[i] == roundMetric {
			v = float64(round)
		}
		g.vals = append(g.vals, Num(metricNames[i], v))
	}
	g.vals = append(g.vals,
		Text("sys.kernel", "2.4.18-cwx"),
		Text("sys.hostname", nodeName(node)))
	return g.vals
}

// Named redraws the first touchMetrics metrics of a node — the ones the
// read verbs are built from — with the round counter set to round. The
// slice is valid until the next call.
func (g *Gen) Named(round int) []Value {
	g.vals = g.vals[:0]
	for i := 0; i < touchMetrics; i++ {
		v := g.num(i)
		if metricNames[i] == roundMetric {
			v = float64(round)
		}
		g.vals = append(g.vals, Num(metricNames[i], v))
	}
	return g.vals
}

// Touch returns touchMetrics changed values for a node: a seeded stride of
// distinct metrics, never the round counter. The slice is valid until the
// next call.
func (g *Gen) Touch() []Value {
	g.vals = g.vals[:0]
	const stride = numMetrics / touchMetrics
	start := g.rng.Intn(stride)
	for j := 0; j < touchMetrics; j++ {
		i := start + j*stride
		if metricNames[i] == roundMetric {
			i = (i + 2) % numMetrics // stays off the other strides: stride is 4
		}
		g.vals = append(g.vals, Num(metricNames[i], g.num(i)))
	}
	return g.vals
}

// pickSentinel returns the highest-numbered node of the last stripe the tree
// reaches, and other, the highest-numbered node of the first.
func pickSentinel(nodes int) (sentinel, other int) {
	sentinel, other = nodes-1, nodes-1
	for i := nodes - 2; i >= 0; i-- {
		s := shardOf(nodeName(i))
		if s > shardOf(nodeName(sentinel)) {
			sentinel = i
		}
		if s < shardOf(nodeName(other)) {
			other = i
		}
	}
	return sentinel, other
}
