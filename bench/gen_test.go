package bench

import (
	"fmt"
	"strings"
	"testing"
)

// genTrace renders a fixed sequence of the generator's outputs.
func genTrace(seed int64) string {
	g := NewGen(seed)
	var b strings.Builder
	for round := 1; round <= 20; round++ {
		// Each call reuses the generator's scratch, so render before the next.
		b.WriteString(renderValues(g.Full(round%64, round)))
		b.WriteString(renderValues(g.Named(round)))
		b.WriteString(renderValues(g.Touch()))
		b.WriteString(renderValues(g.Touch()))
	}
	return b.String()
}

func TestGenDeterministic(t *testing.T) {
	a, b := genTrace(7), genTrace(7)
	if a != b {
		t.Fatal("the same seed produced different values")
	}
	if a == genTrace(8) {
		t.Fatal("different seeds produced the same values")
	}
}

func TestGenFramesNeverRepeatAMetric(t *testing.T) {
	g := NewGen(3)
	check := func(what string, vals []Value, want int) {
		t.Helper()
		if len(vals) != want {
			t.Fatalf("%s: %d values, want %d", what, len(vals), want)
		}
		seen := map[string]bool{}
		for _, v := range vals {
			if seen[v.Name] {
				t.Fatalf("%s repeats %s: %v", what, v.Name, vals)
			}
			seen[v.Name] = true
		}
	}
	for i := 0; i < 500; i++ {
		touch := g.Touch()
		check("Touch", touch, touchMetrics)
		for _, v := range touch {
			if v.Name == roundMetric {
				t.Fatal("Touch changed the round counter, which only the sentinel may")
			}
		}
		check("Named", g.Named(i), touchMetrics)
		check("Full", g.Full(i%64, i), numMetrics+2)
	}
	named := g.Named(41)
	if named[0].Name != "load.1" || named[1].Name != roundMetric || named[1].Num != 41 {
		t.Errorf("Named must lead with load.1 and carry the round counter: %v", named[:2])
	}
}

func TestPickSentinel(t *testing.T) {
	for _, n := range []int{64, treeNodes} {
		s, o := pickSentinel(n)
		if s < 0 || s >= n || o < 0 || o >= n || s == o {
			t.Fatalf("n=%d: sentinel %d, other %d", n, s, o)
		}
		ss, so := shardOf(nodeName(s)), shardOf(nodeName(o))
		if ss == so {
			t.Errorf("n=%d: sentinel and other share stripe %d", n, ss)
		}
		for i := 0; i < n; i++ {
			if shardOf(nodeName(i)) > ss {
				t.Errorf("n=%d: %s is in a later stripe than the sentinel", n, nodeName(i))
			}
		}
		if shardOf(LeafAggregate) >= ss {
			t.Errorf("n=%d: the rack aggregate (stripe %d) would follow the sentinel (stripe %d) in a batch", n, shardOf(LeafAggregate), ss)
		}
	}
	if s, _ := pickSentinel(treeNodes); shardOf(nodeName(s)) != 63 {
		t.Errorf("at full size the sentinel %s must sit in the last stripe", fmt.Sprint(nodeName(s)))
	}
}
