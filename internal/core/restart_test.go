package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"clusterworx/internal/history"
	"clusterworx/internal/leakcheck"
)

// restartSchedule drives a sim (the tree, or its flat control) through one
// timeline: a lossless boot past the first minute checkpoint, 60 s of 15 %
// fabric loss during which fault runs between steps, then heal, one
// anti-entropy round and a drain. fault never moves the clock, so every
// run ends at the same virtual instant with the same agent state.
func restartSchedule(sim *Sim, fault func(step int)) {
	sim.PowerOnAll()
	sim.Advance(70 * time.Second)
	sim.Net.SetLoss(0.15)
	for step := 0; step < 60; step++ {
		if fault != nil {
			fault(step)
		}
		sim.Advance(time.Second)
	}
	sim.Net.SetLoss(0)
	sim.Advance(90 * time.Second) // past agent AND uplink anti-entropy
	sim.Stop()
	sim.Advance(5 * time.Second) // drain in-flight frames and final flushes
}

// restarted is one server's restart: when, whether it was a kill, the
// history it held just before, and the history its fresh daemon restored.
type restarted struct {
	ts        *TierServer
	at        time.Duration
	kill      bool
	pre, kept *history.Store
}

// storeCopy round-trips st through the persistence format.
func storeCopy(t *testing.T, st *history.Store) *history.Store {
	t.Helper()
	var b bytes.Buffer
	cp := history.NewStore(0)
	if err := st.SaveTo(&b); err != nil {
		t.Fatal(err)
	}
	if err := cp.LoadFrom(&b); err != nil {
		t.Fatal(err)
	}
	return cp
}

// points is a series' whole history (nil when st has no such series).
func points(st *history.Store, node, metric string) []history.Point {
	if s := st.Series(node, metric); s != nil {
		return s.Range(math.MinInt64, math.MaxInt64)
	}
	return nil
}

// prefixOf reports whether every series of a starts with all of its points
// in b, and returns a's newest stamp.
func prefixOf(a, b *history.Store) (newest time.Duration, ok bool) {
	for _, node := range a.Nodes() {
		for _, metric := range a.Metrics(node) {
			pa, pb := points(a, node, metric), points(b, node, metric)
			if len(pb) < len(pa) || !slices.Equal(pb[:len(pa)], pa) {
				return 0, false
			}
			if len(pa) > 0 {
				newest = max(newest, pa[len(pa)-1].T)
			}
		}
	}
	return newest, true
}

// TestSimRestartEveryTier restarts or kills every server of a 3-tier tree
// — leaves, mids and the root, each at a seeded step of a 15 % loss window
// — and holds the tree to two things. After one anti-entropy round the
// root's answers equal a flat control's byte for byte: a fresh daemon's
// sessions, and its peers' with it, heal through the protocol alone. And
// each server's history is what it kept — everything up to a Restart,
// whose last save its successor restores; up to the last minute
// checkpoint for a Kill — followed by what came after.
func TestSimRestartEveryTier(t *testing.T) {
	t.Cleanup(leakcheck.Goroutines(t))
	cfg := SimConfig{
		Fanout: 2, Tiers: 3, Nodes: 2, Transport: TransportSimnet,
		EchoSweep: -1, AntiEntropy: 20 * time.Second,
		UplinkAntiEntropy: 20 * time.Second,
		Seed:              11,
	}
	fed, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Stop)
	var servers []*TierServer
	for _, lvl := range fed.Levels {
		servers = append(servers, lvl...)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	steps := make([]int, len(servers))
	for i := range servers {
		steps[i] = 5 + rng.Intn(50)
	}
	var done []restarted
	restartSchedule(fed, func(step int) {
		for i, ts := range servers {
			if steps[i] != step {
				continue
			}
			r := restarted{ts: ts, at: fed.Clk.Now(), kill: i%2 == 1, pre: storeCopy(t, ts.Server.History())}
			if r.kill {
				fed.Kill(ts)
			} else {
				fed.Restart(ts)
			}
			r.kept = storeCopy(t, ts.Server.History())
			done = append(done, r)
		}
	})
	if len(done) != len(servers) {
		t.Fatalf("%d of %d servers restarted", len(done), len(servers))
	}

	flat, err := NewSim(SimConfig{
		Nodes: 8, Transport: TransportSimnet, EchoSweep: -1,
		AntiEntropy: 20 * time.Second, Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(flat.Stop)
	restartSchedule(flat, nil)

	var diffs []string
	for i, agent := range flat.Agents {
		name := flat.Nodes[i].Name()
		if d := syncDiff(flat.Server, name, agent.Consolidator().Snapshot()); len(d) > 0 {
			t.Fatalf("flat control diverged from its own agents:\n%s", joinDiffs(d))
		}
		diffs = append(diffs, syncDiff(fed.Server, name, flat.Server.NodeValues(name))...)
		diffs = append(diffs, syncDiff(fed.Server, name, fed.Agents[i].Consolidator().Snapshot())...)
	}
	if len(diffs) > 0 {
		t.Fatalf("root after every tier restarted != flat control (%d diffs):\n%s", len(diffs), joinDiffs(diffs))
	}

	for _, r := range done {
		newest, ok := prefixOf(r.kept, r.pre)
		held, _ := prefixOf(r.pre, r.pre)
		switch {
		case !ok:
			t.Fatalf("%s: what it restored is not a prefix of what it held", r.ts.Name)
		case r.kill && (newest < r.at-time.Minute || newest >= held):
			t.Fatalf("%s: killed at %v holding history to %v, restored it to %v: want the last minute checkpoint's", r.ts.Name, r.at, held, newest)
		case !r.kill:
			if back, _ := prefixOf(r.pre, r.kept); back != newest || newest == 0 {
				t.Fatalf("%s: restarted at %v, restored history ends at %v: the last save lost points", r.ts.Name, r.at, newest)
			}
		}
		final := r.ts.Server.History()
		if _, ok := prefixOf(r.kept, final); !ok {
			t.Fatalf("%s: its history does not start with what it restored", r.ts.Name)
		}
		if grown, _ := prefixOf(final, final); grown <= r.at {
			t.Fatalf("%s: no history after its restart at %v", r.ts.Name, r.at)
		}
	}
}
