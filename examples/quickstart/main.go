// Quickstart: bring up a 16-node simulated cluster under ClusterWorX,
// watch the monitoring screen populate, pull one node's history, and use
// the ICE Box path to power-cycle a node — the five-minute tour of the
// public API.
package main

import (
	"fmt"
	"log"
	"time"

	"clusterworx/internal/core"
	"clusterworx/internal/node"
)

func main() {
	// One call builds nodes, ICE boxes, agents and the management server
	// on a shared virtual clock.
	sim, err := core.NewSim(core.SimConfig{Nodes: 16, Cluster: "quickstart"})
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Stop()

	fmt.Println("== sequenced power-up via the ICE boxes ==")
	sim.PowerOnAll()
	sim.Advance(30 * time.Second)

	// Put some work on the cluster so the numbers move.
	for i, n := range sim.Nodes {
		n.SetLoad(0.25 * float64(i%5))
	}
	sim.Advance(5 * time.Minute)

	fmt.Println(sim.Server.HandleCtl("status"))

	fmt.Println("\n== monitor values on node007 (first 12) ==")
	vals := sim.Server.NodeValues("node007")
	for _, v := range vals[:12] {
		fmt.Printf("  %-26s %s\n", v.Name, v.Render())
	}
	fmt.Printf("  ... %d values total\n", len(vals))

	fmt.Println("\n== load.1 history on node004 ==")
	series := sim.Server.History().Series("node004", "load.1")
	for _, p := range series.Downsample(nil, 0, sim.Clk.Now(), 6) {
		fmt.Printf("  t=%-8s load=%.2f\n", p.T.Round(time.Second), p.V)
	}

	fmt.Println("\n== remote power-cycle of node002 ==")
	if err := sim.Server.PowerCycle("node002"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  just after cycle: %v\n", sim.Node("node002").State())
	sim.Advance(15 * time.Second)
	fmt.Printf("  15s later:        %v\n", sim.Node("node002").State())
	if sim.Node("node002").State() != node.Up {
		log.Fatal("node002 did not come back")
	}

	fmt.Println("\n== post-mortem console tail of node002 (last 3 lines) ==")
	dump, err := sim.Server.Console("node002")
	if err != nil {
		log.Fatal(err)
	}
	lines := splitTail(string(dump), 3)
	for _, l := range lines {
		fmt.Println("  |", l)
	}
}

func splitTail(s string, n int) []string {
	var lines []string
	for _, l := range splitLines(s) {
		if l != "" {
			lines = append(lines, l)
		}
	}
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return lines
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
