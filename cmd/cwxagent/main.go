// Command cwxagent is a standalone ClusterWorX node agent: it simulates
// one cluster node (we have no spare Pentium IIIs), monitors it through
// the full gathering/consolidation pipeline, and streams change sets to a
// cwxd server over the compressed wire protocol.
//
//	cwxd &
//	cwxagent -server localhost:7701 -name node042 -load 0.8
package main

import (
	"flag"
	"log"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/core"
	"clusterworx/internal/node"
)

func main() {
	var (
		server      = flag.String("server", "localhost:7701", "cwxd agent address")
		name        = flag.String("name", "node000", "node hostname")
		load        = flag.Float64("load", 0.3, "offered run-queue depth of the simulated node")
		period      = flag.Duration("period", time.Second, "sampling period")
		antiEntropy = flag.Duration("anti-entropy", time.Minute, "full-snapshot refresh period (negative disables)")
	)
	flag.Parse()

	conn, err := core.DialAgent(*server, 5*time.Second)
	if err != nil {
		log.Fatalf("cwxagent: %v", err)
	}
	defer conn.Close()

	clk := clock.New()
	n := node.New(clk, node.Config{Name: *name})
	n.PowerOn()
	clk.Advance(10 * time.Second) // boot
	n.SetLoad(*load)

	agent, err := core.NewAgent(clk, core.AgentConfig{
		Node:        n,
		Period:      *period,
		SendFrame:   conn.SendFrame,
		AntiEntropy: *antiEntropy,
	})
	if err != nil {
		log.Fatalf("cwxagent: %v", err)
	}
	// The server answers sequence gaps with resync requests down the same
	// connection; feed them to the agent so the next tick ships a snapshot.
	conn.OnResync(func(string) { agent.RequestResync() })
	defer agent.Stop()
	log.Printf("cwxagent: %s reporting to %s every %v", *name, *server, *period)

	// Drive the node's virtual clock from wall time; agent ticks ride it.
	const step = 100 * time.Millisecond
	for {
		time.Sleep(step)
		clk.Advance(step)
		if agent.SendErrors() > 10 {
			log.Fatalf("cwxagent: server unreachable, giving up")
		}
	}
}
