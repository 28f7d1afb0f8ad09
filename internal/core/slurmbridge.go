package core

import (
	"sync"

	"clusterworx/internal/node"
	"clusterworx/internal/slurm"
)

// SlurmBridge binds a slurm.Cluster to the simulated cluster so that the
// §6 resource manager runs against the same nodes ClusterWorX monitors:
//
//   - a launching job puts its work onto its allocated nodes (their load —
//     and therefore their /proc statistics, temperatures, and the
//     monitoring screen — rises for the job's duration);
//   - a node leaving the Up state (crash, power-off, thermal event action)
//     is reported down to the scheduler, failing or requeueing its jobs;
//   - a node returning to Up rejoins the allocation pool.
//
// This closes the loop the paper sketches: "the data is used to schedule
// tasks, load-balance devices and services" (§5.3).
type SlurmBridge struct {
	Cluster *slurm.Cluster

	mu   sync.Mutex         //cwx:lockrank bridge 4
	load map[string]float64 // per-node load contributed by jobs
	sim  *Sim
}

// jobLoad is the run-queue depth one job contributes to each of its nodes.
const jobLoad = 1.0

// AttachSlurm creates a slurm.Cluster over the sim's nodes and wires the
// two systems together. Call it once, after NewSim.
func (s *Sim) AttachSlurm() *SlurmBridge {
	names := make([]string, len(s.Nodes))
	for i, n := range s.Nodes {
		names[i] = n.Name()
	}
	br := &SlurmBridge{
		Cluster: slurm.New(s.Clk, names),
		load:    make(map[string]float64, len(names)),
		sim:     s,
	}

	// Jobs drive node load while they run.
	br.Cluster.OnStart(func(j slurm.Job) {
		br.addLoad(j.Allocated, +jobLoad)
	})
	br.Cluster.OnComplete(func(j slurm.Job) {
		br.addLoad(j.Allocated, -jobLoad)
	})

	// Node lifecycle feeds scheduler availability. Initial state: only Up
	// nodes are in service.
	for _, n := range s.Nodes {
		n := n
		if n.State() != node.Up {
			br.Cluster.NodeDown(n.Name())
		}
		n.OnStateChange(func(st node.State) {
			if st == node.Up {
				br.Cluster.NodeUp(n.Name())
			} else {
				br.Cluster.NodeDown(n.Name())
			}
		})
	}
	return br
}

// addLoad adjusts the job-driven load on a set of nodes.
func (b *SlurmBridge) addLoad(nodeNames []string, delta float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, name := range nodeNames {
		n := b.sim.Node(name)
		if n == nil {
			continue
		}
		l := b.load[name] + delta
		if l < 0 {
			l = 0
		}
		b.load[name] = l
		n.SetLoad(l)
	}
}

// JobLoad returns the job-driven load currently assigned to a node.
func (b *SlurmBridge) JobLoad(nodeName string) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.load[nodeName]
}
