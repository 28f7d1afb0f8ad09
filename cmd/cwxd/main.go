// Command cwxd is the ClusterWorX management server daemon. It listens on
// two TCP ports: one for node agents (framed, compressed monitor data —
// the §5.3.3 wire protocol) and one for control clients (cwxctl, or any
// line-oriented tool).
//
// With -sim-nodes N it additionally hosts a simulated cluster in-process —
// nodes, ICE boxes, agents — whose virtual clock tracks wall time, so a
// single binary demonstrates the whole stack:
//
//	cwxd -sim-nodes 16 &
//	cwxctl status
//	cwxctl power cycle node003
//
// With -uplink it federates: the server forwards its consolidated
// change stream — batched, change-only — to a parent cwxd's agent port,
// so a tree of daemons scales past what one master can ingest:
//
//	cwxd -agent-addr :7801 -ctl-addr :7802 -rollup grid/root,rack/ & # parent tier
//	cwxd -sim-nodes 16 -uplink localhost:7801 -rollup rack/leaf0 &   # leaf tier
//	cwxctl -addr localhost:7802 status                               # whole grid
//
// -rollup makes a tier publish subtree aggregate series
// (count/min/max/sum per metric) through its own ingest pipeline, so
// upper-tier queries are O(subtrees) instead of O(nodes).
//
// On SIGTERM or SIGINT cwxd drains: it stops accepting, flushes its
// uplink a last time, saves its history (-history-file) and exits 0.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/core"
	"clusterworx/internal/flight"
)

func main() {
	var cfg core.DaemonConfig
	flag.StringVar(&cfg.AgentAddr, "agent-addr", ":7701", "listen address for node agents")
	flag.StringVar(&cfg.CtlAddr, "ctl-addr", ":7702", "listen address for control clients")
	flag.StringVar(&cfg.Cluster, "cluster", "cluster", "cluster name used in notifications")
	flag.IntVar(&cfg.SimNodes, "sim-nodes", 0, "host this many simulated nodes in-process")
	rulesFile := flag.String("rules", "", "event rule file (replaces the built-in defaults)")
	histFile := flag.String("history-file", "", "persist monitor history to this file (loaded at start, saved every minute and on SIGTERM)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and Prometheus /metrics on this address (e.g. localhost:6060; empty disables)")
	flag.DurationVar(&cfg.SelfMonitor, "self-monitor", 10*time.Second, "meta-monitor period: ingest the server's own telemetry as node "+core.MetaNodeName+" (0 disables)")
	flightN := flag.Int("flight-rate", flight.DefaultRate, "causal-trace sampling: trace 1 in N agent ticks; 0 turns the flight recorder off")
	flag.StringVar(&cfg.Uplink, "uplink", "", "federate: forward this server's consolidated change stream to a parent cwxd's agent port (host:port)")
	flag.DurationVar(&cfg.UplinkPeriod, "uplink-period", time.Second, "uplink flush cadence: changed nodes are batched upstream this often")
	flag.DurationVar(&cfg.UplinkAntiEntropy, "uplink-anti-entropy", 5*time.Minute, "periodic full-state uplink flush so a wedged parent re-converges (0 disables)")
	flag.StringVar(&cfg.Rollup, "rollup", "", "publish a subtree aggregate node: <agg-name> folds raw children (leaf tier, e.g. rack/leaf0), <agg-name>,<child-prefix> composes child aggregates (upper tier, e.g. grid/root,rack/); ticks with -uplink-period")
	flag.Parse()
	if err := setFlightRate(*flightN); err != nil {
		log.Fatalf("cwxd: %v", err)
	}
	var err error
	if cfg.Rules, err = readRules(*rulesFile); err != nil {
		log.Fatalf("cwxd: %v", err)
	}
	d, err := core.NewDaemon(cfg)
	if err != nil {
		log.Fatalf("cwxd: %v", err)
	}
	var store core.Persist
	if *histFile != "" {
		store = historyFile(*histFile)
	}
	clk := clock.New()
	if err := d.Start(clk, store); err != nil {
		log.Fatalf("cwxd: %v", err)
	}
	if *pprofAddr != "" {
		servePprof(*pprofAddr, d.Server())
	}
	log.Printf("cwxd: cluster %q, agents on %s, control on %s", cfg.Cluster, cfg.AgentAddr, cfg.CtlAddr)

	// One driver steps the daemon's clock along wall time in both modes,
	// so every history-window end and watch diff is computed against a
	// single monotone timeline — the code path the simulation exercises
	// deterministically. t0 is the wall instant at which the clock would
	// have read 0: a restored clock starts where its history ends.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	t0 := time.Now().Add(-clk.Now())
	err = d.Drive(time.Tick(core.ClockStep), stop, func() { stepClock(clk, time.Since(t0)) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "cwxd:", err)
		os.Exit(1)
	}
}

// stepClock brings clk to the last whole step at or before elapsed, the
// wall time since the driver started. The clock reads the same between
// two ticks whatever the remainder was, so the remainder — how late the
// driver's goroutine woke — is not time anyone observed: dropping it puts
// every ingest stamp on the step grid, where the history's stamp code
// spends a bit on a sample a second instead of four bytes on scheduler
// noise, and makes what a stream of samples costs the same on a fast host
// and a slow one. A tick that fires late catches up in one call; elapsed
// is monotone, so the clock never has to run backwards, and a clock
// already at or past the step is left alone until the wall reaches the
// next one.
func stepClock(clk *clock.Clock, elapsed time.Duration) {
	if t := elapsed.Truncate(core.ClockStep); t > clk.Now() {
		clk.RunUntil(t)
	}
}

// setFlightRate applies -flight-rate: N >= 1 traces 1 agent tick in N,
// 0 turns the flight recorder off, and with it all trace sampling.
func setFlightRate(n int) error {
	if n < 0 {
		return fmt.Errorf("-flight-rate %d: want 0 (recorder off) or N >= 1", n)
	}
	flight.Default().SetEnabled(n > 0)
	if n > 0 {
		flight.SetRate(n)
	}
	return nil
}
