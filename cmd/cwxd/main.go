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
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only with -pprof
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/cloning"
	"clusterworx/internal/core"
	"clusterworx/internal/events"
	"clusterworx/internal/flight"
	"clusterworx/internal/history"
)

func main() {
	var (
		agentAddr   = flag.String("agent-addr", ":7701", "listen address for node agents")
		ctlAddr     = flag.String("ctl-addr", ":7702", "listen address for control clients")
		cluster     = flag.String("cluster", "cluster", "cluster name used in notifications")
		simNodes    = flag.Int("sim-nodes", 0, "host this many simulated nodes in-process")
		rulesFile   = flag.String("rules", "", "event rule file (replaces the built-in defaults)")
		histFile    = flag.String("history-file", "", "persist monitor history to this file (loaded at start, saved every minute)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof and Prometheus /metrics on this address (e.g. localhost:6060; empty disables)")
		selfMon     = flag.Duration("self-monitor", 10*time.Second, "meta-monitor period: ingest the server's own telemetry as node "+core.MetaNodeName+" (0 disables)")
		flightN     = flag.Int("flight-rate", flight.DefaultRate, "causal-trace sampling: trace 1 in N agent ticks; 0 turns the flight recorder off")
		uplink      = flag.String("uplink", "", "federate: forward this server's consolidated change stream to a parent cwxd's agent port (host:port)")
		uplinkEvery = flag.Duration("uplink-period", time.Second, "uplink flush cadence: changed nodes are batched upstream this often")
		uplinkAE    = flag.Duration("uplink-anti-entropy", 5*time.Minute, "periodic full-state uplink flush so a wedged parent re-converges (0 disables)")
		rollupSpec  = flag.String("rollup", "", "publish a subtree aggregate node: <agg-name> folds raw children (leaf tier, e.g. rack/leaf0), <agg-name>,<child-prefix> composes child aggregates (upper tier, e.g. grid/root,rack/); ticks with -uplink-period")
	)
	flag.Parse()
	if err := setFlightRate(*flightN); err != nil {
		log.Fatalf("cwxd: %v", err)
	}

	// One driver steps the server's virtual clock along wall time in both
	// modes, so every history-window end and watch diff is computed
	// against a single monotone timeline — the same code path the
	// simulation exercises deterministically. In simulation mode
	// ctl-initiated cloning sessions execute virtual-clock events too;
	// clockMu keeps them and the driver exclusive.
	var (
		srv     *core.Server
		clk     *clock.Clock
		sim     *core.Sim
		clockMu sync.Mutex
	)
	if *simNodes > 0 {
		var err error
		if sim, err = core.NewSim(core.SimConfig{Nodes: *simNodes, Cluster: *cluster}); err != nil {
			log.Fatalf("cwxd: %v", err)
		}
		srv, clk = sim.Server, sim.Clk
	} else {
		clk = clock.New()
		srv = core.NewServer(core.ServerConfig{Cluster: *cluster, Now: clk.Now})
	}
	// History loads before anything runs on the clock, and the clock
	// resumes where the restored history ends: t0 is the wall instant at
	// which it would have read 0.
	origin := restoreHistory(srv.History(), *histFile)
	clk.RunUntil(origin)
	t0 := time.Now().Add(-origin)
	installRules(srv, *rulesFile)
	if sim != nil {
		sim.PowerOnAll()
		srv.SetCloner(func(imageID string, nodeNames []string) (string, error) {
			clockMu.Lock()
			defer clockMu.Unlock()
			im, ok := srv.Images().Get(imageID)
			if !ok {
				return "", fmt.Errorf("unknown image %s", imageID)
			}
			before := clk.Now()
			res, err := sim.Clone(im, nodeNames, 0.01, cloning.Params{})
			// The session ran to completion on the virtual clock, ahead of
			// the wall: move the driver's origin back by the virtual time it
			// took, so the simulation carries on from there instead of
			// standing still until the wall catches up.
			t0 = t0.Add(-(clk.Now() - before))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("cloned %s to %d node(s) in %s (virtual)",
				imageID, len(res.NodeUp), res.AllUp.Round(time.Second)), nil
		})
		log.Printf("cwxd: hosting %d simulated nodes in %d ICE boxes", *simNodes, len(sim.Boxes))
	}
	//cwx:daemon wall-clock driver steps the virtual clock for the process lifetime
	go func() {
		for range time.Tick(clockStep) {
			clockMu.Lock()
			stepClock(clk, time.Since(t0))
			clockMu.Unlock()
		}
	}()

	if *histFile != "" {
		//cwx:daemon periodic history persistence runs for the process lifetime
		go func() {
			for range time.Tick(time.Minute) {
				if err := saveHistory(srv.History().SaveTo, *histFile); err != nil {
					log.Printf("cwxd: history save: %v", err)
				}
			}
		}()
	}

	if *selfMon > 0 {
		meta := core.NewMetaMonitor(srv)
		//cwx:daemon self-monitor tick loop runs for the process lifetime
		go func() {
			for range time.Tick(*selfMon) {
				meta.Tick()
			}
		}()
		log.Printf("cwxd: self-monitoring as %q every %s", core.MetaNodeName, *selfMon)
	}

	if *pprofAddr != "" {
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			if err := srv.WriteTelemetry(w); err != nil {
				log.Printf("cwxd: /metrics: %v", err)
			}
		})
		go func() {
			log.Printf("cwxd: pprof and /metrics on http://%s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("cwxd: pprof server: %v", err)
			}
		}()
	}

	var rollup *core.Rollup
	if *rollupSpec != "" {
		agg, childPrefix, ok := strings.Cut(*rollupSpec, ",")
		if !ok {
			childPrefix = ""
		}
		if agg == "" {
			log.Fatalf("cwxd: -rollup %q: aggregate node name is empty (want <agg-name>[,<child-prefix>])", *rollupSpec)
		}
		rollup = core.NewRollup(srv, agg, childPrefix)
		if childPrefix == "" {
			log.Printf("cwxd: rollup: folding raw children into %q every %s", agg, *uplinkEvery)
		} else {
			log.Printf("cwxd: rollup: composing %s* aggregates into %q every %s", childPrefix, agg, *uplinkEvery)
		}
	}
	if *uplink != "" {
		uc := core.StartUplink(srv, core.UplinkClientConfig{
			Addr:        *uplink,
			Period:      *uplinkEvery,
			AntiEntropy: *uplinkAE,
			Rollup:      rollup,
		})
		defer uc.Close()
		log.Printf("cwxd: federating: uplink to %s every %s", *uplink, *uplinkEvery)
	} else if rollup != nil {
		rr := core.StartRollup(rollup, *uplinkEvery)
		defer rr.Close()
	}
	agentL, err := net.Listen("tcp", *agentAddr)
	if err != nil {
		log.Fatalf("cwxd: agent listener: %v", err)
	}
	ctlL, err := net.Listen("tcp", *ctlAddr)
	if err != nil {
		log.Fatalf("cwxd: ctl listener: %v", err)
	}
	log.Printf("cwxd: cluster %q, agents on %s, control on %s", *cluster, agentL.Addr(), ctlL.Addr())

	errc := make(chan error, 2)
	go func() { errc <- srv.ServeAgents(agentL) }()
	go func() { errc <- srv.ServeCtl(ctlL) }()
	if err := <-errc; err != nil {
		fmt.Fprintln(os.Stderr, "cwxd:", err)
		os.Exit(1)
	}
}

// clockStep is the resolution of a hardware deployment's server clock.
const clockStep = 100 * time.Millisecond

// stepClock brings clk to the last whole step at or before elapsed, the
// wall time since the driver started. The clock reads the same between
// two ticks whatever the remainder was, so the remainder — how late the
// driver's goroutine woke — is not time anyone observed: dropping it puts
// every ingest stamp on the step grid, where the history's stamp code
// spends a bit on a sample a second instead of four bytes on scheduler
// noise, and makes what a stream of samples costs the same on a fast host
// and a slow one. A tick that fires late catches up in one call; elapsed
// is monotone, so the clock never has to run backwards; a clock that is
// already at or past the step (a cloning session ran it ahead) is left
// alone until the wall reaches the next one.
func stepClock(clk *clock.Clock, elapsed time.Duration) {
	if t := elapsed.Truncate(clockStep); t > clk.Now() {
		clk.RunUntil(t)
	}
}

// restoreHistory merges the snapshot at path (if any) into st and returns
// where the server's clock resumes: the newest restored stamp, rounded up
// to the clock's step. A clock that restarted at 0 would stamp every
// sample older than its series' newest point, and a series drops those,
// so history would stand still until the process had been up as long as
// the last one. A file that does not load is renamed to path+".unreadable"
// before anything can save over it — the first save would otherwise
// replace it with whatever merged before the error.
func restoreHistory(st *history.Store, path string) time.Duration {
	if path == "" {
		return 0
	}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0
	}
	if err == nil {
		err = st.LoadFrom(f)
		f.Close()
	}
	if err == nil {
		log.Printf("cwxd: history restored from %s", path)
	} else if rerr := os.Rename(path, path+".unreadable"); rerr != nil {
		log.Printf("cwxd: history load: %v; keeping the file failed: %v", err, rerr)
	} else {
		log.Printf("cwxd: history load: %v; kept the file as %s.unreadable", err, path)
	}
	var newest time.Duration
	for _, node := range st.Nodes() {
		for _, metric := range st.Metrics(node) {
			if p, ok := st.Series(node, metric).Last(); ok && p.T > newest {
				newest = p.T
			}
		}
	}
	return (newest + clockStep - 1).Truncate(clockStep)
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

// installRules arms the event rules: the administrator's rule file when
// given, otherwise the protective defaults every deployment ships with.
func installRules(srv *core.Server, rulesFile string) {
	if rulesFile != "" {
		f, err := os.Open(rulesFile)
		if err != nil {
			log.Fatalf("cwxd: %v", err)
		}
		defer f.Close()
		rules, err := events.ParseRules(f)
		if err != nil {
			log.Fatalf("cwxd: %v", err)
		}
		for _, r := range rules {
			if err := srv.Engine().AddRule(r); err != nil {
				log.Fatalf("cwxd: rule %s: %v", r.Name, err)
			}
		}
		log.Printf("cwxd: %d event rules loaded from %s", len(rules), rulesFile)
		return
	}
	for _, r := range []events.Rule{
		{Name: "overtemp", Metric: "hw.temp.cpu", Op: events.GT, Threshold: 85, Action: events.ActPowerOff, Notify: true},
		{Name: "fan-failure", Metric: "hw.fan.ok", Op: events.LT, Threshold: 1, Sustain: 2, Notify: true},
		{Name: "swap-storm", Metric: "swap.used.pct", Op: events.GT, Threshold: 90, Notify: true},
		{Name: "load-runaway", Metric: "load.1", Op: events.GT, Threshold: 50, Sustain: 5, Notify: true},
	} {
		if err := srv.Engine().AddRule(r); err != nil {
			log.Fatalf("cwxd: rule %s: %v", r.Name, err)
		}
	}
}

// saveHistory replaces the snapshot at path so that, whatever fails and
// whenever the machine stops, path holds either the previous snapshot or
// the new one, whole: the new bytes go to a temp file that is synced
// before it is renamed over path — a rename can reach the disk before the
// data it names — and the directory is synced after, so the rename itself
// survives. A failed save removes the temp file and leaves path alone.
func saveHistory(save func(io.Writer) error, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // best effort: the save has already failed with err
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}
