package core

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"clusterworx/internal/dashboard"
	"clusterworx/internal/history"
)

// watchKind says how "watch <verb>" streams a view.
type watchKind uint8

const (
	watchNone    watchKind = iota // not watchable
	watchDiff                     // key-sorted line list (first field a stable node/metric key): change-only UPDATE diffs
	watchRefresh                  // a value-sorted ranking or a grid: re-pushed whole as REFRESH when its bytes change
)

// ctlVerb is one request of the control protocol. Everything the server
// knows about a verb is in its entry: how it is spelled and documented,
// how many arguments it takes, whether and how it can be watched, and
// either how to answer it live (run) or what its cached rendering rides
// and how that is built (gen and open).
type ctlVerb struct {
	name string // lower-case; requests match it in any case
	args string // argument synopsis, as "ERR usage:" and cwxctl -h print it
	help string
	// min and max bound the argument count; a request outside them gets
	// the usage line. max < 0 leaves trailing arguments to the verb: the
	// argless verbs ignore them. A cached verb's rendering is registered
	// under its name and its first min arguments.
	min, max int
	watch    watchKind
	// run appends a live verb's answer to dst, from the registry and
	// history as they are now; appending nothing asks for the usage line.
	// A connection hands it the buffer it writes the answer from, so the
	// answer is never a string of its own.
	run func(s *Server, dst []byte, args []string) []byte
	// gen is the generation source of a cached verb: the counter its
	// rendering stays valid under. open returns the rendering's builder,
	// which owns whatever it keeps between rebuilds; HandleCtlUncached
	// opens one per request and so builds from nothing.
	gen  func(p *plane, args []string) func() uint64
	open func(p *plane, args []string) func() string
}

func (v *ctlVerb) synopsis() string { return strings.TrimSuffix(v.name+" "+v.args, " ") }
func (v *ctlVerb) usage() string    { return "ERR usage: " + v.synopsis() }

// Generation sources. The roster changes only on registration, a node's
// values only with its own ingest stripe, a chart only with its one
// series (genSeries, plane.go): each view rides the narrowest counter that
// covers its inputs, so ingest elsewhere leaves it a hit.
func genCluster(p *plane, _ []string) func() uint64 { return p.s.Generation }
func genRoster(p *plane, _ []string) func() uint64  { return p.s.regGen.Load }
func genNode(p *plane, a []string) func() uint64    { return p.s.gens[shardIndex(a[0])].v.Load }

// ctlVerbs is the control protocol, in the order cwxctl -h lists it.
// Adding a verb is one entry here plus its run or builder.
var ctlVerbs = []ctlVerb{
	{name: "status", help: "monitoring screen rows", max: -1, watch: watchDiff, gen: genCluster,
		open: func(p *plane, _ []string) func() string { return func() string { return p.buildStatus(nil).rendered } }},
	{name: "nodes", help: "registered node names", max: -1, watch: watchDiff, gen: genRoster,
		open: func(p *plane, _ []string) func() string { return p.buildNodes }},
	{name: "values", args: "<node>", help: "current monitor values", min: 1, max: 1, watch: watchDiff, gen: genNode,
		open: func(p *plane, a []string) func() string { return func() string { return p.buildValues(a[0]) } }},
	{name: "value", args: "<node> <metric>", help: "one monitor value", min: 2, max: 2, run: ctlValue},
	{name: "history", args: "<node> <metric> [n]", help: "most recent n points (default 20)", min: 2, max: 3, run: ctlHistory},
	{name: "trend", args: "<node> <metric>", help: "least-squares slope per hour", min: 2, max: 2, run: ctlTrend},
	{name: "chart", args: "<node> <metric>", help: "ASCII historical graph", min: 2, max: 2, watch: watchRefresh, gen: genSeries,
		open: func(p *plane, a []string) func() string { return func() string { return p.buildChart(a[0], a[1]) } }},
	{name: "spark", args: "<node> <metric>", help: "one-line sparkline", min: 2, max: 2, gen: genSeries,
		open: func(p *plane, a []string) func() string { return func() string { return p.buildSpark(a[0], a[1]) } }},
	{name: "compare", args: "<metric>", help: "per-node stats + mean bars", min: 1, max: 1, watch: watchDiff, gen: genCluster,
		open: func(p *plane, a []string) func() string {
			view := new(dashboard.View) // the table between rebuilds; a gate builds one at a time
			return func() string { return p.buildCompare(view, a[0]) }
		}},
	{name: "correlate", args: "<node> <metric1> <metric2>", help: "Pearson correlation of two metrics", min: 3, max: 3, run: ctlCorrelate},
	{name: "power", args: "on|off|cycle <node>", help: "outlet control via the node's ICE Box", min: 2, max: 2, run: ctlPower},
	{name: "reset", args: "<node>", help: "reset line", min: 1, max: 1, run: func(s *Server, dst []byte, a []string) []byte {
		return errOr(dst, s.Reset(a[0]), "OK "+a[0]+" reset")
	}},
	{name: "console", args: "<node>", help: "post-mortem serial buffer", min: 1, max: 1, run: func(s *Server, dst []byte, a []string) []byte {
		data, err := s.Console(a[0])
		if err != nil {
			return errOr(dst, err, "")
		}
		return append(append(dst, "OK console dump follows\n"...), data...)
	}},
	{name: "bios", args: "settings|set|flash <node> [...]", help: "remote LinuxBIOS management (§2)", min: 2, max: -1, run: ctlBIOS},
	{name: "clone", args: "<imageID> <node> [node...]", help: "start a multicast clone of an image to nodes (§4); \"clone status\" lists the last 16 jobs", min: 1, max: -1, run: ctlClone},
	{name: "images", help: "image library", max: -1, run: func(s *Server, dst []byte, _ []string) []byte {
		ids := s.images.List()
		sort.Strings(ids)
		return append(append(dst, "OK\n"...), strings.Join(ids, "\n")...)
	}},
	{name: "efficiency", help: "cluster utilization report", max: -1, watch: watchRefresh, gen: genCluster,
		open: func(p *plane, _ []string) func() string {
			view := new(dashboard.View) // the table between rebuilds; a gate builds one at a time
			return func() string { return p.buildEfficiency(view) }
		}},
	{name: "rules", help: "event rules", max: -1, run: func(s *Server, dst []byte, _ []string) []byte {
		dst = append(dst, "OK"...)
		for _, r := range s.engine.Rules() {
			dst = fmt.Appendf(dst, "\n%s", r)
		}
		return dst
	}},
	{name: "eventlog", args: "[n]", help: "most recent firings (default 20)", max: -1, run: ctlEventlog},
	{name: "ping", help: "liveness check", max: -1, run: func(_ *Server, dst []byte, _ []string) []byte { return append(dst, "OK pong"...) }},
	{name: "telemetry", help: "self-monitoring metrics (Prometheus text)", max: -1, run: func(s *Server, dst []byte, _ []string) []byte {
		b := bytes.NewBuffer(append(dst, "OK\n"...))
		s.WriteTelemetry(b) //nolint:errcheck // bytes.Buffer cannot fail
		return bytes.TrimRight(b.Bytes(), "\n")
	}},
	{name: "trace", args: "[-json] [node]", help: "newest retained trace per node, its hop per stage, with the worst-traced-ingest exemplar", max: -1, run: ctlTrace},
	{name: "selfmon", help: "meta-monitor series panel (sparklines)", max: -1, watch: watchDiff, gen: genCluster,
		open: func(p *plane, _ []string) func() string { return p.buildSelfmon }},
	{name: "histmem", args: "[n]", help: "history memory ledger (top n series, default 20)", max: 1, run: ctlHistmem},
	{name: "sync", help: "per-node delta-protocol sync state", max: -1, watch: watchDiff, gen: genCluster,
		open: func(p *plane, _ []string) func() string { return p.buildSync }},
	{name: "journal", args: "[-json] [since <seq>]", help: "flight-recorder ring, oldest first (internal/flight)", max: -1, watch: watchDiff, run: ctlJournal},
	{name: "flight", args: "[-json] <trace-id|node>", help: "span tree of one sampled frame, or of the node's latest", max: -1, run: ctlFlight},
	{name: "watch", args: "<verb> [args]", help: "stream a watchable view as it changes; \"quit\" ends it", max: -1, run: func(_ *Server, dst []byte, _ []string) []byte {
		return append(dst, "ERR watch needs a streaming connection (use cwxctl watch)"...)
	}},
}

// ctlByName indexes ctlVerbs.
var ctlByName = func() map[string]*ctlVerb {
	m := make(map[string]*ctlVerb, len(ctlVerbs))
	for i := range ctlVerbs {
		m[ctlVerbs[i].name] = &ctlVerbs[i]
	}
	return m
}()

// CtlUsage lists the control requests, one per line, for cwxctl -h.
func CtlUsage() string {
	watchable := [...]string{watchNone: "", watchDiff: " (watch: diffs)", watchRefresh: " (watch: refreshes)"}
	var b strings.Builder
	for i := range ctlVerbs {
		v := &ctlVerbs[i]
		fmt.Fprintf(&b, "  %-38s %s%s\n", v.synopsis(), v.help, watchable[v.watch])
	}
	return b.String()
}

// errOr appends an actuator's answer: the error if there is one, else ok.
func errOr(dst []byte, err error, ok string) []byte {
	if err != nil {
		return append(append(dst, "ERR "...), err.Error()...)
	}
	return append(dst, ok...)
}

// ctlCount reads the optional count argument: 20 unless a[i] is the last
// argument, which must then be a positive number.
func ctlCount(a []string, i int) (n int, ok bool) {
	if len(a) != i+1 {
		return 20, true
	}
	n, err := strconv.Atoi(a[i])
	return n, err == nil && n > 0
}

func ctlValue(s *Server, dst []byte, a []string) []byte {
	v, ok := s.NodeValue(a[0], a[1])
	if !ok {
		return fmt.Appendf(dst, "ERR no value %s on %s", a[1], a[0])
	}
	return appendValue(append(dst, "OK "...), v)
}

// ctlHistory decodes the points into stack scratch: the default and the
// usual counts take no allocation beside what dst grows by.
func ctlHistory(s *Server, dst []byte, a []string) []byte {
	n, ok := ctlCount(a, 2)
	if !ok {
		return append(append(dst, "ERR bad count "...), a[2]...)
	}
	series := s.hist.Series(a[0], a[1])
	if series == nil {
		return fmt.Appendf(dst, "ERR no history for %s %s", a[0], a[1])
	}
	var scratch [64]history.Point
	dst = append(dst, "OK"...)
	for _, p := range series.Tail(scratch[:0], n) {
		dst = dashboard.AppendFloat(append(dst, '\n'), p.T.Seconds(), 0, 3)
		dst = strconv.AppendFloat(append(dst, ' '), p.V, 'g', -1, 64)
	}
	return dst
}

func ctlTrend(s *Server, dst []byte, a []string) []byte {
	series := s.hist.Series(a[0], a[1])
	if series == nil {
		return fmt.Appendf(dst, "ERR no history for %s %s", a[0], a[1])
	}
	slope, ok := series.Trend(0, 1<<62)
	if !ok {
		return append(dst, "ERR not enough points"...)
	}
	return fmt.Appendf(dst, "OK %g per hour", slope)
}

func ctlCorrelate(s *Server, dst []byte, a []string) []byte {
	r, err := dashboard.Correlate(s.hist, a[0], a[1], a[2], 0, s.now())
	if err != nil {
		return errOr(dst, err, "")
	}
	return fmt.Appendf(dst, "OK r=%.3f", r)
}

// ctlClone starts a clone job and answers with its id, or lists the jobs.
func ctlClone(s *Server, dst []byte, a []string) []byte {
	if len(a) == 1 && strings.EqualFold(a[0], "status") {
		return s.appendCloneJobs(append(dst, "OK"...))
	}
	if len(a) < 2 {
		return dst
	}
	id, err := s.CloneNodes(a[0], a[1:])
	if err != nil {
		return errOr(dst, err, "")
	}
	return fmt.Appendf(dst, "OK job %d: cloning %s to %d node(s)", id, a[0], len(a)-1)
}

func ctlPower(s *Server, dst []byte, a []string) []byte {
	var err error
	how := strings.ToLower(a[0])
	switch how {
	case "on":
		err = s.PowerOn(a[1])
	case "off":
		err = s.PowerOff(a[1])
	case "cycle":
		err = s.PowerCycle(a[1])
	default:
		return append(append(dst, "ERR unknown power verb "...), a[0]...)
	}
	return errOr(dst, err, "OK "+a[1]+" power "+how)
}

func ctlBIOS(s *Server, dst []byte, a []string) []byte {
	switch strings.ToLower(a[0]) {
	case "settings":
		settings, err := s.BIOSSettings(a[1])
		if err != nil {
			return errOr(dst, err, "")
		}
		return append(append(dst, "OK\n"...), strings.Join(settings, "\n")...)
	case "set":
		if len(a) != 4 {
			return append(dst, "ERR usage: bios set <node> <key> <value>"...)
		}
		return errOr(dst, s.BIOSSet(a[1], a[2], a[3]), "OK set; active after next reboot")
	case "flash":
		if len(a) != 3 {
			return append(dst, "ERR usage: bios flash <node> <version>"...)
		}
		return errOr(dst, s.BIOSFlash(a[1], a[2]), "OK flashed; active after next reboot")
	}
	return append(append(dst, "ERR unknown bios verb "...), a[0]...)
}

// ctlEventlog takes its count only when it is the one argument; anything
// else reads the default.
func ctlEventlog(s *Server, dst []byte, a []string) []byte {
	n, ok := ctlCount(a, 0)
	if !ok {
		return append(append(dst, "ERR bad count "...), a[0]...)
	}
	log := s.engine.Log()
	if len(log) > n {
		log = log[len(log)-n:]
	}
	dst = append(dst, "OK"...)
	for _, f := range log {
		dst = fmt.Appendf(dst, "\n%.1fs %s %s value=%g action=%s", f.At.Seconds(), f.Rule, f.Node, f.Value, f.Action)
		if f.ActionErr != nil {
			dst = fmt.Appendf(dst, " error=%q", f.ActionErr)
		}
	}
	return dst
}

func ctlHistmem(s *Server, dst []byte, a []string) []byte {
	n, ok := ctlCount(a, 0)
	if !ok {
		return dst
	}
	return append(append(dst, "OK\n"...), strings.TrimRight(dashboard.HistoryFootprint(s.hist, n), "\n")...)
}
