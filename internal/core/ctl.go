package core

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"clusterworx/internal/dashboard"
	"clusterworx/internal/flight"
	"clusterworx/internal/serve"
	"clusterworx/internal/telemetry"
)

// This file implements the control protocol the CLI (and, in the original
// product, the Java GUI tier) speaks to the server: one request line, one
// response block terminated by a lone "." line. The first response line is
// "OK" or "ERR <reason>".
//
// Requests:
//
//	ping
//	status                      monitoring screen rows
//	nodes                       registered node names
//	values <node>               current monitor values
//	value <node> <metric>       one monitor value
//	history <node> <metric> [n] most recent n points (default 20)
//	trend <node> <metric>       least-squares slope per hour
//	power on|off|cycle <node>   outlet control via the node's ICE Box
//	reset <node>                reset line
//	console <node>              post-mortem serial buffer
//	rules                       event rules
//	eventlog [n]                most recent firings
//	images                      image library
//	chart <node> <metric>       ASCII historical graph (the GUI view)
//	spark <node> <metric>       one-line sparkline
//	compare <metric>            per-node stats + mean bars
//	efficiency                  cluster utilization report
//	correlate <node> <m1> <m2>  Pearson correlation of two metrics
//	bios settings|set|flash ... remote LinuxBIOS management (§2)
//	clone <imageID> <node...>   multicast-clone an image to nodes (§4)
//	telemetry                   self-monitoring metrics (Prometheus text)
//	trace [-json] [node]        latest pipeline span breakdown per node,
//	                            with the worst-traced-ingest exemplar link
//	journal [-json] [since <seq>]  flight-recorder ring: structured records
//	                            of traced hops, gaps, resyncs, firings,
//	                            retries, gate rebuilds (internal/flight)
//	flight [-json] <trace|node> span tree of one sampled frame: every
//	                            journal record under a trace id (or the
//	                            node's most recent trace)
//	selfmon                     meta-monitor series panel (sparklines)
//	histmem [n]                 history memory ledger (top n series, default 20)
//	sync                        per-node delta-protocol sync state
//	watch <verb> [args]         subscribe to a view; the server pushes a
//	                            block whenever it changes (streaming
//	                            connections only). Key-sorted views
//	                            (status, nodes, values, compare, selfmon,
//	                            sync, journal) push change-only "UPDATE" diffs;
//	                            efficiency and chart push "REFRESH" full
//	                            renderings; after a slow-consumer overflow
//	                            the next push is a full "RESYNC". Send
//	                            "quit" to stop watching.
//
// Read verbs answer from the serving plane (internal/serve): renderings
// are cached behind generation gates and a hit returns the prebuilt
// string without parsing, locking, or allocating. HandleCtlUncached
// bypasses the plane (the benchmarks' ablation and the differential
// test's oracle).

// ServeCtl accepts control connections until the listener closes.
func (s *Server) ServeCtl(l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			s.serveCtlConn(conn)
		}()
	}
}

func (s *Server) serveCtlConn(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 4096), 1<<20)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "quit") {
			writeCtlBlock(w, "OK bye") //nolint:errcheck // the connection closes either way
			return
		}
		// The verb is tested in place: a cached read pays for nothing here
		// but the request line itself.
		verb, args := line, ""
		if i := strings.IndexFunc(line, unicode.IsSpace); i >= 0 {
			verb, args = line[:i], line[i:]
		}
		if strings.EqualFold(verb, "watch") {
			if s.serveWatch(sc, w, strings.Join(strings.Fields(args), " ")) {
				return // the watch stream consumed the connection
			}
			continue // rejected with an ERR block; keep serving requests
		}
		resp, ok := s.guardedCtl(line)
		if writeCtlBlock(w, resp) != nil || !ok {
			return
		}
	}
}

// writeCtlBlock sends one response block and its terminating dot line.
// Lines that start with a dot are dot-stuffed; a response has none
// unless "\n." occurs in it, so the common one is written as it is.
func writeCtlBlock(w *bufio.Writer, block string) error {
	if strings.Contains(block, "\n.") {
		block = strings.ReplaceAll(block, "\n.", "\n..")
	}
	w.WriteString(block)   //nolint:errcheck // bufio errors are sticky: Flush reports them
	w.WriteString("\n.\n") //nolint:errcheck
	return w.Flush()
}

// guardedCtl is HandleCtl for the connection loops: a request whose
// handler panics is answered "ERR internal: …" and counted, and ok is
// false so the caller closes that connection — a read must never take
// the daemon down with it.
func (s *Server) guardedCtl(line string) (resp string, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			mCtlPanics.Inc()
			resp, ok = fmt.Sprint("ERR internal: ", r), false
		}
	}()
	return s.HandleCtl(line), true
}

// watchMode classifies a verb for watching: diffable views are key-sorted
// line lists (first field a stable node/metric key) pushed as change-only
// diffs; refresh views (efficiency's value-sorted ranking, chart's grid)
// are re-pushed wholesale when their bytes change.
func watchMode(verb string) (diffable, ok bool) {
	switch verb {
	case "status", "nodes", "values", "compare", "selfmon", "sync", "journal":
		return true, true
	case "efficiency", "chart":
		return false, true
	}
	return false, false
}

// ctlBody splits a response into its payload lines — everything below
// the "OK" status line (ERR text is its own payload, so a view that
// starts failing mid-watch still streams coherently).
func ctlBody(resp string) []string {
	lines := strings.Split(resp, "\n")
	if lines[0] == "OK" || strings.HasPrefix(lines[0], "OK ") {
		return lines[1:]
	}
	return lines
}

// serveWatch runs one watch subscription until the client sends "quit"
// or hangs up. It reports false when the request was rejected (an ERR
// block has been written and the request loop should continue).
func (s *Server) serveWatch(sc *bufio.Scanner, w *bufio.Writer, inner string) bool {
	writeBlock := func(block string) bool { return writeCtlBlock(w, block) == nil }
	fields := strings.Fields(inner)
	if len(fields) == 0 {
		writeBlock("ERR usage: watch <verb> [args]")
		return false
	}
	diffable, ok := watchMode(strings.ToLower(fields[0]))
	if !ok {
		writeBlock("ERR verb " + fields[0] + " is not watchable")
		return false
	}
	// Subscribe before rendering the initial snapshot: a generation bump
	// racing the snapshot then queues a notification and the first loop
	// turn re-renders, so the client can never be left one change behind.
	hub := s.plane.watchHub()
	sub := hub.Register()
	defer hub.Unregister(sub)
	first, ok := s.guardedCtl(inner)
	if strings.HasPrefix(first, "ERR") {
		writeBlock(first)
		return !ok // after a panic the connection is closed, not kept
	}
	// The subscription outlives the request loop; watch the connection
	// for EOF or a "quit" line from a goroutine that owns the scanner
	// from here on.
	connStop := make(chan struct{})
	go func() {
		defer close(connStop)
		for sc.Scan() {
			if strings.EqualFold(strings.TrimSpace(sc.Text()), "quit") {
				return
			}
		}
	}()
	last := ctlBody(first)
	if !writeBlock(watchBlock("OK watch "+inner, s.Generation(), last)) {
		return true
	}
	for {
		gen, lost, ok := sub.Next(connStop)
		if !ok {
			return true
		}
		resp, ok := s.guardedCtl(inner)
		if !ok {
			writeBlock(resp)
			return true
		}
		cur := ctlBody(resp)
		var kind string
		var payload []string
		switch {
		case lost:
			// Continuity lost (bounded queue overflowed): the client's
			// view may have silently diverged, push the full rendering.
			kind, payload = serve.BlockResync, cur
			serve.NoteWatchResync()
			fjournal.Append(0, flight.Entry{Kind: flight.KindWatchResync, Detail: fjournal.Sym(strings.ToLower(fields[0])), TimeNs: int64(s.now())})
		case !diffable:
			if slices.Equal(last, cur) {
				continue
			}
			kind, payload = serve.BlockRefresh, cur
		default:
			ops := serve.Diff(last, cur)
			if ops == nil {
				continue // generation moved but this view did not
			}
			kind, payload = serve.BlockUpdate, ops
		}
		last = cur
		if !writeBlock(watchBlock(kind, gen, payload)) {
			return true
		}
		serve.NoteWatchPush()
	}
}

// watchBlock assembles one pushed block: a header carrying the
// generation, then the payload lines.
func watchBlock(head string, gen uint64, payload []string) string {
	var b strings.Builder
	b.WriteString(head)
	b.WriteString(" gen=")
	b.WriteString(strconv.FormatUint(gen, 10))
	for _, l := range payload {
		b.WriteByte('\n')
		b.WriteString(l)
	}
	return b.String()
}

// HandleCtl executes one control request and returns the response block
// (without the terminating dot line). Read verbs answer from the serving
// plane: the exact request line is tried against the rendering cache
// before any parsing, so the steady-state hit costs a map read and an
// atomic load — no fields split, no allocation.
//
//cwx:hotpath
func (s *Server) HandleCtl(line string) string {
	if resp, ok := s.plane.cached(line); ok {
		return resp
	}
	return s.handleCtl(line, true)
}

// HandleCtlUncached executes one control request with the serving plane
// bypassed: every rendering is rebuilt from the live registry and
// history. It is the benchmarks' ablation arm and the differential
// test's oracle — cached answers must match it byte for byte.
func (s *Server) HandleCtlUncached(line string) string {
	return s.handleCtl(line, false)
}

func (s *Server) handleCtl(line string, cacheable bool) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "ERR empty request"
	}
	cmd := strings.ToLower(fields[0])
	switch cmd {
	case "ping":
		return "OK pong"

	case "status":
		if cacheable {
			return s.plane.statusSnapshot().rendered
		}
		return s.plane.buildStatus(nil).rendered

	case "nodes":
		if cacheable {
			return s.plane.nodes.Get()
		}
		return s.plane.buildNodes()

	case "values":
		if len(fields) != 2 {
			return "ERR usage: values <node>"
		}
		if cacheable {
			if g := s.plane.ensureKeyed(line, cmd, fields); g != nil {
				return g.Get()
			}
		}
		return s.plane.buildValues(fields[1])

	case "value":
		if len(fields) != 3 {
			return "ERR usage: value <node> <metric>"
		}
		v, ok := s.NodeValue(fields[1], fields[2])
		if !ok {
			return fmt.Sprintf("ERR no value %s on %s", fields[2], fields[1])
		}
		var scratch [64]byte
		return string(appendValue(append(scratch[:0], "OK "...), v))

	case "history":
		if len(fields) < 3 || len(fields) > 4 {
			return "ERR usage: history <node> <metric> [n]"
		}
		n := 20
		if len(fields) == 4 {
			parsed, err := strconv.Atoi(fields[3])
			if err != nil || parsed <= 0 {
				return "ERR bad count " + fields[3]
			}
			n = parsed
		}
		series := s.hist.Series(fields[1], fields[2])
		if series == nil {
			return fmt.Sprintf("ERR no history for %s %s", fields[1], fields[2])
		}
		pts := series.Tail(n)
		b := make([]byte, 0, 2+24*len(pts))
		b = append(b, "OK"...)
		for _, p := range pts {
			b = dashboard.AppendFloat(append(b, '\n'), p.T.Seconds(), 0, 3)
			b = strconv.AppendFloat(append(b, ' '), p.V, 'g', -1, 64)
		}
		return string(b)

	case "trend":
		if len(fields) != 3 {
			return "ERR usage: trend <node> <metric>"
		}
		series := s.hist.Series(fields[1], fields[2])
		if series == nil {
			return fmt.Sprintf("ERR no history for %s %s", fields[1], fields[2])
		}
		slope, ok := series.Trend(0, 1<<62)
		if !ok {
			return "ERR not enough points"
		}
		return fmt.Sprintf("OK %g per hour", slope)

	case "power":
		if len(fields) != 3 {
			return "ERR usage: power on|off|cycle <node>"
		}
		var err error
		switch strings.ToLower(fields[1]) {
		case "on":
			err = s.PowerOn(fields[2])
		case "off":
			err = s.PowerOff(fields[2])
		case "cycle":
			err = s.PowerCycle(fields[2])
		default:
			return "ERR unknown power verb " + fields[1]
		}
		if err != nil {
			return "ERR " + err.Error()
		}
		return fmt.Sprintf("OK %s power %s", fields[2], strings.ToLower(fields[1]))

	case "reset":
		if len(fields) != 2 {
			return "ERR usage: reset <node>"
		}
		if err := s.Reset(fields[1]); err != nil {
			return "ERR " + err.Error()
		}
		return "OK " + fields[1] + " reset"

	case "console":
		if len(fields) != 2 {
			return "ERR usage: console <node>"
		}
		data, err := s.Console(fields[1])
		if err != nil {
			return "ERR " + err.Error()
		}
		return "OK console dump follows\n" + string(data)

	case "rules":
		var b strings.Builder
		b.WriteString("OK")
		for _, r := range s.engine.Rules() {
			fmt.Fprintf(&b, "\n%s", r)
		}
		return b.String()

	case "eventlog":
		n := 20
		if len(fields) == 2 {
			parsed, err := strconv.Atoi(fields[1])
			if err != nil || parsed <= 0 {
				return "ERR bad count " + fields[1]
			}
			n = parsed
		}
		log := s.engine.Log()
		if len(log) > n {
			log = log[len(log)-n:]
		}
		var b strings.Builder
		b.WriteString("OK")
		for _, f := range log {
			fmt.Fprintf(&b, "\n%.1fs %s %s value=%g action=%s", f.At.Seconds(), f.Rule, f.Node, f.Value, f.Action)
			if f.ActionErr != nil {
				fmt.Fprintf(&b, " error=%q", f.ActionErr)
			}
		}
		return b.String()

	case "images":
		ids := s.images.List()
		sort.Strings(ids)
		return "OK\n" + strings.Join(ids, "\n")

	case "chart":
		if len(fields) != 3 {
			return "ERR usage: chart <node> <metric>"
		}
		if cacheable {
			if g := s.plane.ensureKeyed(line, cmd, fields); g != nil {
				return g.Get()
			}
		}
		return s.plane.buildChart(fields[1], fields[2])

	case "spark":
		if len(fields) != 3 {
			return "ERR usage: spark <node> <metric>"
		}
		if cacheable {
			if g := s.plane.ensureKeyed(line, cmd, fields); g != nil {
				return g.Get()
			}
		}
		return s.plane.buildSpark(fields[1], fields[2])

	case "compare":
		if len(fields) != 2 {
			return "ERR usage: compare <metric>"
		}
		if cacheable {
			if g := s.plane.ensureKeyed(line, cmd, fields); g != nil {
				return g.Get()
			}
		}
		return s.plane.buildCompare(new(dashboard.View), fields[1])

	case "correlate":
		if len(fields) != 4 {
			return "ERR usage: correlate <node> <metric1> <metric2>"
		}
		r, err := dashboard.Correlate(s.hist, fields[1], fields[2], fields[3], 0, s.now())
		if err != nil {
			return "ERR " + err.Error()
		}
		return fmt.Sprintf("OK r=%.3f", r)

	case "clone":
		if len(fields) < 3 {
			return "ERR usage: clone <imageID> <node> [node...]"
		}
		summary, err := s.CloneNodes(fields[1], fields[2:])
		if err != nil {
			return "ERR " + err.Error()
		}
		return "OK " + summary

	case "efficiency":
		if cacheable {
			return s.plane.efficiency.Get()
		}
		return s.plane.buildEfficiency(new(dashboard.View))

	case "telemetry":
		var b strings.Builder
		b.WriteString("OK\n")
		s.WriteTelemetry(&b) //nolint:errcheck // strings.Builder cannot fail
		return strings.TrimRight(b.String(), "\n")

	case "trace":
		args, asJSON := stripJSONFlag(fields[1:])
		if len(args) > 1 {
			return "ERR usage: trace [-json] [node]"
		}
		var snaps []telemetry.SpanSnapshot
		if len(args) == 1 {
			snap, ok := telemetry.Spans.Lookup(args[0])
			if !ok {
				return "ERR no trace for node " + args[0]
			}
			snaps = []telemetry.SpanSnapshot{snap}
		} else {
			snaps = telemetry.Spans.Snapshot()
		}
		if asJSON {
			return ctlTraceJSON(snaps)
		}
		if len(snaps) == 0 {
			return "OK (no spans recorded)"
		}
		return "OK\n" + strings.TrimRight(renderSpans(snaps), "\n") + traceExemplarFooter()

	case "journal":
		return s.ctlJournal(fields[1:])

	case "flight":
		return s.ctlFlight(fields[1:])

	case "sync":
		if cacheable {
			return s.plane.syncv.Get()
		}
		return s.plane.buildSync()

	case "selfmon":
		if cacheable {
			return s.plane.selfmon.Get()
		}
		return s.plane.buildSelfmon()

	case "histmem":
		n := 20
		if len(fields) == 2 {
			parsed, err := strconv.Atoi(fields[1])
			if err != nil || parsed < 1 {
				return "ERR usage: histmem [n]"
			}
			n = parsed
		} else if len(fields) > 2 {
			return "ERR usage: histmem [n]"
		}
		out := dashboard.HistoryFootprint(s.hist, n)
		return "OK\n" + strings.TrimRight(out, "\n")

	case "bios":
		if len(fields) < 3 {
			return "ERR usage: bios settings|set|flash <node> [...]"
		}
		switch strings.ToLower(fields[1]) {
		case "settings":
			settings, err := s.BIOSSettings(fields[2])
			if err != nil {
				return "ERR " + err.Error()
			}
			return "OK\n" + strings.Join(settings, "\n")
		case "set":
			if len(fields) != 5 {
				return "ERR usage: bios set <node> <key> <value>"
			}
			if err := s.BIOSSet(fields[2], fields[3], fields[4]); err != nil {
				return "ERR " + err.Error()
			}
			return "OK set; active after next reboot"
		case "flash":
			if len(fields) != 4 {
				return "ERR usage: bios flash <node> <version>"
			}
			if err := s.BIOSFlash(fields[2], fields[3]); err != nil {
				return "ERR " + err.Error()
			}
			return "OK flashed; active after next reboot"
		default:
			return "ERR unknown bios verb " + fields[1]
		}

	case "watch":
		return "ERR watch needs a streaming connection (use cwxctl watch)"

	default:
		return "ERR unknown request " + cmd
	}
}

// CtlClient is the client side of the control protocol.
type CtlClient struct {
	conn net.Conn
	br   *bufio.Reader
}

// DialCtl connects to a server's control port.
func DialCtl(addr string, timeout time.Duration) (*CtlClient, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &CtlClient{conn: conn, br: bufio.NewReader(conn)}, nil
}

// Send writes one request line without waiting for a response. Watch
// clients use it to enter streaming mode (and to send the "quit" that
// leaves it); request/response callers use Do.
func (c *CtlClient) Send(req string) error {
	_, err := fmt.Fprintf(c.conn, "%s\n", req)
	return err
}

// ReadBlock reads one dot-terminated block, raw: pushed watch blocks and
// "ERR" responses are returned as content, not converted to errors.
func (c *CtlClient) ReadBlock() (string, error) {
	var b strings.Builder
	for {
		line, err := c.br.ReadString('\n')
		if err != nil {
			return "", err
		}
		line = strings.TrimRight(line, "\n")
		if line == "." {
			break
		}
		if strings.HasPrefix(line, "..") {
			line = line[1:]
		}
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(line)
	}
	return b.String(), nil
}

// Do sends one request and returns the response body (first line "OK..."
// stripped of nothing — callers get the raw block minus the dot
// terminator). An "ERR" first line is returned as an error.
func (c *CtlClient) Do(req string) (string, error) {
	if err := c.Send(req); err != nil {
		return "", err
	}
	resp, err := c.ReadBlock()
	if err != nil {
		return "", err
	}
	if strings.HasPrefix(resp, "ERR") {
		return "", fmt.Errorf("core: server: %s", strings.TrimPrefix(strings.TrimPrefix(resp, "ERR"), " "))
	}
	return resp, nil
}

// Close ends the session.
func (c *CtlClient) Close() error {
	fmt.Fprintf(c.conn, "quit\n") //nolint:errcheck // best-effort goodbye
	return c.conn.Close()
}
