package core

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"clusterworx/internal/flight"
	"clusterworx/internal/serve"
)

// This file implements the control protocol the CLI (and, in the original
// product, the Java GUI tier) speaks to the server: one request line, one
// response block terminated by a lone "." line (response lines that start
// with a dot are dot-stuffed). The first response line is "OK" or
// "ERR <reason>". "quit" ends the session.
//
// The requests are the entries of ctlVerbs (ctlverbs.go): each declares
// its spelling, arity, watch mode and how it is answered, and cwxctl -h
// prints that table. Verbs with a generation source answer from the
// serving plane (plane.go); the rest are answered live.
//
// "watch <verb> [args]" turns a connection into a subscription: the server
// pushes a block whenever the view changes. Key-sorted views push
// change-only "UPDATE" diffs, the others "REFRESH" full renderings, and
// after a slow-consumer overflow the next push is a full "RESYNC".

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

// appendCtlBody appends a response's payload lines to dst — everything
// below the "OK" status line (ERR text is its own payload, so a view that
// starts failing mid-watch still streams coherently). The lines are
// substrings of resp: nothing is copied.
func appendCtlBody(dst []string, resp string) []string {
	if first, rest, ok := strings.Cut(resp, "\n"); first == "OK" || strings.HasPrefix(first, "OK ") {
		if !ok {
			return dst
		}
		resp = rest
	}
	for {
		line, rest, ok := strings.Cut(resp, "\n")
		dst = append(dst, line)
		if !ok {
			return dst
		}
		resp = rest
	}
}

// watchStream is one watch subscription's push state: the response the
// client's view was last brought up to, and its payload lines. The hub
// wakes a subscription for every applied frame, most of which leave its
// view alone: the gate then hands back the very string it handed back
// before, and next answers from that without splitting or diffing it. The
// two line slices swap roles each push and are reused for the
// subscription's lifetime.
type watchStream struct {
	srv   *Server
	verb  *ctlVerb
	inner string   // the watched request
	resp  string   // the response last diffed against
	last  []string // its payload lines
	cur   []string // scratch for the next response's
}

// start takes the initial snapshot's response and returns the block that
// answers the watch request.
func (ws *watchStream) start(first string) string {
	ws.resp, ws.last = first, appendCtlBody(ws.last[:0], first)
	return watchBlock("OK watch "+ws.inner, ws.srv.Generation(), ws.last)
}

// next renders the view after a hub wake and returns the block to push,
// "" when the view did not move. lost is the hub's word that wakes were
// dropped: the client's view may have silently diverged, so the push is
// the full rendering whether it moved or not. alive is false after a
// panic: the block is its error and the connection is to be closed.
func (ws *watchStream) next(gen uint64, lost bool) (block string, alive bool) {
	resp, ok := ws.srv.guardedCtl(ws.inner)
	if !ok {
		return resp, false
	}
	if resp == ws.resp && !lost {
		return "", true // the same rendering: generation moved but this view did not
	}
	ws.cur = appendCtlBody(ws.cur[:0], resp)
	kind, payload, moved := serve.BlockUpdate, ws.cur, true
	switch {
	case lost:
		kind = serve.BlockResync
		serve.NoteWatchResync()
		fjournal.Append(0, flight.Entry{Kind: flight.KindWatchResync, Detail: fjournal.Sym(ws.verb.name), TimeNs: int64(ws.srv.now())})
	case ws.verb.watch == watchRefresh:
		kind, moved = serve.BlockRefresh, !slices.Equal(ws.last, ws.cur)
	default:
		payload = serve.Diff(ws.last, ws.cur)
		moved = payload != nil
	}
	ws.resp, ws.last, ws.cur = resp, ws.cur, ws.last
	if !moved {
		return "", true // rebuilt to the same lines
	}
	serve.NoteWatchPush()
	return watchBlock(kind, gen, payload), true
}

// serveWatch runs one watch subscription until the client sends "quit"
// or hangs up. It reports false when the request was rejected (an ERR
// block has been written and the request loop should continue).
func (s *Server) serveWatch(sc *bufio.Scanner, w *bufio.Writer, inner string) bool {
	writeBlock := func(block string) bool { return writeCtlBlock(w, block) == nil }
	fields := strings.Fields(inner)
	if len(fields) == 0 {
		writeBlock(ctlByName["watch"].usage())
		return false
	}
	verb := ctlByName[strings.ToLower(fields[0])]
	if verb == nil || verb.watch == watchNone {
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
	ws := watchStream{srv: s, verb: verb, inner: inner}
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
	if !writeBlock(ws.start(first)) {
		return true
	}
	for {
		gen, lost, ok := sub.Next(connStop)
		if !ok {
			return true
		}
		block, alive := ws.next(gen, lost)
		if block != "" && !writeBlock(block) || !alive {
			return true
		}
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
// (without the terminating dot line). The exact request line is tried
// against the serving plane before any parsing, so the steady-state hit
// on a cached view costs a map read and an atomic load — no fields split,
// no allocation. Any other spelling of the request is parsed and answered
// from the same rendering, registered under the canonical one.
//
//cwx:hotpath
func (s *Server) HandleCtl(line string) string {
	if view := s.plane.view(line); view != nil {
		return view()
	}
	return s.dispatchCtl(line, s.plane.ensure)
}

// HandleCtlUncached executes one control request with the serving plane
// bypassed: every rendering is rebuilt from the live registry and
// history. It is the benchmarks' ablation arm and the differential
// test's oracle — cached answers must match it byte for byte.
func (s *Server) HandleCtlUncached(line string) string {
	return s.dispatchCtl(line, func(v *ctlVerb, args []string) func() string { return v.open(s.plane, args) })
}

// dispatchCtl parses a request line against the verb table and answers
// it: a request in error or for a live verb here, one for a cached verb
// from what view returns — the plane's gate for it, or a fresh builder.
func (s *Server) dispatchCtl(line string, view func(*ctlVerb, []string) func() string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "ERR empty request"
	}
	name, args := strings.ToLower(fields[0]), fields[1:]
	v := ctlByName[name]
	switch {
	case v == nil:
		return "ERR unknown request " + name
	case len(args) < v.min || v.max >= 0 && len(args) > v.max:
		return v.usage()
	case v.gen != nil:
		return view(v, args)()
	}
	if resp := v.run(s, args); resp != "" {
		return resp
	}
	return v.usage()
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
