package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
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
func (s *Server) ServeCtl(l net.Listener) error { return serveConns(l, s.serveCtlConn) }

// maxCtlLine bounds a request line. A longer one is answered "ERR request
// line too long", counted in cwx_ctl_long_lines_total, and its connection
// closed: the scanner cannot resynchronize on the next line.
const maxCtlLine = 1 << 20

// keepCtlBuf is the most a connection's answer buffer keeps between
// requests; one large answer (a long history, the telemetry page) does not
// pin its size for the connection's lifetime.
const keepCtlBuf = 64 << 10

// ctlScratch is what answering a request reuses: the request's fields and
// the buffer a live answer is appended into. A connection and a watch
// subscription each keep one for their lifetime.
type ctlScratch struct {
	fields []string
	out    []byte
}

// serveCtlConn reads request lines in place: a line is a slice of the
// scanner's buffer, trimmed and tested for "quit" and "watch" as bytes and
// looked up in the gate table as bytes, so a cached read allocates nothing
// at all. Only a line the table does not hold becomes a string, once.
func (s *Server) serveCtlConn(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 4096), maxCtlLine)
	w := bufio.NewWriter(conn)
	var c ctlScratch
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if bytes.EqualFold(line, []byte("quit")) {
			writeCtlBlock(w, "OK bye", nil) //nolint:errcheck // the connection closes either way
			return
		}
		verb, args := line, []byte(nil)
		if i := bytes.IndexFunc(line, unicode.IsSpace); i >= 0 {
			verb, args = line[:i], line[i:]
		}
		if bytes.EqualFold(verb, []byte("watch")) {
			if s.serveWatch(sc, w, strings.Join(strings.Fields(string(args)), " ")) {
				return // the watch stream consumed the connection
			}
			continue // rejected with an ERR block; keep serving requests
		}
		pub, ok := s.answer(&c, line)
		if writeCtlBlock(w, pub, c.out) != nil || !ok {
			return
		}
		if cap(c.out) > keepCtlBuf {
			c.out = nil
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		mCtlLongLines.Inc()
		writeCtlBlock(w, "ERR request line too long", nil) //nolint:errcheck // the connection closes either way
	}
}

// writeCtlBlock sends one response block — pub followed by out, one of
// them empty — and its terminating dot line. Lines that start with a dot
// are dot-stuffed; a response has none unless "\n." occurs in it, so the
// common one is written as it is.
func writeCtlBlock(w *bufio.Writer, pub string, out []byte) error {
	switch {
	case strings.Contains(pub, "\n."):
		pub = strings.ReplaceAll(pub, "\n.", "\n..")
	case bytes.Contains(out, []byte("\n.")):
		out = bytes.ReplaceAll(out, []byte("\n."), []byte("\n.."))
	}
	w.WriteString(pub)     //nolint:errcheck // bufio errors are sticky: Flush reports them
	w.Write(out)           //nolint:errcheck
	w.WriteString("\n.\n") //nolint:errcheck
	return w.Flush()
}

// answer answers one request line for a connection loop: as a string,
// pub — a cached verb's rendering as its gate published it, or the ERR
// line of a request in error — or, for a live verb, appended into c.out,
// with pub "". A request whose handler panics is answered "ERR internal:
// …" and counted, and ok is false so the caller closes that connection —
// a read must never take the daemon down with it.
func (s *Server) answer(c *ctlScratch, line []byte) (pub string, ok bool) {
	c.out = c.out[:0]
	defer func() {
		if r := recover(); r != nil {
			mCtlPanics.Inc()
			pub, ok, c.out = fmt.Sprint("ERR internal: ", r), false, c.out[:0]
		}
	}()
	if view := s.plane.viewBytes(line); view != nil {
		return view(), true
	}
	return s.dispatchCtl(c, string(line), s.plane.ensure), true
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
// two line slices swap roles each push; they, the request scratch and the
// block buffer are reused for the subscription's lifetime, so a push
// allocates nothing but what a rebuild publishes.
type watchStream struct {
	srv   *Server
	verb  *ctlVerb
	inner []byte   // the watched request
	resp  string   // the response last diffed against
	last  []string // its payload lines
	cur   []string // scratch for the next response's
	req   ctlScratch
	block []byte // the block being pushed
}

// answer renders the watched request. A live verb's answer (journal) is
// kept as a string only when it moved: its lines must outlive the buffer.
func (ws *watchStream) answer() (resp string, ok bool) {
	pub, ok := ws.srv.answer(&ws.req, ws.inner)
	switch {
	case pub != "":
		return pub, ok
	case string(ws.req.out) == ws.resp:
		return ws.resp, ok // a live answer that did not move: no copy
	}
	return string(ws.req.out), ok
}

// start takes the initial snapshot's response and returns the block that
// answers the watch request.
func (ws *watchStream) start(first string) []byte {
	ws.resp, ws.last = first, appendCtlBody(ws.last[:0], first)
	ws.block = append(append(ws.block[:0], "OK watch "...), ws.inner...)
	ws.block = appendPayload(appendWatchGen(ws.block, ws.srv.Generation()), ws.last)
	return ws.block
}

// next renders the view after a hub wake and returns the block to push,
// empty when the view did not move. lost is the hub's word that wakes
// were dropped: the client's view may have silently diverged, so the push
// is the full rendering whether it moved or not. alive is false after a
// panic: the block is its error and the connection is to be closed.
func (ws *watchStream) next(gen uint64, lost bool) (block []byte, alive bool) {
	resp, ok := ws.answer()
	if !ok {
		ws.block = append(ws.block[:0], resp...)
		return ws.block, false
	}
	if resp == ws.resp && !lost {
		return nil, true // the same rendering: generation moved but this view did not
	}
	ws.cur = appendCtlBody(ws.cur[:0], resp)
	kind, moved := serve.BlockUpdate, true
	switch {
	case lost:
		kind = serve.BlockResync
		serve.NoteWatchResync()
		fjournal.Append(0, flight.Entry{Kind: flight.KindWatchResync, Detail: fjournal.Sym(ws.verb.name), TimeNs: int64(ws.srv.now())})
	case ws.verb.watch == watchRefresh:
		kind, moved = serve.BlockRefresh, !slices.Equal(ws.last, ws.cur)
	}
	ws.block = appendWatchGen(append(ws.block[:0], kind...), gen)
	if kind == serve.BlockUpdate {
		head := len(ws.block)
		ws.block = serve.Diff(ws.block, ws.last, ws.cur)
		moved = len(ws.block) > head
	} else {
		ws.block = appendPayload(ws.block, ws.cur)
	}
	ws.resp, ws.last, ws.cur = resp, ws.cur, ws.last
	if !moved {
		return nil, true // rebuilt to the same lines
	}
	serve.NoteWatchPush()
	return ws.block, true
}

// appendWatchGen appends a pushed block's generation to its header.
func appendWatchGen(dst []byte, gen uint64) []byte {
	return strconv.AppendUint(append(dst, " gen="...), gen, 10)
}

// appendPayload appends a pushed block's payload lines, a '\n' before
// each.
func appendPayload(dst []byte, lines []string) []byte {
	for _, l := range lines {
		dst = append(append(dst, '\n'), l...)
	}
	return dst
}

// serveWatch runs one watch subscription until the client sends "quit"
// or hangs up. It reports false when the request was rejected (an ERR
// block has been written and the request loop should continue).
func (s *Server) serveWatch(sc *bufio.Scanner, w *bufio.Writer, inner string) bool {
	writeBlock := func(block []byte) bool { return writeCtlBlock(w, "", block) == nil }
	fields := strings.Fields(inner)
	if len(fields) == 0 {
		writeCtlBlock(w, ctlByName["watch"].usage(), nil) //nolint:errcheck // the request loop sees the error on its next write
		return false
	}
	verb := ctlByName[strings.ToLower(fields[0])]
	if verb == nil || verb.watch == watchNone {
		writeCtlBlock(w, "ERR verb "+fields[0]+" is not watchable", nil) //nolint:errcheck // as above
		return false
	}
	// Subscribe before rendering the initial snapshot: a generation bump
	// racing the snapshot then queues a notification and the first loop
	// turn re-renders, so the client can never be left one change behind.
	hub := s.plane.watchHub()
	sub := hub.Register()
	defer hub.Unregister(sub)
	ws := watchStream{srv: s, verb: verb, inner: []byte(inner)}
	first, ok := ws.answer()
	if strings.HasPrefix(first, "ERR") {
		// After a panic the connection is closed, not kept.
		writeCtlBlock(w, first, nil) //nolint:errcheck // as above
		return !ok
	}
	// The subscription outlives the request loop; watch the connection
	// for EOF or a "quit" line from a goroutine that owns the scanner
	// from here on. A line too long to scan ends the subscription too.
	connStop := make(chan struct{})
	go func() {
		defer close(connStop)
		for sc.Scan() {
			if bytes.EqualFold(bytes.TrimSpace(sc.Bytes()), []byte("quit")) {
				return
			}
		}
		if errors.Is(sc.Err(), bufio.ErrTooLong) {
			mCtlLongLines.Inc()
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
		if len(block) > 0 && !writeBlock(block) || !alive {
			return true
		}
	}
}

// HandleCtl executes one control request and returns the response block
// (without the terminating dot line). The exact request line is tried
// against the serving plane before any parsing, so the steady-state hit
// on a cached view costs a map read and an atomic load — no fields split,
// no allocation. Any other spelling of the request is parsed and answered
// from the same rendering, registered under the canonical one. It is the
// API form of what a connection answers; a live verb's answer is copied
// out of the scratch it was appended into.
//
//cwx:hotpath
func (s *Server) HandleCtl(line string) string {
	if view := s.plane.view(line); view != nil {
		return view()
	}
	return s.handleParsed(line, s.plane.ensure)
}

// HandleCtlUncached executes one control request with the serving plane
// bypassed: every rendering is rebuilt from the live registry and
// history. It is the benchmarks' ablation arm and the differential
// test's oracle — cached answers must match it byte for byte.
func (s *Server) HandleCtlUncached(line string) string {
	return s.handleParsed(line, func(v *ctlVerb, args []string) func() string { return v.open(s.plane, args) })
}

func (s *Server) handleParsed(line string, view func(*ctlVerb, []string) func() string) string {
	var c ctlScratch
	if pub := s.dispatchCtl(&c, line, view); pub != "" {
		return pub
	}
	return string(c.out)
}

// dispatchCtl parses a request line against the verb table and answers
// it as answer does: a cached verb with what view returns — the plane's
// gate for it, or a fresh builder — and a request in error with its ERR
// line, both as pub; a live verb by appending to c.out, with pub "".
func (s *Server) dispatchCtl(c *ctlScratch, line string, view func(*ctlVerb, []string) func() string) (pub string) {
	c.fields = appendFields(c.fields[:0], line)
	if len(c.fields) == 0 {
		return "ERR empty request"
	}
	name, args := strings.ToLower(c.fields[0]), c.fields[1:]
	v := ctlByName[name]
	switch {
	case v == nil:
		return "ERR unknown request " + name
	case len(args) < v.min || v.max >= 0 && len(args) > v.max:
		return v.usage()
	case v.gen != nil:
		return view(v, args)()
	}
	if c.out = v.run(s, c.out[:0], args); len(c.out) == 0 {
		return v.usage()
	}
	return ""
}

// appendFields appends the fields of line — strings.Fields(line) — to dst.
func appendFields(dst []string, line string) []string {
	start := -1
	for i, r := range line {
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			dst, start = append(dst, line[start:i]), -1
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
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
