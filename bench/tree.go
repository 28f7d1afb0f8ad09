package bench

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"
)

// ctlConn is a raw client of cwxd's ctl port: requests are written as
// bytes, several to a write if the caller likes, and responses are scanned
// as bytes. core.CtlClient costs more CPU per script than cwxd does, which
// would make the client the bottleneck of the query workloads.
type ctlConn struct {
	c  net.Conn
	sc *blockScanner
}

// dialCtl opens a ctl connection; counted traffic goes into the slice's
// wire bytes.
func dialCtl(d *Daemon, counted bool) (*ctlConn, error) {
	var c net.Conn
	var err error
	if counted {
		c, err = d.Dial(d.CtlAddr)
	} else {
		c, err = net.DialTimeout("tcp", d.CtlAddr, dialTimeout)
	}
	if err != nil {
		return nil, fmt.Errorf("dial ctl port: %w", err)
	}
	return &ctlConn{c: c, sc: newBlockScanner(c)}, nil
}

// send writes request bytes (newline-terminated lines) in one write.
func (c *ctlConn) send(reqs []byte) error {
	_, err := c.c.Write(reqs)
	return err
}

// next reads one block, failing after barrierLimit.
func (c *ctlConn) next() ([]byte, error) {
	c.c.SetReadDeadline(time.Now().Add(barrierLimit)) //nolint:errcheck // a TCP conn takes deadlines
	return c.sc.Next()
}

// do sends one request and returns its response block.
func (c *ctlConn) do(req string) ([]byte, error) {
	if err := c.send([]byte(req + "\n")); err != nil {
		return nil, err
	}
	b, err := c.next()
	if err != nil {
		return nil, fmt.Errorf("ctl %q: %w", req, err)
	}
	if bytes.HasPrefix(b, []byte("ERR")) {
		return nil, fmt.Errorf("ctl %q: %s", req, b)
	}
	return b, nil
}

func (c *ctlConn) close() { c.c.Close() }

// tree is the two-tier tree of the fed and query workloads: the leaf tier
// hosted in the generator, cwxd as the root, and a watch stream on the
// sentinel node through which the root pushes what it has applied.
type tree struct {
	leaf     *Leaf
	gen      *Gen
	watch    *ctlConn
	nodes    int
	sentinel int   // touched last in every round, carries the round counter
	other    int   // a node outside the sentinel's ingest stripe
	others   []int // every node but the sentinel
	order    []int // others, then the sentinel
	seq      int   // the round counter's last value
	fresh    []Value
}

// newTree connects the leaf to the daemon and loads the tree through the
// uplink: a v1 snap-all that offers the binary wire, then batches. Every
// series gets fullSamples points; the series the read verbs are built from
// get namedSamples more.
func newTree(e *env, withRollup bool, fullSamples, namedSamples int) (*tree, error) {
	conn, err := e.d.Dial(e.d.AgentAddr)
	if err != nil {
		return nil, fmt.Errorf("dial agent port: %w", err)
	}
	t := newLeafTree(NewLeaf(conn, withRollup), e.cfg.Seed, treeNodes)
	// Sample one: a snapshot per node at the leaf, then the first flush,
	// which goes up as v1 per-node frames. cwxd answers the offer they
	// carry and the uplink re-arms a snap-all on the batch wire.
	if err := t.loadSample(loadSnapshot); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(barrierLimit)
	for !t.leaf.Uplink().V2 {
		if time.Now().After(deadline) {
			return nil, errNoV2
		}
		time.Sleep(time.Millisecond)
	}
	if t.watch, err = dialCtl(e.d, true); err != nil {
		return nil, err
	}
	// The watch is refused until the root knows the sentinel; the v1 frames
	// may still be in flight.
	for {
		if err = t.watch.send([]byte("watch values " + nodeName(t.sentinel) + "\n")); err != nil {
			return nil, err
		}
		var b []byte
		if b, err = t.watch.next(); err != nil {
			return nil, fmt.Errorf("open watch: %w", err)
		}
		if !bytes.HasPrefix(b, []byte("ERR")) {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("open watch: %s", b)
		}
		time.Sleep(time.Millisecond)
	}
	for s := 1; s < fullSamples+namedSamples; s++ {
		kind := loadFull
		if s >= fullSamples {
			kind = loadNamed
		}
		if err := t.loadSample(kind); err != nil {
			return nil, err
		}
		if err := t.barrier(); err != nil {
			return nil, fmt.Errorf("preload sample %d: %w", s, err)
		}
	}
	return t, nil
}

// newLeafTree is the tree before anything is loaded or connected.
func newLeafTree(leaf *Leaf, seed int64, nodes int) *tree {
	t := &tree{leaf: leaf, nodes: nodes, gen: NewGen(seed)}
	t.sentinel, t.other = pickSentinel(nodes)
	for i := 0; i < nodes; i++ {
		if i != t.sentinel {
			t.others = append(t.others, i)
		}
	}
	t.order = append(append(t.order, t.others...), t.sentinel)
	return t
}

type loadKind int

const (
	loadSnapshot loadKind = iota // every value, as a snapshot frame
	loadFull                     // every numeric value
	loadNamed                    // the first touchMetrics metrics
)

// loadSample gives every node new values and flushes, sentinel last.
func (t *tree) loadSample(kind loadKind) error {
	t.seq++
	for _, i := range t.order {
		var f Frame
		switch kind {
		case loadSnapshot:
			f = snapshotFrame(nodeName(i), t.gen.Full(i, t.seq))
		case loadFull:
			f = deltaFrame(nodeName(i), t.gen.Full(i, t.seq)[:numMetrics])
		case loadNamed:
			f = deltaFrame(nodeName(i), t.gen.Named(t.seq))
		}
		if err := t.leaf.Ingest(f); err != nil {
			return err
		}
	}
	return t.flush()
}

// flush ticks the rollup and flushes the uplink, as core.UplinkClient does
// once a period.
func (t *tree) flush() error {
	t.leaf.Step()
	t.leaf.RollupTick()
	_, err := t.leaf.Flush()
	return err
}

// touchSentinel changes the sentinel's values at the leaf, stamping the next
// round counter.
func (t *tree) touchSentinel() error {
	t.seq++
	t.fresh = append(t.fresh[:0], t.gen.Named(t.seq)...)
	return t.leaf.Ingest(deltaFrame(nodeName(t.sentinel), t.fresh))
}

// barrier waits until the root pushes the sentinel's current round counter.
// The push is the root's own: nothing polls.
func (t *tree) barrier() error {
	for {
		b, err := t.watch.next()
		if err != nil {
			return fmt.Errorf("barrier %d: %w", t.seq, err)
		}
		v, ok := blockLine(b, roundMetric)
		if !ok {
			continue // a push that did not move the counter
		}
		got, err := strconv.Atoi(string(v))
		if err != nil {
			return fmt.Errorf("barrier %d: counter %q: %w", t.seq, v, err)
		}
		switch {
		case got == t.seq:
			return nil
		case got > t.seq:
			return fmt.Errorf("barrier saw round counter %d, ahead of %d", got, t.seq)
		}
	}
}

// checkSample compares the root's values of up to n nodes, the sentinel
// among them, with the leaf's.
func (t *tree) checkSample(e *env, n int) error {
	var errs []error
	step := max(1, t.nodes/n)
	for i := 0; i < t.nodes; i += step {
		node := i
		if i == 0 {
			node = t.sentinel
		}
		req := "values " + nodeName(node)
		got, err := CtlDo(e.d.CtlAddr, req)
		if err != nil {
			return err
		}
		if want := t.leaf.Ctl(req); got != want {
			errs = append(errs, fmt.Errorf("%s: root and leaf differ:\nroot %q\nleaf %q", req, got, want))
		}
	}
	return errors.Join(errs...)
}

func (t *tree) close() {
	if t.watch != nil {
		t.watch.close()
	}
	t.leaf.Close()
}
