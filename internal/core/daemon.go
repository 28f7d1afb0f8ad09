package core

import (
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/events"
	"clusterworx/internal/history"
	"clusterworx/internal/transmit"
)

// This file is a server's lifecycle, one code path for cwxd and for every
// tier of a Sim. A tier's clock is the Sim's and its traffic rides the
// fabric; cwxd's clock is stepped along wall time by Drive and its traffic
// rides TCP, whose dials and writes run on the I/O goroutine so that no
// dead or slow peer stalls the clock, each bounded in time so that none
// stalls the I/O goroutine either.

// ClockStep is the resolution of a hardware daemon's clock: cwxd's driver
// steps it by whole steps, and a restored clock resumes on that grid.
const ClockStep = 100 * time.Millisecond

// DaemonConfig configures a Daemon. Each field is one of cwxd's flags.
type DaemonConfig struct {
	AgentAddr         string        // -agent-addr ("": no listener)
	CtlAddr           string        // -ctl-addr ("": no listener)
	Cluster           string        // -cluster
	SimNodes          int           // -sim-nodes: host a simulated cluster whose server is this one
	Rules             []events.Rule // -rules, parsed
	SelfMonitor       time.Duration // -self-monitor (0 disables)
	Uplink            string        // -uplink: the parent's agent port
	UplinkPeriod      time.Duration // -uplink-period (0 = 1 s): the rollup and flush cadence
	UplinkAntiEntropy time.Duration // -uplink-anti-entropy (0 disables)
	Rollup            string        // -rollup: <agg-name>[,<child-prefix>]
}

// Persist keeps a daemon's history between runs: cwxd's -history-file, or
// a simulated tier's simStore. Load merges what was saved (nothing yet is
// not an error; an error keeps the daemon from starting).
type Persist interface {
	Load(st *history.Store) error
	Save(st *history.Store) error
}

// Daemon runs one Server's lifecycle. Start it once and Stop it once; a
// restart is a new Daemon from the same config and Persist. Its methods
// run where its clock is driven: the Sim's caller, or Drive.
type Daemon struct {
	cfg    DaemonConfig
	srv    *Server
	clk    *clock.Clock
	store  Persist
	rollup *Rollup
	meta   *MetaMonitor
	halted bool

	// Sockets; all nil in a simulated tier.
	ls            [2]net.Listener // agent, ctl
	errc          chan error      // a listener failed
	flushc, savec chan struct{}   // wakes for the I/O goroutine (flushc: with -uplink)
	quit, ioDone  chan struct{}
	conn          net.Conn       // the uplink session's
	served        sync.WaitGroup // the listeners' and the session's goroutines
	tickNs        atomic.Int64   // the wall instant of Drive's last tick, Unix ns
}

// NewDaemon checks cfg and returns a daemon that Start runs.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	if agg, _, _ := strings.Cut(cfg.Rollup, ","); cfg.Rollup != "" && agg == "" {
		return nil, fmt.Errorf("core: rollup %q: aggregate node name is empty (want <agg-name>[,<child-prefix>])", cfg.Rollup)
	}
	if cfg.UplinkPeriod <= 0 {
		cfg.UplinkPeriod = time.Second
	}
	return &Daemon{cfg: cfg}, nil
}

// build gives the daemon its server and what lives as long as it.
func (d *Daemon) build(srv *Server) {
	d.srv = srv
	if agg, kids, _ := strings.Cut(d.cfg.Rollup, ","); agg != "" {
		d.rollup = NewRollup(d.srv, agg, kids)
	}
	if d.cfg.SelfMonitor > 0 {
		d.meta = NewMetaMonitor(d.srv)
	}
}

// Server is the daemon's server (nil before Start outside a Sim).
func (d *Daemon) Server() *Server { return d.srv }

// Start runs the daemon on clk: it merges what store holds (nil: no
// persistence) into the history and resumes the clock at the newest
// restored stamp, so history grows on past the last run's; arms the rules;
// opens the listeners; and runs the periodic jobs on the clock — rollup
// then uplink flush (the first round at once), self-monitor, minute save.
func (d *Daemon) Start(clk *clock.Clock, store Persist) error {
	d.clk, d.store = clk, store
	var sim *Sim
	if d.cfg.SimNodes > 0 {
		var err error
		if sim, err = newSim(SimConfig{Nodes: d.cfg.SimNodes, Cluster: d.cfg.Cluster}, clk); err != nil {
			return err
		}
		d.build(sim.Server)
	}
	if d.srv == nil {
		d.build(NewServer(ServerConfig{Cluster: d.cfg.Cluster, Now: clk.Now}))
	}
	if store != nil {
		if err := store.Load(d.srv.History()); err != nil {
			return err
		}
		if t := newestStamp(d.srv.History()); t > clk.Now() {
			clk.RunUntil((t + ClockStep - 1).Truncate(ClockStep))
		}
	}
	for _, r := range d.cfg.Rules {
		if err := d.srv.Engine().AddRule(r); err != nil {
			return fmt.Errorf("core: rule %s: %w", r.Name, err)
		}
	}
	if err := d.listen(); err != nil {
		return err
	}
	if d.rollup != nil || d.cfg.Uplink != "" || d.srv.UplinkSession() != nil {
		d.forward()
		d.every(d.cfg.UplinkPeriod, d.forward)
	}
	if d.meta != nil {
		d.every(d.cfg.SelfMonitor, d.meta.Tick)
	}
	if store != nil {
		d.every(time.Minute, func() {
			if !wake(d.savec) {
				d.Checkpoint() //nolint:errcheck // a simulated save does not fail
			}
		})
	}
	if sim != nil {
		sim.PowerOnAll()
	}
	return nil
}

// listen opens the sockets the config names and starts what serves them.
func (d *Daemon) listen() error {
	for i, addr := range []string{d.cfg.AgentAddr, d.cfg.CtlAddr} {
		if addr == "" {
			continue
		}
		l, err := net.Listen("tcp", addr)
		if err != nil {
			d.halt()
			return fmt.Errorf("core: listen %s: %w", addr, err)
		}
		d.ls[i] = l
	}
	if d.ls == [2]net.Listener{} && d.cfg.Uplink == "" {
		return nil // a simulated tier
	}
	errc := make(chan error, 2) // one per listener
	d.errc, d.savec = errc, make(chan struct{}, 1)
	if d.cfg.Uplink != "" {
		d.flushc = make(chan struct{}, 1)
	}
	d.quit, d.ioDone = make(chan struct{}), make(chan struct{})
	go d.io()
	for i, serve := range [2]func(net.Listener) error{d.srv.ServeAgents, d.srv.ServeCtl} {
		if l := d.ls[i]; l != nil {
			d.served.Add(1)
			go func() {
				defer d.served.Done()
				errc <- serve(l)
			}()
		}
	}
	return nil
}

// every runs job each period of the daemon's clock, the first one period
// from now, until the daemon halts. Re-arming allocates a timer a round.
func (d *Daemon) every(period time.Duration, job func()) {
	repeat(d.clk, period, func() bool {
		if !d.halted {
			job()
		}
		return !d.halted
	})
}

// repeat runs fn each period of clk, the first one period from now, for
// as long as it returns true.
func repeat(clk *clock.Clock, period time.Duration, fn func() bool) {
	var tick func()
	tick = func() {
		if fn() {
			clk.AfterFunc(period, tick)
		}
	}
	clk.AfterFunc(period, tick)
}

// forward is one round of the rollup chain: fold the subtree aggregate,
// then flush the uplink, so the aggregate rides the batch that carries the
// deltas it summarizes.
func (d *Daemon) forward() {
	if d.rollup != nil {
		d.rollup.Tick()
	}
	if u := d.srv.UplinkSession(); !wake(d.flushc) && u != nil {
		u.Flush(int64(d.clk.Now())) //nolint:errcheck // send failures re-mark; stats carry the count
	}
}

// wake wakes the I/O goroutine through c, coalescing with a wake already
// pending, and reports false when c is nil: there is none to wake.
func wake(c chan struct{}) bool {
	select {
	case c <- struct{}{}:
	default:
	}
	return c != nil
}

// io does a socket daemon's blocking work — dialing and writing to the
// parent, writing checkpoints — off the clock, one wake at a time.
func (d *Daemon) io() {
	defer close(d.ioDone)
	for {
		select {
		case <-d.quit:
			return
		case <-d.flushc:
			u := d.srv.UplinkSession()
			if u == nil {
				u = d.dial()
			}
			if u != nil {
				u.Flush(int64(d.clk.Now())) //nolint:errcheck // a failed write ends the session
			}
		case <-d.savec:
			d.Checkpoint() //nolint:errcheck // the store reports its own failures
		}
	}
}

// dial opens a session to the parent: a new connection is a new Uplink,
// so negotiation and full state start over with a parent that may never
// have seen this child. A dead parent costs one attempt per period. A
// parent that stops reading ends the session once a write has waited a
// period (a second at least) past the tick that asked for it, so a wedged
// parent is redialed and never holds up a save or a Stop.
func (d *Daemon) dial() *Uplink {
	conn, err := net.DialTimeout("tcp", d.cfg.Uplink, d.cfg.UplinkPeriod)
	if err != nil {
		return nil
	}
	d.conn = conn
	w := transmit.NewWriter(conn, true)
	u := NewUplink(d.srv, UplinkConfig{AntiEntropy: d.cfg.UplinkAntiEntropy, Send: func(p []byte) (err error) {
		if t := d.tickNs.Load(); t != 0 {
			conn.SetWriteDeadline(time.Unix(0, t).Add(max(d.cfg.UplinkPeriod, time.Second))) //nolint:errcheck // a closed conn fails the write below
		}
		if transmit.IsV2Payload(p) { // already dictionary/XOR-coded: no deflate
			err = w.WriteFrameRaw(p)
		} else {
			err = w.WriteFrame(p)
		}
		if err != nil {
			conn.Close() // its reader ends the session
		}
		return err
	}})
	d.srv.SetUplink(u)
	d.served.Add(1)
	go func() { // the session's control reader, which ends it with the connection
		defer d.served.Done()
		readControl(conn, func(ctl []byte) { u.HandleControl(ctl, int64(d.clk.Now())) })
		conn.Close()
		d.srv.uplink.CompareAndSwap(u, nil)
	}()
	return u
}

// Drive runs the daemon's clock from the calling goroutine until stop
// fires or a listener fails, and then stops the daemon. Each tick calls
// step, which moves the clock, and is the wall instant uplink writes are
// timed from. Nothing else steps the clock: other goroutines only schedule
// on it — a clone job started over the control port starts at the next
// step — so one goroutine alone drives it.
func (d *Daemon) Drive(tick <-chan time.Time, stop <-chan os.Signal, step func()) error {
	for {
		select {
		case t := <-tick:
			d.tickNs.Store(t.UnixNano())
			step()
		case err := <-d.errc:
			d.Stop() //nolint:errcheck // the listener's failure is the one to report
			return err
		case <-stop:
			return d.Stop()
		}
	}
}

// Checkpoint saves the history now (without a Persist, it has nowhere to).
func (d *Daemon) Checkpoint() error {
	if d.store == nil {
		return nil
	}
	return d.store.Save(d.srv.History())
}

// Stop drains the daemon as cwxd does on SIGTERM: it stops accepting and
// ends the periodic jobs, flushes the uplink a last time, and saves. It
// returns once the daemon's goroutines have.
func (d *Daemon) Stop() error {
	d.halt()
	if u := d.srv.UplinkSession(); u != nil {
		u.Flush(int64(d.clk.Now())) //nolint:errcheck // a parent that is gone misses the last round
	}
	if d.conn != nil {
		d.conn.Close()
	}
	d.served.Wait()
	return d.Checkpoint()
}

// halt ends the daemon with no last flush and no last save, as kill -9
// would; its peers see their sessions drop.
func (d *Daemon) halt() {
	d.halted = true
	for _, l := range d.ls {
		if l != nil {
			l.Close()
		}
	}
	if d.quit != nil {
		close(d.quit)
		<-d.ioDone
	}
}

// newestStamp is the newest point in st.
func newestStamp(st *history.Store) time.Duration {
	var newest time.Duration
	for _, node := range st.Nodes() {
		for _, metric := range st.Metrics(node) {
			if p, ok := st.Series(node, metric).Last(); ok && p.T > newest {
				newest = p.T
			}
		}
	}
	return newest
}
