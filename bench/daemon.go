package bench

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// BuildDaemon compiles ./cmd/cwxd from the module rooted at root into
// outDir and returns the binary's path. It runs once per invocation,
// untimed.
func BuildDaemon(root, outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(outDir, "cwxd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cwxd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/cwxd: %w\n%s", err, out)
	}
	return bin, nil
}

// freeAddrs asks the kernel for n unused loopback addresses by binding port
// 0 n times and closing the listeners. All n are held open until the last
// is bound: a port closed earlier could be handed out again, and a daemon
// told to serve two planes on one port serves only the first.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("free port: %w", err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// Daemon is one cwxd child process with shipped defaults on free loopback
// ports.
type Daemon struct {
	cmd       *exec.Cmd
	AgentAddr string
	CtlAddr   string
	pprofAddr string
	Started   time.Time // just before exec
	wire      atomic.Int64
	http      *http.Client
	killOnce  sync.Once
}

// StartDaemon execs bin and waits until both of its ports accept. extra is
// appended to the three address flags; nothing else is overridden. The
// daemon's log is discarded: nothing is parsed from it.
func StartDaemon(bin string, extra ...string) (*Daemon, error) {
	addrs, err := freeAddrs(3)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		AgentAddr: addrs[0], CtlAddr: addrs[1], pprofAddr: addrs[2],
		http: &http.Client{Timeout: 10 * time.Second},
	}
	args := append([]string{"-agent-addr", d.AgentAddr, "-ctl-addr", d.CtlAddr, "-pprof", d.pprofAddr}, extra...)
	d.cmd = exec.Command(bin, args...)
	// The kernel kills the daemon when the harness ends, however it ends: a
	// panic in any goroutine, a signal, a SIGKILL from a driver's time-out.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.Started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	for _, addr := range []string{d.AgentAddr, d.CtlAddr, d.pprofAddr} {
		if err := waitListening(addr, 5*time.Second); err != nil {
			d.Kill()
			return nil, err
		}
	}
	return d, nil
}

// waitListening connects to addr until the daemon accepts.
func waitListening(addr string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cwxd did not listen on %s within %s: %w", addr, limit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Pid is the daemon's process id.
func (d *Daemon) Pid() int { return d.cmd.Process.Pid }

// Kill stops the daemon and waits until it has ended.
func (d *Daemon) Kill() {
	d.killOnce.Do(func() {
		d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		d.cmd.Wait()         //nolint:errcheck // killed: the error is the signal
		d.http.CloseIdleConnections()
	})
}

// countedConn counts the bytes that cross one of the daemon's sockets.
type countedConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// Dial opens a connection to one of the daemon's ports whose traffic counts
// towards WireBytes.
func (d *Daemon) Dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return countedConn{Conn: c, n: &d.wire}, nil
}

// WireBytes is the number of bytes written to and read from the daemon's
// agent and ctl sockets so far.
func (d *Daemon) WireBytes() int64 { return d.wire.Load() }

// MemStats reads the daemon's runtime memory statistics from the trailer of
// its heap profile; with gc it forces a collection first, so HeapAlloc is
// the live heap.
func (d *Daemon) MemStats(gc bool) (memStats, error) {
	url := "http://" + d.pprofAddr + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	body, err := d.get(url)
	if err != nil {
		return memStats{}, err
	}
	return parseMemstatsTrailer(body)
}

// Telemetry reads the daemon's counters through the ctl telemetry verb.
// Rendering it asks the serving plane for one status snapshot, which the
// counters it returns already include.
func (d *Daemon) Telemetry() (map[string]float64, error) {
	body, err := CtlDo(d.CtlAddr, "telemetry")
	if err != nil {
		return nil, err
	}
	return parseTelemetry(body), nil
}

func (d *Daemon) get(url string) ([]byte, error) {
	resp, err := d.http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}
