package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/consolidate"
	"clusterworx/internal/core"
	"clusterworx/internal/flight"
	"clusterworx/internal/history"
	"clusterworx/internal/transmit"
)

// TestStepClockStaysOnTheGrid drives the wall-clock driver's loop body with
// the elapsed times a real ticker hands it — each a little past its tick,
// two in one step, one a quarter of a second late — and reads the clock as
// ingest does: every reading is a whole number of steps, no reading is
// before the one it follows, and a late tick catches up to the step the
// wall has reached, not the one after the last.
func TestStepClockStaysOnTheGrid(t *testing.T) {
	clk := clock.New()
	us, ms := time.Microsecond, time.Millisecond
	prev := clk.Now()
	for _, c := range []struct{ elapsed, want time.Duration }{
		{100*ms + 37*us, 100 * ms},
		{200*ms + 1200*us, 200 * ms},
		{200*ms + 99*ms, 200 * ms},  // woken twice inside one step
		{300*ms + 250*ms, 500 * ms}, // the 300 ms tick, 250 ms late
		{600*ms + 5*us, 600 * ms},
		{700 * ms, 700 * ms},
		{3*time.Second + 999*us, 3 * time.Second}, // the process was stopped for a while
	} {
		stepClock(clk, c.elapsed)
		now := clk.Now()
		if now != c.want || now%core.ClockStep != 0 || now < prev {
			t.Fatalf("after %v of wall time the clock reads %v (it read %v before), want %v", c.elapsed, now, prev, c.want)
		}
		prev = now
	}
}

// TestStepClockLeavesAClockAhead: a clock that reads past the wall (one
// advanced by hand here) is neither run backwards nor moved off the
// instant it reads; the driver takes it back onto the grid at the next
// whole step the wall reaches.
func TestStepClockLeavesAClockAhead(t *testing.T) {
	clk := clock.New()
	ms := time.Millisecond
	stepClock(clk, 200*ms)
	clk.Advance(1034 * ms)
	for _, c := range []struct{ elapsed, want time.Duration }{
		{1100 * ms, 1234 * ms},
		{1200*ms + 7*ms, 1234 * ms},
		{1300*ms + 3*ms, 1300 * ms},
	} {
		stepClock(clk, c.elapsed)
		if now := clk.Now(); now != c.want {
			t.Fatalf("after %v of wall time the clock reads %v, want %v", c.elapsed, now, c.want)
		}
	}
}

// TestSaveHistoryFailureKeepsPrevious: a save that fails part-way — a full
// disk, a store error — leaves the previous snapshot as it was and no temp
// file behind; a save that succeeds replaces it.
func TestSaveHistoryFailureKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.txt")
	write := func(body string, fail error) func(io.Writer) error {
		return func(w io.Writer) error {
			if _, err := io.WriteString(w, body); err != nil {
				return err
			}
			return fail
		}
	}
	read := func() string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if err := saveHistory(write("first\n", nil), path); err != nil {
		t.Fatal(err)
	}
	errFull := errors.New("disk full")
	if err := saveHistory(write("half of the sec", errFull), path); !errors.Is(err, errFull) {
		t.Fatalf("failed save returned %v", err)
	}
	if got := read(); got != "first\n" {
		t.Fatalf("after a failed save the snapshot reads %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed save left its temp file: %v", err)
	}
	if err := saveHistory(write("second\n", nil), path); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "second\n" {
		t.Fatalf("after a good save the snapshot reads %q", got)
	}
}

// startDaemon starts a daemon with no sockets on a fresh clock, its
// history in the file at path.
func startDaemon(t *testing.T, path string) (*core.Daemon, *clock.Clock) {
	t.Helper()
	d, err := core.NewDaemon(core.DaemonConfig{Cluster: "test"})
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.New()
	if err := d.Start(clk, historyFile(path)); err != nil {
		t.Fatal(err)
	}
	return d, clk
}

// TestRestartResumesHistory: history saved by one process keeps growing in
// the next. The old process saved 100 samples at 1…100 s; the new daemon
// restores them, starts its clock where they end, and ingests a sample
// each second for 50 s. A clock that started again at 0 stamps all 50
// before the newest saved point, and the series drops them.
func TestRestartResumesHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.txt")
	old := history.NewStore(0)
	for i := 1; i <= 100; i++ {
		old.Append("node001", "load.1", time.Duration(i)*time.Second, float64(i))
	}
	if err := saveHistory(old.SaveTo, path); err != nil {
		t.Fatal(err)
	}

	d, clk := startDaemon(t, path)
	origin := clk.Now()
	for i := 1; i <= 50; i++ {
		stepClock(clk, origin+time.Duration(i)*time.Second)
		d.Server().HandleValues("node001", []consolidate.Value{consolidate.NumValue("load.1", consolidate.Dynamic, float64(100+i))})
	}
	s := d.Server().History().Series("node001", "load.1")
	last, _ := s.Last()
	if origin != 100*time.Second || s.Len() != 150 || last.T != 150*time.Second {
		t.Fatalf("clock resumed at %v; the series holds %d points ending at %v, want 150 ending at 150s", origin, s.Len(), last.T)
	}
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}

	// A newest stamp between two steps (a free-running clock's) resumes
	// the clock at the next step, not the one before it.
	old.Append("node001", "load.1", 100*time.Second+1234*time.Microsecond, 0)
	if err := saveHistory(old.SaveTo, path); err != nil {
		t.Fatal(err)
	}
	if _, clk := startDaemon(t, path); clk.Now() != 100100*time.Millisecond {
		t.Fatalf("after an off-grid stamp the clock resumes at %v, want 100.1s", clk.Now())
	}
}

// TestUnreadableHistoryKept: a snapshot that does not load — cut short
// mid-block, or in a format this build does not read — is kept byte for
// byte as <path>.unreadable, and the daemon's save writes a fresh snapshot
// beside it instead of over it.
func TestUnreadableHistoryKept(t *testing.T) {
	saved := history.NewStore(0)
	for i := 1; i <= 40; i++ {
		for _, node := range []string{"a", "b", "c"} {
			saved.Append(node, "load.1", time.Duration(i)*time.Second, float64(i%9))
		}
	}
	var good bytes.Buffer
	if err := saved.SaveTo(&good); err != nil {
		t.Fatal(err)
	}
	body := good.Bytes()
	for name, bad := range map[string][]byte{
		"truncated":    body[:bytes.LastIndex(body, []byte("block "))+10],
		"wrong header": append([]byte("clusterworx-history v3"), body[bytes.IndexByte(body, '\n'):]...),
	} {
		path := filepath.Join(t.TempDir(), "history.txt")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		d, _ := startDaemon(t, path)
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if kept, err := os.ReadFile(path + ".unreadable"); err != nil || !bytes.Equal(kept, bad) {
			t.Fatalf("%s: the unreadable file was not kept as it was (%v)", name, err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		err = history.NewStore(0).LoadFrom(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: the save after it does not load: %v", name, err)
		}
	}
}

// TestSIGTERMDrainsAndSaves runs cwxd as a process (this test binary, with
// its arguments in CWXD_ARGS) with a history file, feeds it a node's
// samples over the agent port, and sends SIGTERM: the process exits 0 and
// the file holds the last sample, though no minute save came due.
func TestSIGTERMDrainsAndSaves(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "history.txt")
	var addrs [2]string
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CWXD_ARGS=-agent-addr "+addrs[0]+" -ctl-addr "+addrs[1]+" -history-file "+path+" -self-monitor 0")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // already gone when the test passes
	var agent *core.AgentConn
	var ctl *core.CtlClient
	for deadline := time.Now().Add(10 * time.Second); agent == nil || ctl == nil; time.Sleep(10 * time.Millisecond) {
		var err error
		if agent == nil {
			agent, err = core.DialAgent(addrs[0], time.Second)
		}
		if ctl == nil && err == nil {
			ctl, err = core.DialCtl(addrs[1], time.Second)
		}
		if err != nil && time.Now().After(deadline) {
			t.Fatalf("cwxd never listened: %v", err)
		}
	}
	defer agent.Close()
	defer ctl.Close()
	agent.OnResync(func(string) {})
	for seq, v := range []float64{0.25, 0.5, 0.75} {
		f := transmit.Frame{Node: "node001", Seq: uint64(seq + 1), Kind: transmit.FrameDelta, Values: []consolidate.Value{consolidate.NumValue("load.1", consolidate.Dynamic, v)}}
		if seq == 0 {
			f.Kind = transmit.FrameSnapshot
		}
		if err := agent.SendFrame(f); err != nil {
			t.Fatal(err)
		}
		time.Sleep(150 * time.Millisecond) // the next sample lands a clock step later
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := ctl.Do("value node001 load.1"); err == nil && strings.Contains(resp, "0.75") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cwxd never ingested the last sample")
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("cwxd on SIGTERM: %v, want exit 0", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cwxd did not exit within 10 s of SIGTERM")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st := history.NewStore(0)
	if err := st.LoadFrom(f); err != nil {
		t.Fatal(err)
	}
	if last, ok := st.Series("node001", "load.1").Last(); !ok || last.V != 0.75 {
		t.Fatalf("the saved history ends at %+v (%v), want the last sample, 0.75", last, ok)
	}
}

// TestMain runs this binary as cwxd when CWXD_ARGS is set.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("CWXD_ARGS"); ok {
		os.Args = append([]string{"cwxd"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlightRateFlag: -flight-rate N samples 1 tick in N, 0 turns the
// flight recorder off, and a negative rate is refused, not ignored.
func TestFlightRateFlag(t *testing.T) {
	j := flight.Default()
	defer flight.SetRate(flight.Rate())
	defer j.SetEnabled(j.Enabled())
	if err := setFlightRate(0); err != nil || j.Enabled() {
		t.Fatalf("-flight-rate 0: err %v, recorder on %v; want it off", err, j.Enabled())
	}
	if err := setFlightRate(8); err != nil || !j.Enabled() || flight.Rate() != 8 {
		t.Fatalf("-flight-rate 8: err %v, recorder on %v, rate %d", err, j.Enabled(), flight.Rate())
	}
	if err := setFlightRate(-1); err == nil || flight.Rate() != 8 {
		t.Fatalf("-flight-rate -1: err %v, rate %d; want an error and the rate kept", err, flight.Rate())
	}
}
