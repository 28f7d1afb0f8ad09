package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/flight"
	"clusterworx/internal/history"
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
		if now != c.want || now%clockStep != 0 || now < prev {
			t.Fatalf("after %v of wall time the clock reads %v (it read %v before), want %v", c.elapsed, now, prev, c.want)
		}
		prev = now
	}
}

// TestStepClockLeavesAClockAhead: in simulation mode a cloning session
// runs the clock to its own completion, past the wall; the driver must
// neither run it backwards nor move it off the instant the session left
// it, and it takes the clock back onto the grid at the next whole step
// the wall reaches.
func TestStepClockLeavesAClockAhead(t *testing.T) {
	clk := clock.New()
	ms := time.Millisecond
	stepClock(clk, 200*ms)
	clk.Advance(1034 * ms) // a cloning session, on the virtual clock
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

// TestRestartResumesHistory: history saved by one process keeps growing in
// the next. The old process saved 100 samples at 1…100 s; the new one
// restores them, starts its clock where they end, and appends a sample
// each second for 50 s, as ingest does. A clock that started again at 0
// stamps all 50 before the newest saved point, and the series drops them.
func TestRestartResumesHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.txt")
	old := history.NewStore(0)
	for i := 1; i <= 100; i++ {
		old.Append("node001", "load.1", time.Duration(i)*time.Second, float64(i))
	}
	if err := saveHistory(old.SaveTo, path); err != nil {
		t.Fatal(err)
	}

	st := history.NewStore(0)
	clk := clock.New()
	origin := restoreHistory(st, path)
	clk.RunUntil(origin)
	for i := 1; i <= 50; i++ {
		stepClock(clk, origin+time.Duration(i)*time.Second)
		st.Append("node001", "load.1", clk.Now(), float64(100+i))
	}
	s := st.Series("node001", "load.1")
	last, _ := s.Last()
	if origin != 100*time.Second || s.Len() != 150 || last.T != 150*time.Second {
		t.Fatalf("clock resumed at %v; the series holds %d points ending at %v, want 150 ending at 150s", origin, s.Len(), last.T)
	}

	// A newest stamp between two steps (a free-running clock's) resumes
	// the clock at the next step, not the one before it.
	old.Append("node001", "load.1", 100*time.Second+1234*time.Microsecond, 0)
	if err := saveHistory(old.SaveTo, path); err != nil {
		t.Fatal(err)
	}
	if origin := restoreHistory(history.NewStore(0), path); origin != 100100*time.Millisecond {
		t.Fatalf("after an off-grid stamp the clock resumes at %v, want 100.1s", origin)
	}
}

// TestUnreadableHistoryKept: a snapshot that does not load — cut short
// mid-block, or in a format this build does not read — is kept byte for
// byte as <path>.unreadable, and the next save writes a fresh snapshot
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
		st := history.NewStore(0)
		restoreHistory(st, path)
		if err := saveHistory(st.SaveTo, path); err != nil {
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
