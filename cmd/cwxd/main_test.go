package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"clusterworx/internal/clock"
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
