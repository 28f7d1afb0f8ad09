package icebox

import (
	"strings"
	"testing"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/node"
)

// FuzzHandleCommand drives the SIMP/NIMP command core — the NIMP port
// faces the management network — with arbitrary scripts, one command per
// line, 50 ms of virtual time apart so sequenced power-ups, power cycles
// and inrush windows overlap the way the script dictates. No line may
// panic, every reply is "OK…" or "ERR…", and after every line the box
// still obeys its electrical model.
func FuzzHandleCommand(f *testing.F) {
	for _, s := range []string{
		"version\nstatus\naux", "power on 0\npower on 1\npower on 2\nbreaker a\nstatus",
		"power on all\n\n\n\n\n\n\n\npower off all", "power cycle 0\n\npower off 0\nreset 0\ntemp 0\nprobe 0\nconsole 0",
		"amps a\namps b\namps c\nbreaker b reset\nbreaker", "power on -1\npower on 999999999999999999999\npower explode 1\npower on",
		"POWER ON ALL\nBreaker A Reset\npower on 9\ntemp 9", "console 0\x00\ntemp \xff\n" + strings.Repeat("a ", 500),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		clk := clock.New()
		b, nodes := rig(t, clk, 7)
		check := func(line string) {
			for _, st := range b.Status() {
				if st.Device == "" {
					if st.OutletOn {
						t.Fatalf("after %q: empty port %d has its outlet on", line, st.Port)
					}
					continue
				}
				if b.BreakerTripped(inlet(st.Port)) && st.OutletOn {
					t.Fatalf("after %q: port %d is on behind a tripped breaker", line, st.Port)
				}
				if !st.OutletOn && nodes[st.Port].State() != node.PowerOff {
					t.Fatalf("after %q: port %d outlet off, node %v", line, st.Port, nodes[st.Port].State())
				}
			}
			for in := 0; in < 2; in++ {
				if amps := b.InletAmps(in); amps > BreakerAmps || amps > b.PeakAmps(in) {
					t.Fatalf("after %q: inlet %d draws %.1f A (breaker %.0f A, recorded peak %.1f A)", line, in, amps, BreakerAmps, b.PeakAmps(in))
				}
			}
		}
		for _, line := range strings.Split(script, "\n") {
			resp := b.HandleCommand(line)
			if !strings.HasPrefix(resp, "OK") && !strings.HasPrefix(resp, "ERR ") {
				t.Fatalf("%q -> %q", line, resp)
			}
			check(line)
			clk.Advance(50 * time.Millisecond)
			check(line + " +50ms")
		}
		clk.RunUntilIdle()
		check("<idle>")
	})
}
