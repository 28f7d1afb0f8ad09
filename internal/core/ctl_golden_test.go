package core

import (
	"flag"
	"net"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/events"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_ctl.txt from the current server")

const goldenCtlFile = "testdata/golden_ctl.txt"

// ctlStep is one line of the golden script: a request, the paths it is
// sent down, and how far the virtual clock moves before it.
type ctlStep struct {
	on      string // "*" every path, "h" HandleCtl and HandleCtlUncached, "c" the connection
	req     string
	advance time.Duration
}

// goldenCtlScript is every verb well-formed, every usage error, and the
// request spellings the parser forgives. Actuating requests are in it, so
// every path replays it against a sim of its own. The connection loop
// answers "watch", "quit" and blank lines itself, hence the "h"/"c" split;
// the one accepted watch ends the script because it takes the connection.
func goldenCtlScript() []ctlStep {
	long := strings.Repeat("x", 300)
	return []ctlStep{
		{on: "*", req: "ping"},
		{on: "*", req: "status"},
		{on: "*", req: "nodes"},
		{on: "*", req: "values node000"},
		{on: "*", req: "values .dot"},
		{on: "*", req: "values ghost"},
		{on: "*", req: "values"},
		{on: "*", req: "values node000 node001"},
		{on: "*", req: "value node001 load.1"},
		{on: "*", req: "value node001 host.name"},
		{on: "*", req: "value ghost load.1"},
		{on: "*", req: "value node001"},
		{on: "*", req: "history node002 load.1"},
		{on: "*", req: "history node002 load.1 3"},
		{on: "*", req: "history node002 load.1 0"},
		{on: "*", req: "history node002 load.1 bogus"},
		{on: "*", req: "history node002 load.1 99999999999999999999"},
		{on: "*", req: "history node002 nothere"},
		{on: "*", req: "history node002"},
		{on: "*", req: "history node002 load.1 3 4"},
		{on: "*", req: "trend node002 uptime.sec"},
		{on: "*", req: "trend node002 nothere"},
		{on: "*", req: "trend node002"},
		{on: "*", req: "chart node002 load.1"},
		{on: "*", req: "chart ghost load.1"},
		{on: "*", req: "chart node002"},
		{on: "*", req: "spark node002 load.1"},
		{on: "*", req: "spark ghost load.1"},
		{on: "*", req: "spark node002 load.1 extra"},
		{on: "*", req: "compare load.1"},
		{on: "*", req: "compare nothere"},
		{on: "*", req: "compare"},
		{on: "*", req: "compare load.1 mem.used.pct"},
		{on: "*", req: "efficiency"},
		{on: "*", req: "correlate node002 load.1 hw.temp.cpu"},
		{on: "*", req: "correlate ghost a b"},
		{on: "*", req: "correlate node002 load.1"},
		{on: "*", req: "correlate a b c d e f"},
		{on: "*", req: "rules"},
		{on: "*", req: "eventlog"},
		{on: "*", req: "eventlog 1"},
		{on: "*", req: "eventlog 0"},
		{on: "*", req: "eventlog x"},
		{on: "*", req: "eventlog 1 2"},
		{on: "*", req: "images"},
		{on: "*", req: "selfmon"},
		{on: "*", req: "sync"},
		{on: "*", req: "histmem"},
		{on: "*", req: "histmem 2"},
		{on: "*", req: "histmem 0"},
		{on: "*", req: "histmem x"},
		{on: "*", req: "histmem 1 2"},
		{on: "*", req: "telemetry"},
		{on: "*", req: "trace"},
		{on: "*", req: "trace -json"},
		{on: "*", req: "trace ghost"},
		{on: "*", req: "trace a b"},
		{on: "*", req: "trace -json -json"},
		{on: "*", req: "journal"},
		{on: "*", req: "journal -json"},
		{on: "*", req: "journal since 0"},
		{on: "*", req: "journal SINCE 0 -JSON"},
		{on: "*", req: "journal since x"},
		{on: "*", req: "journal since"},
		{on: "*", req: "journal 5"},
		{on: "*", req: "flight"},
		{on: "*", req: "flight ghost"},
		{on: "*", req: "flight 0000000000000000"},
		{on: "*", req: "flight -json"},
		{on: "*", req: "flight a b"},

		// Mixed case, extra whitespace, trailing arguments on argless verbs.
		{on: "*", req: "PING"},
		{on: "*", req: "Status"},
		{on: "*", req: "  status  "},
		{on: "*", req: "status now please"},
		{on: "*", req: "NODES all"},
		{on: "*", req: "VALUES  node000"},
		{on: "*", req: "values\tnode000"},
		{on: "*", req: "values NODE000"},
		{on: "*", req: "Compare   load.1"},
		{on: "*", req: "CHART node002  load.1"},
		{on: "*", req: "Spark\tnode002\tload.1"},
		{on: "*", req: "efficiency report"},
		{on: "*", req: "Sync x"},
		{on: "*", req: "SelfMon x y"},
		{on: "*", req: "rules x"},
		{on: "*", req: "images x"},
		{on: "*", req: "ping pong"},
		{on: "*", req: "telemetry x"},
		{on: "*", req: "values " + long},
		{on: "*", req: long},
		{on: "*", req: "wat"},
		{on: "*", req: "WAT now"},
		{on: "h", req: ""},
		{on: "h", req: "   "},
		{on: "h", req: "quit"},
		{on: "h", req: "watch"},
		{on: "h", req: "watch status"},
		{on: "h", req: "WATCH ping"},
		{on: "c", req: "watch"},
		{on: "c", req: "watch ping"},
		{on: "c", req: "watch history node002 load.1"},
		{on: "c", req: "Watch  WAT"},
		{on: "c", req: "watch values"},
		{on: "c", req: "watch chart node002"},
		{on: "c", req: "watch compare"},
		{on: "c", req: "watch values ghost"},
		{on: "c", req: "watch journal since x"},

		// Actuators: the hardware half, on the sim's ICE Boxes and firmware.
		{on: "*", req: "power off node001"},
		{on: "*", req: "status", advance: 30 * time.Second},
		{on: "*", req: "power ON node001"},
		{on: "*", req: "power cycle node002", advance: 30 * time.Second},
		{on: "*", req: "power fry node001"},
		{on: "*", req: "power on ghost"},
		{on: "*", req: "power on"},
		{on: "*", req: "power on node001 node002"},
		{on: "*", req: "reset node003", advance: 30 * time.Second},
		{on: "*", req: "reset ghost"},
		{on: "*", req: "reset"},
		{on: "*", req: "reset node001 node002"},
		{on: "*", req: "console node003", advance: 30 * time.Second},
		{on: "*", req: "console ghost"},
		{on: "*", req: "console"},
		{on: "*", req: "bios settings node000"},
		{on: "*", req: "bios set node000 boot_order disk,net"},
		{on: "*", req: "bios SET node000 boot_order"},
		{on: "*", req: "bios flash node000 1.1.4"},
		{on: "*", req: "bios flash node000"},
		{on: "*", req: "bios settings node000"},
		{on: "*", req: "bios settings ghost"},
		{on: "*", req: "bios fry node000"},
		{on: "*", req: "bios settings"},
		{on: "*", req: "bios"},

		// The views again after the cluster moved: every gate rebuilds.
		{on: "*", req: "status", advance: 2 * time.Minute},
		{on: "*", req: "nodes"},
		{on: "*", req: "values node001"},
		{on: "*", req: "compare load.1"},
		{on: "*", req: "chart node002 load.1"},
		{on: "*", req: "spark node002 load.1"},
		{on: "*", req: "efficiency"},
		{on: "*", req: "sync"},
		{on: "*", req: "eventlog 3"},
		{on: "*", req: "history node001 load.1 4"},

		// Cloning last. A reimage is as seeded as the rest of the sim, but it
		// reboots nodes, so any step after its job ran would read different
		// bytes from the ones this fixture pins. The job answers at once and
		// runs as the clock advances; its status line is its summary then.
		{on: "*", req: "clone lnxi-nfs@2.1 node001 node002"},
		{on: "*", req: "clone ghost@1 node001"},
		{on: "*", req: "clone lnxi-nfs@2.1 ghost"},
		{on: "*", req: "clone lnxi-nfs@2.1"},
		{on: "*", req: "clone"},
		{on: "*", req: "clone status", advance: time.Minute},
		{on: "c", req: "WATCH  Nodes"},
	}
}

// goldenSim is the cluster the script runs against: four nodes under
// different loads, one event rule that fires, and a node whose name and
// metric start with a dot, so "status", "nodes" and "values .dot" have
// lines the connection must dot-stuff.
func goldenSim(t *testing.T) *Sim {
	t.Helper()
	sim, err := NewSim(SimConfig{Nodes: 4, Cluster: "golden", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Stop)
	if err := sim.Server.Engine().AddRule(events.Rule{Name: "busy", Metric: "load.1", Op: events.GT, Threshold: 1.5}); err != nil {
		t.Fatal(err)
	}
	sim.PowerOnAll()
	sim.Advance(30 * time.Second)
	for i, n := range sim.Nodes {
		n.SetLoad(float64(i))
	}
	sim.Advance(5 * time.Minute)
	sim.Server.HandleValues(".dot", []consolidate.Value{
		consolidate.NumValue(".leading.dot", consolidate.Dynamic, 1),
		consolidate.TextValue("note", consolidate.Static, "first\n.second"),
	})
	return sim
}

// wallClockVerbs answer with host wall-clock durations and from process-wide
// registries that other tests write to: their OK answers are pinned by
// status line (numbers and trace ids masked) and by having a body or not.
// Their errors carry neither and are pinned whole.
var wallClockVerbs = map[string]bool{"telemetry": true, "trace": true, "journal": true, "flight": true}

var volatileRun = regexp.MustCompile(`[0-9a-f]{16}|[0-9]+`)

func pinCtlResponse(req, resp string) string {
	f := strings.Fields(strings.ToLower(req))
	if len(f) == 0 || !wallClockVerbs[f[0]] || !strings.HasPrefix(resp, "OK") {
		return resp
	}
	head, _, hasBody := strings.Cut(resp, "\n")
	head = volatileRun.ReplaceAllString(head, "#")
	if hasBody {
		head += "\n(body)"
	}
	return head
}

// stepHead is a step's heading in the fixture, the request quoted so that
// tabs and runs of spaces survive an editor.
func stepHead(st ctlStep) string { return st.on + "> " + strconv.Quote(st.req) }

// runGoldenCtl plays the script down one path against a fresh sim and
// returns the pinned answer of every step that path takes.
func runGoldenCtl(t *testing.T, path string) map[int]string {
	t.Helper()
	sim := goldenSim(t)
	ask := sim.Server.HandleCtl
	switch path {
	case "uncached":
		ask = sim.Server.HandleCtlUncached
	case "conn":
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go sim.Server.ServeCtl(l) //nolint:errcheck // ends with the listener
		cl, err := DialCtl(l.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close(); l.Close() })
		ask = func(req string) string {
			cl.conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a loopback socket
			if err := cl.Send(req); err != nil {
				t.Fatalf("%q: %v", req, err)
			}
			block, err := cl.ReadBlock()
			if err != nil {
				t.Fatalf("%q: %v", req, err)
			}
			return block
		}
	}
	out := make(map[int]string)
	for i, st := range goldenCtlScript() {
		sim.Advance(st.advance)
		if st.on == "*" || (st.on == "c") == (path == "conn") {
			out[i] = pinCtlResponse(st.req, ask(st.req))
		}
	}
	return out
}

// TestGoldenCtl pins the control protocol byte for byte. The fixture was
// written by the commit before the verb switch became the verb table; it
// is regenerated (-update-golden) only by a change that means to alter an
// answer. The script is replayed through the serving plane, past it
// (HandleCtlUncached) and over a real control connection, each against a
// sim of its own, and all three must give the recorded answers.
func TestGoldenCtl(t *testing.T) {
	script := goldenCtlScript()
	if *updateGolden {
		plane, conn := runGoldenCtl(t, "cached"), runGoldenCtl(t, "conn")
		var b strings.Builder
		for i, st := range script {
			resp, ok := plane[i]
			if !ok {
				resp = conn[i]
			}
			b.WriteString(stepHead(st) + "\n| " + strings.ReplaceAll(resp, "\n", "\n| ") + "\n")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCtlFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenCtlFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []string // per step, "<on>> <req>\n<answer>"
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "| "); ok && len(want) > 0 {
			want[len(want)-1] += "\n" + rest
		} else {
			want = append(want, line)
		}
	}
	if len(want) != len(script) {
		t.Fatalf("%s holds %d steps, the script has %d", goldenCtlFile, len(want), len(script))
	}
	for _, path := range []string{"cached", "uncached", "conn"} {
		t.Run(path, func(t *testing.T) {
			got := runGoldenCtl(t, path)
			for i, st := range script {
				resp, ok := got[i]
				if !ok {
					continue
				}
				if step := stepHead(st) + "\n" + resp; step != want[i] {
					t.Fatalf("step %d differs from %s:\n%s\nrecorded:\n%s", i+1, goldenCtlFile, step, want[i])
				}
			}
		})
	}
}
