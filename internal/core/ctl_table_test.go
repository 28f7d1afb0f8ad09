package core

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clusterworx/internal/flight"
	"clusterworx/internal/serve"
)

// bareLoadedServer is a server with nodes and history but no ICE Boxes,
// cloner or firmware: every actuating request fails at the lookup, so a
// test may throw anything at it.
func bareLoadedServer() (*Server, *atomic.Int64) {
	s, nowNs := planeServer()
	for i := 0; i < 8; i++ {
		nowNs.Add(int64(time.Second))
		for n := 0; n < 4; n++ {
			planeIngest(s, fmt.Sprintf("node%03d", n), float64(i*n), float64(100-10*i), 20)
		}
	}
	return s, nowNs
}

// ctlExample is a well-formed request for every verb that needs
// arguments to be one.
var ctlExample = map[string]string{
	"values": "values node000", "value": "value node000 load.1", "history": "history node000 load.1 5",
	"trend": "trend node000 load.1", "chart": "chart node000 load.1", "spark": "spark node000 load.1",
	"compare": "compare load.1", "correlate": "correlate node000 load.1 mem.used.pct",
	"power": "power on node000", "reset": "reset node000", "console": "console node000",
	"bios": "bios settings node000", "clone": "clone img@1 node000", "flight": "flight node000", "watch": "watch status",
}

func exampleRequest(v *ctlVerb) string {
	if req, ok := ctlExample[v.name]; ok {
		return req
	}
	return v.name
}

// TestCtlTable checks what the verb table promises of every entry: a
// unique lower-case name, one way of being answered, a watch mode that
// "watch" honours, and for the cached verbs the gate name the journal
// and telemetry have always reported and exactly one gate Get — a hit or
// a miss — per request, however the request is spelled. (cwxbench reads
// serve.rebuilds_per_round off that count.)
func TestCtlTable(t *testing.T) {
	s, _ := bareLoadedServer()
	if len(ctlByName) != len(ctlVerbs) {
		t.Fatalf("%d verbs under %d names", len(ctlVerbs), len(ctlByName))
	}
	var cached []string
	for i := range ctlVerbs {
		v := &ctlVerbs[i]
		if v.name == "" || v.name != strings.ToLower(v.name) || strings.ContainsAny(v.name, " \t") || v.help == "" {
			t.Errorf("verb %q: want a lower-case one-word name and a help line", v.name)
		}
		if (v.run != nil) == (v.gen != nil) || (v.gen != nil) != (v.open != nil) {
			t.Errorf("%s: want either run, or gen and open", v.name)
		}
		if v.max >= 0 && v.max < v.min {
			t.Errorf("%s: takes %d..%d arguments", v.name, v.min, v.max)
		}
		req := exampleRequest(v)
		if resp := s.HandleCtl(req); strings.HasPrefix(resp, "ERR usage") || strings.HasPrefix(resp, "ERR unknown request") {
			t.Errorf("example %q -> %s", req, resp)
		}

		cl := pipeClient(t, s)
		cl.conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // net.Pipe deadlines cannot fail
		if err := cl.Send("watch " + req); err != nil {
			t.Fatal(err)
		}
		block, err := cl.ReadBlock()
		if err != nil {
			t.Fatalf("watch %s: %v", req, err)
		}
		if want := "ERR verb " + v.name + " is not watchable"; v.watch == watchNone && block != want {
			t.Errorf("watch %s -> %q, want %q", req, block, want)
		} else if v.watch != watchNone && !strings.HasPrefix(block, "OK watch "+req+" gen=") {
			t.Errorf("watch %s -> %q", req, firstLine(block))
		}
		cl.conn.Close()

		if v.gen != nil {
			cached = append(cached, v.name)
		}
	}
	if got, want := strings.Join(cached, " "), "status nodes values chart spark compare efficiency selfmon sync"; got != want {
		t.Fatalf("cached verbs: %s\nwant:         %s", got, want)
	}

	s, nowNs := bareLoadedServer()
	gets := func(req string) (hits, misses int64) {
		before := serve.ReadStats()
		if resp := s.HandleCtl(req); !strings.HasPrefix(resp, "OK") {
			t.Fatalf("%q -> %s", req, resp)
		}
		after := serve.ReadStats()
		return after.Hits - before.Hits, after.Misses - before.Misses
	}
	for _, name := range cached {
		req := exampleRequest(ctlByName[name])
		cursor := fjournal.Cursor()
		if hits, misses := gets(req); hits != 0 || misses != 1 {
			t.Errorf("first %q: %d hits, %d misses, want one miss", req, hits, misses)
		}
		var rebuilt []string
		for _, rec := range fjournal.Since(cursor, 0) {
			if rec.Kind == flight.KindGateRebuild {
				rebuilt = append(rebuilt, rec.Detail)
			}
		}
		if len(rebuilt) != 1 || rebuilt[0] != name {
			t.Errorf("%q journaled gate rebuilds %q, want [%s]", req, rebuilt, name)
		}
		for _, again := range []string{req, strings.ToUpper(req[:1]) + req[1:], " " + strings.ReplaceAll(req, " ", "\t ")} {
			if hits, misses := gets(again); hits != 1 || misses != 0 {
				t.Errorf("%q after %q: %d hits, %d misses, want one hit", again, req, hits, misses)
			}
		}
		// A new node moves every generation these views ride.
		nowNs.Add(int64(time.Second))
		planeIngest(s, "node000", 9, 50, 20)
		planeIngest(s, "late-"+name, 1, 50, 20)
		if hits, misses := gets(req); hits+misses != 1 {
			t.Errorf("%q after ingest: %d hits, %d misses, want one Get", req, hits, misses)
		}
	}
}

// TestCtlOneViewOneGate: every spelling of a request is answered from one
// gate, registered under the canonical line. They used to be registered
// under the raw line, so each spelling built and kept its own rendering
// and took its own slot of the bounded table.
func TestCtlOneViewOneGate(t *testing.T) {
	s, _ := bareLoadedServer()
	size := len(s.plane.keyed)
	before := serve.ReadStats()
	first := s.HandleCtl("VALUES  node000")
	for _, req := range []string{"values node000", "values\tnode000 ", "Values node000"} {
		if got := s.HandleCtl(req); got != first || !strings.HasPrefix(got, "OK\n") {
			t.Fatalf("%q -> %q, want %q", req, got, first)
		}
	}
	after := serve.ReadStats()
	if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 1 || hits != 3 {
		t.Errorf("four spellings of one request: %d misses, %d hits, want 1 and 3", misses, hits)
	}
	if grew := len(s.plane.keyed) - size; grew != 1 {
		t.Errorf("the gate table grew by %d entries, want 1", grew)
	}
}

// FuzzHandleCtl throws arbitrary request lines at a bare loaded server:
// no panic, every answer is an OK or ERR block, a connection's answer from
// the line's bytes is HandleCtl's, the request's fields are
// strings.Fields', and a verb with a generation source answers the same
// through the plane as past it. The seeds — the golden script and the
// lines the old quick-check property test pinned — replay on every plain
// go test.
func FuzzHandleCtl(f *testing.F) {
	selfReporting := map[string]bool{"telemetry": true, "journal": true}
	for _, st := range goldenCtlScript() {
		f.Add(st.req)
	}
	for _, line := range []string{
		"history node000 load.1 99999999999999999999",
		"power on \x00", "values " + strings.Repeat("x", 10000),
		"correlate a b c d e f", "bios set", "\xff\xfe status", "values node000", "journal since -1",
	} {
		f.Add(line)
	}
	s, _ := bareLoadedServer()
	f.Fuzz(func(t *testing.T, line string) {
		resp := s.HandleCtl(line)
		if !strings.HasPrefix(resp, "OK") && !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("%q -> %q", line, firstLine(resp))
		}
		fields := strings.Fields(line)
		if got := appendFields(nil, line); !slices.Equal(got, fields) {
			t.Fatalf("%q splits into %q, strings.Fields gives %q", line, got, fields)
		}
		// The verbs that report the server's own counters and journal
		// move with every request, this one included.
		if len(fields) == 0 || !selfReporting[strings.ToLower(fields[0])] {
			var c ctlScratch
			if pub, _ := s.answer(&c, []byte(line)); pub+string(c.out) != resp {
				t.Fatalf("%q from a connection:\n%s\nfrom HandleCtl:\n%s", line, pub+string(c.out), resp)
			}
		}
		if len(fields) == 0 {
			return
		}
		if v := ctlByName[strings.ToLower(fields[0])]; v != nil && v.gen != nil {
			if want := s.HandleCtlUncached(line); resp != want {
				t.Fatalf("%q through the plane:\n%s\npast it:\n%s", line, resp, want)
			}
		}
	})
}
