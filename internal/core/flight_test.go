package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/consolidate"
	"clusterworx/internal/events"
	"clusterworx/internal/flight"
	"clusterworx/internal/notify"
	"clusterworx/internal/telemetry"
	"clusterworx/internal/transmit"
)

// This file is the differential test for the flight recorder: the
// journal's records must agree with what the counters claim happened,
// and a sampled frame's trace id must reconstruct the full
// gather→consolidate→transmit→ingest→events→notify span tree —
// including the resync detour when the frame rode a healing snapshot.

// flightRecsSince reads the journal past base. The default journal is
// process-wide and earlier tests in this package have written to it, so
// every assertion here filters by the cursor captured at test start.
func flightRecsSince(base uint64) []flight.Record {
	return flight.Default().Since(base, 0)
}

func countKind(recs []flight.Record, k flight.Kind) int64 {
	var n int64
	for _, r := range recs {
		if r.Kind == k {
			n++
		}
	}
	return n
}

// traceStages returns the set of pipeline stages journaled under one
// trace id.
func traceStages(recs []flight.Record, trace uint64) map[flight.Stage]bool {
	stages := make(map[flight.Stage]bool)
	for _, r := range recs {
		if r.Trace == trace && r.Kind == flight.KindStage {
			stages[r.Stage] = true
		}
	}
	return stages
}

// TestFlightDifferential drives a 3-node simulated cluster through a
// seeded blackhole and requires journal record counts to equal the
// ingest counters (gaps, resync requests, snapshots applied, resync
// snapshots sent, retransmits), then picks sampled traces out of the
// journal and checks their span trees stage by stage. It runs with every
// tick sampled and at the default rate, where most frames carry no
// trace and a firing must not borrow one.
func TestFlightDifferential(t *testing.T) {
	for _, rate := range []int{1, flight.DefaultRate} {
		t.Run(fmt.Sprintf("rate%d", rate), func(t *testing.T) { flightDifferential(t, rate) })
	}
}

func flightDifferential(t *testing.T, rate int) {
	base := flight.Default().Cursor()
	prevRate := flight.SetRate(rate)
	defer flight.SetRate(prevRate)
	if !flight.Default().Enabled() {
		t.Fatal("flight recorder must be enabled by default")
	}

	sim := faultSim(t, 3, TransportSimnet, 20*time.Second, 7)
	// An immediately-firing notifying rule so sampled frames reach the
	// notify hop (hw.temp.cpu is always present on simulated nodes).
	// Re-adding it resets its per-node state, so re-armed every tick it
	// fires on every frame, sampled or not.
	probe := events.Rule{
		Name: "flight-probe", Metric: "hw.temp.cpu", Op: events.GT,
		Threshold: -1000, Sustain: 1, Action: events.ActNone, Notify: true,
	}
	// Lossless, and long enough for sampled ticks: traced frames reach
	// notify. (A length that puts an anti-entropy snapshot on the first
	// tick after the heal would leave no gap to count.)
	for i := 0; i < max(10, rate+6); i++ {
		if err := sim.Server.Engine().AddRule(probe); err != nil {
			t.Fatal(err)
		}
		sim.Advance(time.Second)
	}
	sim.Net.SetLoss(1) // blackhole: gaps on heal
	sim.Advance(5 * time.Second)
	sim.Net.SetLoss(0) // heal: gap detection, resync request, snapshot
	sim.Advance(30 * time.Second)
	sim.Stop()
	sim.Advance(5 * time.Second) // drain in-flight frames

	recs := flightRecsSince(base)
	if len(recs) == 0 {
		t.Fatal("journal empty after a traced run")
	}

	// Differential, server side: every counter bump on the ingest path
	// has exactly one journal record.
	var gaps, regressions, resyncReqs, snapshots int64
	for _, st := range sim.Server.SyncStates() {
		gaps += st.Gaps
		regressions += st.Regressions
		resyncReqs += st.ResyncReqs
		snapshots += st.Snapshots
	}
	if gaps == 0 {
		t.Fatal("blackhole produced no sequence gaps: detour not exercised")
	}
	if got := countKind(recs, flight.KindGap); got != gaps {
		t.Errorf("gap records = %d, counters claim %d", got, gaps)
	}
	if got := countKind(recs, flight.KindRegression); got != regressions {
		t.Errorf("regression records = %d, counters claim %d", got, regressions)
	}
	if got := countKind(recs, flight.KindResyncSent); got != resyncReqs {
		t.Errorf("resync-sent records = %d, counters claim %d", got, resyncReqs)
	}
	if got := countKind(recs, flight.KindSnapApplied); got != snapshots {
		t.Errorf("snap-applied records = %d, counters claim %d", got, snapshots)
	}

	// Differential, agent side.
	var resyncsSent, retransmits int
	for _, a := range sim.Agents {
		resyncsSent += a.ResyncsSent()
		retransmits += a.Retransmits()
	}
	if got := countKind(recs, flight.KindResyncSnap); got != int64(resyncsSent) {
		t.Errorf("resync-snap records = %d, agents claim %d", got, resyncsSent)
	}
	if got := countKind(recs, flight.KindRetransmit); got != int64(retransmits) {
		t.Errorf("retransmit records = %d, agents claim %d", got, retransmits)
	}

	// A trace that reached the notify hop must carry the complete
	// six-stage pipeline tree.
	var notifyTrace uint64
	for _, r := range recs {
		if r.Kind == flight.KindStage && r.Stage == flight.StageNotify && r.Trace != 0 {
			notifyTrace = r.Trace
			break
		}
	}
	if notifyTrace == 0 {
		t.Fatal("no traced notify hop journaled")
	}
	stages := traceStages(recs, notifyTrace)
	for st := flight.Stage(0); st < flight.NumStages; st++ {
		if !stages[st] {
			t.Errorf("trace %s span tree missing stage %s", flight.FormatTrace(notifyTrace), st)
		}
	}

	// The resync detour: a traced healing snapshot must show both ends —
	// the agent's resync-snap send and the server applying that same
	// snapshot under the same trace id. With every tick sampled the
	// healing snapshot is traced; at the default rate it rarely is.
	var detourTrace uint64
	for _, r := range recs {
		if r.Kind == flight.KindResyncSnap && r.Trace != 0 {
			detourTrace = r.Trace
			break
		}
	}
	if detourTrace == 0 && rate == 1 {
		t.Fatal("no traced resync snapshot journaled")
	}
	var applied bool
	for _, r := range recs {
		if r.Trace == detourTrace && r.Kind == flight.KindSnapApplied {
			applied = true
		}
	}
	if detourTrace != 0 && !applied {
		t.Errorf("trace %s: resync snapshot sent but no snap-applied record under the same trace",
			flight.FormatTrace(detourTrace))
	}

	// An event firing journaled under a sampled frame's trace.
	if countKind(recs, flight.KindEventFired) == 0 {
		t.Error("rule fired but no event-fired journal record")
	}
	checkFiringTraces(t, recs)

	// ctl surface: "flight <id>" renders the span tree in pipeline order.
	out := sim.Server.HandleCtl("flight " + flight.FormatTrace(notifyTrace))
	if !strings.HasPrefix(out, "OK flight "+flight.FormatTrace(notifyTrace)) {
		t.Fatalf("flight verb: %q", out)
	}
	gatherAt := strings.Index(out, "stage:gather")
	notifyAt := strings.Index(out, "stage:notify")
	if gatherAt < 0 || notifyAt < 0 || gatherAt > notifyAt {
		t.Errorf("flight output not in pipeline order (gather@%d notify@%d):\n%s", gatherAt, notifyAt, out)
	}
	// Node-name form resolves to the node's most recent trace.
	if out := sim.Server.HandleCtl("flight node001"); !strings.HasPrefix(out, "OK flight ") {
		t.Errorf("flight by node: %q", out)
	}
	if out := sim.Server.HandleCtl("flight"); !strings.HasPrefix(out, "ERR usage") {
		t.Errorf("bare flight: %q", out)
	}
	if out := sim.Server.HandleCtl("flight 0000000000000000"); !strings.HasPrefix(out, "ERR") {
		t.Errorf("zero trace id: %q", out)
	}
}

// checkFiringTraces requires every traced event-fired record and notify
// hop to belong to the frame that fired the rule: an ingest hop of the
// same node under the same trace at the same instant. A firing on an
// unsampled frame carries no trace and makes no notify hop.
func checkFiringTraces(t *testing.T, recs []flight.Record) {
	t.Helper()
	type hop struct {
		node  string
		trace uint64
		at    int64
	}
	ingests := make(map[hop]bool)
	for _, r := range recs {
		if r.Kind == flight.KindStage && r.Stage == flight.StageIngest {
			ingests[hop{r.Node, r.Trace, r.TimeNs}] = true
		}
	}
	var traced, untraced int
	for _, r := range recs {
		fired := r.Kind == flight.KindEventFired
		if !fired && !(r.Kind == flight.KindStage && r.Stage == flight.StageNotify) {
			continue
		}
		if r.Trace == 0 {
			untraced++
			continue
		}
		traced++
		if !ingests[hop{r.Node, r.Trace, r.TimeNs}] {
			what := "notify hop"
			if fired {
				what = "event-fired record"
			}
			t.Errorf("%s for %s at %d carries trace %s, which no frame ingested then",
				what, r.Node, r.TimeNs, flight.FormatTrace(r.Trace))
		}
	}
	if traced == 0 {
		t.Error("no traced firing journaled")
	}
	if flight.Rate() > 1 && untraced == 0 {
		t.Error("no firing on an unsampled frame journaled")
	}
}

// tracedRuleServer is a bare server whose one notifying rule fires when
// t > 50, with a notifier on the server's clock.
func tracedRuleServer(t *testing.T) *Server {
	t.Helper()
	clk := clock.New()
	srv := NewServer(ServerConfig{Cluster: "t", Now: clk.Now,
		Notifier: notify.New(clk, &notify.Recording{}, notify.Config{})})
	if err := srv.Engine().AddRule(events.Rule{Name: "hot", Metric: "t", Op: events.GT, Threshold: 50, Notify: true}); err != nil {
		t.Fatal(err)
	}
	return srv
}

// tracedFrame is a one-value frame of node's sequence.
func tracedFrame(node string, seq uint64, kind transmit.FrameKind, v float64, trace uint64) transmit.Frame {
	return transmit.Frame{Node: node, Seq: seq, Kind: kind, TraceID: trace,
		Values: []consolidate.Value{consolidate.NumValue("t", consolidate.Dynamic, v)}}
}

// nodeRecs is what the journal holds for node past base.
func nodeRecs(base uint64, node string) []flight.Record {
	var out []flight.Record
	for _, r := range flightRecsSince(base) {
		if r.Node == node {
			out = append(out, r)
		}
	}
	return out
}

// TestEventFiredCarriesItsFrameTrace: a rule fired by an unsampled frame
// is journaled untraced, and makes no notify hop, even when the node's
// previous frame was sampled.
func TestEventFiredCarriesItsFrameTrace(t *testing.T) {
	const node = "firetrace-unsampled"
	srv := tracedRuleServer(t)
	base := flight.Default().Cursor()
	if err := srv.HandleFrame(tracedFrame(node, 1, transmit.FrameSnapshot, 10, 0xabcdef)); err != nil {
		t.Fatal(err)
	}
	if err := srv.HandleFrame(tracedFrame(node, 2, transmit.FrameDelta, 90, 0)); err != nil {
		t.Fatal(err)
	}
	fired := 0
	for _, r := range nodeRecs(base, node) {
		switch {
		case r.Kind == flight.KindEventFired:
			fired++
			if r.Trace != 0 {
				t.Errorf("event-fired by an unsampled frame carries trace %s", flight.FormatTrace(r.Trace))
			}
		case r.Kind == flight.KindStage && r.Stage == flight.StageNotify:
			t.Errorf("unsampled firing made a notify hop under trace %s", flight.FormatTrace(r.Trace))
		}
	}
	if fired != 1 {
		t.Fatalf("%d event-fired records, want 1", fired)
	}
}

// TestEventFiredTracedWithTelemetryOff: the telemetry kill switch stops
// metrics, not traces. A sampled frame that fires a rule journals the
// firing and its notify hop under the frame's trace, as it does its
// snapshot, ingest and events hops.
func TestEventFiredTracedWithTelemetryOff(t *testing.T) {
	const node = "firetrace-telemetry-off"
	const trace = 0x1234
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)
	srv := tracedRuleServer(t)
	base := flight.Default().Cursor()
	if err := srv.HandleFrame(tracedFrame(node, 1, transmit.FrameSnapshot, 90, trace)); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"snap-applied": true, "stage:ingest": true, "stage:events": true, "event-fired": true, "stage:notify": true}
	for _, r := range nodeRecs(base, node) {
		what := r.Kind.String()
		if r.Kind == flight.KindStage {
			what = "stage:" + r.Stage.String()
		}
		if r.Trace != trace {
			t.Errorf("%s journaled under trace %s, want %s", what, flight.FormatTrace(r.Trace), flight.FormatTrace(trace))
		}
		delete(want, what)
	}
	if len(want) != 0 {
		t.Errorf("no record of %v under the frame's trace", want)
	}
}

// TestTraceAgreesWithFlight: on a sampled sim, every stage cell of
// "trace <node>" is the stage record "flight <node>" prints for the same
// trace (the newest where a stage has several), and "trace" alone is the
// name-sorted union of the per-node rows.
func TestTraceAgreesWithFlight(t *testing.T) {
	for _, rate := range []int{1, flight.DefaultRate} {
		t.Run(fmt.Sprintf("rate%d", rate), func(t *testing.T) {
			prevRate := flight.SetRate(rate)
			defer flight.SetRate(prevRate)
			sim := bootSim(t, 4)
			sim.Advance(time.Duration(rate+30) * time.Second)

			for _, n := range sim.Nodes {
				node := n.Name()
				var row struct {
					Spans []struct {
						Node   string `json:"node"`
						Trace  string `json:"trace"`
						Stages []struct {
							Stage string `json:"stage"`
							DurNs int64  `json:"dur_ns"`
							Size  int64  `json:"size"`
						} `json:"stages"`
					} `json:"spans"`
				}
				ctlJSON(t, sim.Server, "trace -json "+node, &row)
				var fl struct {
					Trace   string `json:"trace"`
					Records []struct {
						Kind  string `json:"kind"`
						Stage string `json:"stage"`
						Node  string `json:"node"`
						A     int64  `json:"a"`
						B     int64  `json:"b"`
					} `json:"records"`
				}
				ctlJSON(t, sim.Server, "flight -json "+node, &fl)
				if len(row.Spans) != 1 || row.Spans[0].Node != node || row.Spans[0].Trace != fl.Trace {
					t.Fatalf("%s: trace row %+v, flight trace %s", node, row.Spans, fl.Trace)
				}
				want := make(map[string][2]int64)
				for _, r := range fl.Records { // stage order, oldest first: the newest wins
					if r.Kind == "stage" && r.Node == node {
						want[r.Stage] = [2]int64{r.A, r.B}
					}
				}
				stages := 0
				for _, c := range row.Spans[0].Stages {
					if got := [2]int64{c.DurNs, c.Size}; got != want[c.Stage] {
						t.Errorf("%s %s: trace cell %v, flight record %v", node, c.Stage, got, want[c.Stage])
					}
					if _, ok := want[c.Stage]; ok {
						stages++
					}
				}
				if stages < 4 {
					t.Errorf("%s: trace %s has %d stages, want gather through ingest", node, fl.Trace, stages)
				}
			}

			all := strings.Split(sim.Server.HandleCtl("trace"), "\n")
			if len(all) < 3 {
				t.Fatalf("trace: %q", all)
			}
			var names, union []string
			for _, line := range all[2:] {
				if strings.HasPrefix(line, "worst traced ingest") {
					continue
				}
				name := strings.Fields(line)[0]
				one := strings.Split(sim.Server.HandleCtl("trace "+name), "\n")
				if len(one) < 3 || one[0] != "OK" || one[1] != all[1] {
					t.Fatalf("trace %s: %q", name, one)
				}
				names, union = append(names, name), append(union, one[2])
			}
			if got := all[2 : 2+len(union)]; !slices.Equal(got, union) || !slices.IsSorted(names) {
				t.Fatalf("trace is not the sorted union of the per-node rows:\n%s\nper node:\n%s",
					strings.Join(got, "\n"), strings.Join(union, "\n"))
			}
		})
	}
}

// ctlJSON asks srv for a -json answer and decodes its body into v.
func ctlJSON(t *testing.T, srv *Server, req string, v any) {
	t.Helper()
	out := srv.HandleCtl(req)
	body, ok := strings.CutPrefix(out, "OK\n")
	if !ok {
		t.Fatalf("%s: %q", req, out)
	}
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("%s: %v\n%s", req, err, out)
	}
}

// TestCtlJournalVerb exercises the journal verb's text, cursor, and
// JSON forms against a small live sim.
func TestCtlJournalVerb(t *testing.T) {
	base := flight.Default().Cursor()
	prevRate := flight.SetRate(1)
	defer flight.SetRate(prevRate)
	sim := faultSim(t, 2, TransportSimnet, -1, 11)
	sim.Advance(5 * time.Second)

	out := sim.Server.HandleCtl("journal")
	if !strings.HasPrefix(out, "OK journal cursor=") {
		t.Fatalf("journal: %q", out)
	}
	// Lines lead with the zero-padded sequence (the watch diff key).
	lines := strings.Split(out, "\n")
	if len(lines) < 2 || len(lines[1]) < 12 {
		t.Fatalf("no journal lines:\n%s", out)
	}
	if _, err := strconv.ParseUint(lines[1][:12], 10, 64); err != nil {
		t.Errorf("line key not a sequence number: %q", lines[1])
	}

	out = sim.Server.HandleCtl("journal since " + strconv.FormatUint(base, 10))
	if !strings.HasPrefix(out, "OK journal cursor=") {
		t.Fatalf("journal since: %q", out)
	}

	out = sim.Server.HandleCtl("journal -json")
	if !strings.HasPrefix(out, "OK\n") {
		t.Fatalf("journal -json: %q", out)
	}
	var resp struct {
		Cursor  uint64 `json:"cursor"`
		Records []struct {
			Seq   uint64 `json:"seq"`
			Kind  string `json:"kind"`
			Trace string `json:"trace"`
		} `json:"records"`
	}
	if err := json.Unmarshal([]byte(out[3:]), &resp); err != nil {
		t.Fatalf("journal -json unparseable: %v\n%s", err, out)
	}
	if resp.Cursor == 0 || len(resp.Records) == 0 {
		t.Fatalf("journal -json empty: cursor=%d records=%d", resp.Cursor, len(resp.Records))
	}

	if out := sim.Server.HandleCtl("journal since x"); !strings.HasPrefix(out, "ERR usage") {
		t.Errorf("bad since arg: %q", out)
	}

	// trace -json: one row per node, each naming its trace, plus (when
	// present) the ingest exemplar.
	out = sim.Server.HandleCtl("trace -json")
	if !strings.HasPrefix(out, "OK\n") {
		t.Fatalf("trace -json: %q", out)
	}
	var tresp struct {
		Spans []struct {
			Node   string `json:"node"`
			Trace  string `json:"trace"`
			Stages []struct {
				Stage string `json:"stage"`
			} `json:"stages"`
		} `json:"spans"`
		Exemplar *struct {
			ValueNs int64  `json:"value_ns"`
			Trace   string `json:"trace"`
		} `json:"exemplar"`
	}
	if err := json.Unmarshal([]byte(out[3:]), &tresp); err != nil {
		t.Fatalf("trace -json unparseable: %v\n%s", err, out)
	}
	if len(tresp.Spans) == 0 {
		t.Fatal("trace -json returned no spans")
	}
	for _, sp := range tresp.Spans {
		if _, ok := flight.ParseTrace(sp.Trace); !ok || len(sp.Stages) != int(flight.NumStages) {
			t.Errorf("trace -json row %s: trace %q, %d stages", sp.Node, sp.Trace, len(sp.Stages))
		}
	}
	if tresp.Exemplar != nil {
		if _, ok := flight.ParseTrace(tresp.Exemplar.Trace); !ok {
			t.Errorf("exemplar trace not a valid id: %q", tresp.Exemplar.Trace)
		}
		// The human rendition links the same exemplar.
		human := sim.Server.HandleCtl("trace")
		if !strings.Contains(human, "drill down: flight "+tresp.Exemplar.Trace) {
			t.Errorf("trace text missing exemplar footer:\n%s", human)
		}
	}
}
