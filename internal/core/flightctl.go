package core

import (
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"time"

	"clusterworx/internal/dashboard"
	"clusterworx/internal/flight"
)

// This file is the control-plane surface of the flight recorder
// (internal/flight): the "journal", "flight" and "trace" entries of the
// verb table (ctlverbs.go) and their -json forms. Everything here is cold
// path — hot-path appends live with the code being recorded.

// fjournal is the process-wide flight journal every core subsystem
// appends to, bound once so call sites stay short.
var fjournal = flight.Default()

// journalDefaultMax bounds a plain "journal" response; "journal since
// <seq>" is cursor-driven and returns everything retained past the
// cursor, which the ring itself bounds.
const journalDefaultMax = 200

// stripJSONFlag removes a "-json" token (any position, case-insensitive)
// from fields, reporting whether it was present.
func stripJSONFlag(fields []string) ([]string, bool) {
	for i, f := range fields {
		if strings.EqualFold(f, "-json") {
			return append(fields[:i:i], fields[i+1:]...), true
		}
	}
	return fields, false
}

// journalRecordJSON is the scripting view of one flight record. Trace
// ids render as the 16-hex form "flight <id>" accepts, not as decimals
// nothing else displays.
type journalRecordJSON struct {
	Seq    uint64 `json:"seq"`
	TimeNs int64  `json:"t_ns"`
	Kind   string `json:"kind"`
	Stage  string `json:"stage,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Node   string `json:"node,omitempty"`
	Detail string `json:"detail,omitempty"`
	A      int64  `json:"a"`
	B      int64  `json:"b"`
}

func journalJSON(recs []flight.Record) []journalRecordJSON {
	out := make([]journalRecordJSON, len(recs))
	for i, r := range recs {
		out[i] = journalRecordJSON{
			Seq:    r.Seq,
			TimeNs: r.TimeNs,
			Kind:   r.Kind.String(),
			Node:   r.Node,
			Detail: r.Detail,
			A:      r.A,
			B:      r.B,
		}
		if r.Kind == flight.KindStage {
			out[i].Stage = r.Stage.String()
		}
		if r.Trace != 0 {
			out[i].Trace = flight.FormatTrace(r.Trace)
		}
	}
	return out
}

func marshalOK(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "ERR encoding response: " + err.Error()
	}
	return "OK\n" + string(b)
}

// ctlJournal handles "journal [-json] [since <seq>]": the flight
// recorder's ring, oldest first, each line led by the zero-padded global
// sequence number so watch streams can diff the view.
func ctlJournal(_ *Server, dst []byte, fields []string) []byte {
	fields, asJSON := stripJSONFlag(fields)
	since := uint64(0)
	max := journalDefaultMax
	switch {
	case len(fields) == 0:
	case len(fields) == 2 && strings.EqualFold(fields[0], "since"):
		parsed, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return dst
		}
		since, max = parsed, 0
	default:
		return dst
	}
	recs := fjournal.Since(since, max)
	if asJSON {
		return append(dst, marshalOK(struct {
			Cursor  uint64              `json:"cursor"`
			Records []journalRecordJSON `json:"records"`
		}{fjournal.Cursor(), journalJSON(recs)})...)
	}
	dst = strconv.AppendUint(append(dst, "OK journal cursor="...), fjournal.Cursor(), 10)
	dst = strconv.AppendInt(append(dst, " records="...), int64(len(recs)), 10)
	return append(append(dst, '\n'), strings.TrimRight(dashboard.FlightPanel(recs), "\n")...)
}

// ctlFlight handles "flight [-json] <trace-id|node>": the span tree of
// one sampled frame — every journal record stamped with the trace id,
// pipeline hops first in stage order, then the detours in journal
// order. A node name argument resolves to the node's most recent trace.
func ctlFlight(_ *Server, dst []byte, fields []string) []byte {
	fields, asJSON := stripJSONFlag(fields)
	if len(fields) != 1 {
		return dst
	}
	arg := fields[0]
	id, isID := flight.ParseTrace(arg)
	if !isID {
		id = fjournal.LastTrace(arg)
		if id == 0 {
			return append(append(dst, "ERR no trace records for "...), arg...)
		}
	}
	recs := fjournal.TraceRecords(id)
	if len(recs) == 0 {
		return append(append(dst, "ERR no records retained for trace "...), arg...)
	}
	// Pipeline hops in stage order tell the story top to bottom
	// (gather→…→notify) even though with an in-process transport the
	// server-side hops were journaled inside the agent's transmit hop;
	// non-stage records (the detours) keep their causal journal order
	// after them.
	sort.SliceStable(recs, func(i, j int) bool {
		si, sj := recs[i].Kind == flight.KindStage, recs[j].Kind == flight.KindStage
		if si != sj {
			return si
		}
		if si && recs[i].Stage != recs[j].Stage {
			return recs[i].Stage < recs[j].Stage
		}
		return recs[i].Seq < recs[j].Seq
	})
	if asJSON {
		return append(dst, marshalOK(struct {
			Trace   string              `json:"trace"`
			Records []journalRecordJSON `json:"records"`
		}{flight.FormatTrace(id), journalJSON(recs)})...)
	}
	dst = append(append(dst, "OK flight "...), flight.FormatTrace(id)...)
	dst = strconv.AppendInt(append(dst, " records="...), int64(len(recs)), 10)
	return append(append(dst, '\n'), strings.TrimRight(dashboard.FlightPanel(recs), "\n")...)
}

// spanJSON is the scripting view of one node's row for "trace -json":
// its newest retained trace and that trace's hop per stage.
type spanJSON struct {
	Node   string          `json:"node"`
	Trace  string          `json:"trace"`
	Stages []spanStageJSON `json:"stages"`
}

type spanStageJSON struct {
	Stage string `json:"stage"`
	DurNs int64  `json:"dur_ns"`
	Size  int64  `json:"size"`
}

func spansJSON(rows []flight.NodeTrace) []spanJSON {
	out := make([]spanJSON, len(rows))
	for i, row := range rows {
		sp := spanJSON{Node: row.Node, Trace: flight.FormatTrace(row.Trace), Stages: make([]spanStageJSON, flight.NumStages)}
		for st, r := range row.Stages {
			sp.Stages[st] = spanStageJSON{Stage: flight.Stage(st).String(), DurNs: r.A, Size: r.B}
		}
		out[i] = sp
	}
	return out
}

// ctlTrace handles "trace [-json] [node]": per node, the newest trace
// the flight journal retains and its hop per stage, for one node or
// all of them.
func ctlTrace(_ *Server, dst []byte, fields []string) []byte {
	args, asJSON := stripJSONFlag(fields)
	if len(args) > 1 {
		return dst
	}
	rows := fjournal.LatestTraces()
	if len(args) == 1 {
		i := sort.Search(len(rows), func(i int) bool { return rows[i].Node >= args[0] })
		if i == len(rows) || rows[i].Node != args[0] {
			return append(append(dst, "ERR no trace for node "...), args[0]...)
		}
		rows = rows[i : i+1]
	}
	if asJSON {
		return append(dst, ctlTraceJSON(rows)...)
	}
	if len(rows) == 0 {
		return append(dst, "OK (no traces retained)"...)
	}
	dst = append(append(dst, "OK\n"...), strings.TrimRight(renderTraces(rows), "\n")...)
	return append(dst, traceExemplarFooter()...)
}

// ctlTraceJSON is the -json form of the trace verb: the rows plus the
// ingest-latency exemplar (the worst traced observation and its trace
// id, the drill-down target for "flight <trace>").
func ctlTraceJSON(rows []flight.NodeTrace) string {
	resp := struct {
		Spans    []spanJSON `json:"spans"`
		Exemplar *struct {
			Metric  string `json:"metric"`
			ValueNs int64  `json:"value_ns"`
			Trace   string `json:"trace"`
		} `json:"exemplar,omitempty"`
	}{Spans: spansJSON(rows)}
	if v, tr := mIngestLatencyNs.Exemplar(); tr != 0 {
		resp.Exemplar = &struct {
			Metric  string `json:"metric"`
			ValueNs int64  `json:"value_ns"`
			Trace   string `json:"trace"`
		}{"cwx_ingest_latency_ns", v, flight.FormatTrace(tr)}
	}
	return marshalOK(resp)
}

// traceExemplarFooter is the human form of the exemplar link appended to
// "trace" output: the p99 outlier's exact frame, one verb away.
func traceExemplarFooter() string {
	v, tr := mIngestLatencyNs.Exemplar()
	if tr == 0 {
		return ""
	}
	return "\nworst traced ingest " + fmtDur(time.Duration(v)) +
		"  trace " + flight.FormatTrace(tr) +
		"  (drill down: flight " + flight.FormatTrace(tr) + ")"
}
