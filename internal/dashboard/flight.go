package dashboard

import (
	"fmt"
	"strings"
	"time"

	"clusterworx/internal/flight"
)

// FlightPanel renders flight-recorder records, one per line, in the
// order given (the journal verb passes cursor order; the flight verb
// passes pipeline order). Diffable-view contract: each line leads with
// a stable key — the zero-padded global sequence number, unique for the
// life of the process — so the serving plane's watch streams can diff
// the journal like any other view.
func FlightPanel(recs []flight.Record) string {
	if len(recs) == 0 {
		return "(journal empty)\n"
	}
	var b strings.Builder
	for _, r := range recs {
		writeFlightLine(&b, r)
	}
	return b.String()
}

// writeFlightLine renders one record:
//
//	000000000017 12.000s node001 stage:ingest dur=41µs size=24 trace=a1b2...
//	000000000018 12.000s node001 gap seq 4->7
func writeFlightLine(b *strings.Builder, r flight.Record) {
	fmt.Fprintf(b, "%012d %9s %-12s", r.Seq, flightTime(r.TimeNs), flightName(r))
	switch r.Kind {
	case flight.KindStage:
		fmt.Fprintf(b, " %-17s dur=%-8s size=%d", "stage:"+r.Stage.String(), flightDur(r.A), r.B)
	case flight.KindGap, flight.KindRegression:
		fmt.Fprintf(b, " %-17s seq %d->%d", r.Kind, r.A, r.B)
	case flight.KindResyncSnap:
		cause := "anti-entropy"
		if r.B != 0 {
			cause = "requested"
		}
		fmt.Fprintf(b, " %-17s values=%d (%s)", r.Kind, r.A, cause)
	case flight.KindSnapApplied, flight.KindRetransmit:
		fmt.Fprintf(b, " %-17s values=%d", r.Kind, r.A)
	case flight.KindSendFail, flight.KindBank:
		fmt.Fprintf(b, " %-17s values=%d fails=%d", r.Kind, r.A, r.B)
	case flight.KindEventFired:
		fmt.Fprintf(b, " %-17s rule=%s value=%d", r.Kind, r.Detail, r.A)
	case flight.KindNotifyRetry:
		fmt.Fprintf(b, " %-17s rule=%s attempts=%d", r.Kind, r.Detail, r.A)
	case flight.KindGateRebuild, flight.KindWatchResync:
		fmt.Fprintf(b, " %-17s %s", r.Kind, r.Detail)
	default:
		fmt.Fprintf(b, " %-17s a=%d b=%d", r.Kind, r.A, r.B)
	}
	if r.Trace != 0 {
		fmt.Fprintf(b, " trace=%s", flight.FormatTrace(r.Trace))
	}
	b.WriteByte('\n')
}

// flightName is the node column; control-plane records (gate rebuilds,
// watch resyncs) have no node and render a dash.
func flightName(r flight.Record) string {
	if r.Node == "" {
		return "-"
	}
	return r.Node
}

// flightTime renders a journal timestamp (virtual-clock nanoseconds;
// 0 means the recording component has no clock).
func flightTime(ns int64) string {
	if ns == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3fs", time.Duration(ns).Seconds())
}

// flightDur renders a stage-hop duration in compact form.
func flightDur(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}
