package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Ledger is the committed, machine-readable record: one or more full runs
// of the same code and, when they were made as an A/A experiment, the table
// that compares the two halves.
type Ledger struct {
	Schema string  `json:"schema"`
	Runs   []*Run  `json:"runs"` // Runs[0] is the baseline
	AA     []AARow `json:"aa,omitempty"`
}

// AARow compares one metric of one workload between two sets of runs of the
// same code.
type AARow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	Gap      float64 `json:"gap"`   // |A−B| as a share of A
	Bound    float64 `json:"bound"` // the metric's regression bound
	Within   bool    `json:"within"`
}

// WriteLedger writes l as indented JSON.
func WriteLedger(path string, l *Ledger) error {
	l.Schema = SchemaVersion
	b, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadLedger loads a file written by WriteLedger.
func ReadLedger(path string) (*Ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if l.Schema != SchemaVersion {
		return nil, fmt.Errorf("%s: schema %q, this cwxbench reads %q", path, l.Schema, SchemaVersion)
	}
	if len(l.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &l, nil
}

// values collects one metric of one workload across runs.
func values(runs []*Run, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if w := r.Workloads[workload]; w != nil {
			if e, ok := w.Metrics[metric]; ok {
				out = append(out, e.Value)
			}
		}
	}
	return out
}

// AATable splits runs alternately into two sets and compares their medians
// per workload and metric. Alternating keeps a drift of the host out of the
// difference.
func AATable(runs []*Run, workloads []string) []AARow {
	var a, b []*Run
	for i, r := range runs {
		if i%2 == 0 {
			a = append(a, r)
		} else {
			b = append(b, r)
		}
	}
	var rows []AARow
	for _, w := range workloads {
		for _, m := range EndToEnd {
			ma, mb := median(values(a, w, m.Name)), median(values(b, w, m.Name))
			gap := 0.0
			if ma != 0 {
				gap = math.Abs(ma-mb) / math.Abs(ma)
			}
			bound := m.boundOn(w)
			rows = append(rows, AARow{w, m.Name, m.Unit, ma, mb, gap, bound, gap <= bound})
		}
	}
	return rows
}

// PrintAA writes the table and returns whether every row is within its
// bound.
func PrintAA(w io.Writer, rows []AARow) bool {
	ok := true
	fmt.Fprintf(w, "%-12s %-22s %14s %14s %7s %6s\n", "workload", "metric", "median A", "median B", "gap", "bound")
	for _, r := range rows {
		mark := ""
		if !r.Within {
			mark, ok = "  OUTSIDE", false
		}
		fmt.Fprintf(w, "%-12s %-22s %14.4f %14.4f %6.2f%% %5.1f%%%s\n",
			r.Workload, r.Metric, r.MedianA, r.MedianB, r.Gap*100, r.Bound*100, mark)
	}
	return ok
}

// Verdict is the outcome of comparing one metric of one workload.
type Verdict struct {
	Workload, Metric string
	Old, New         float64 // medians
	WorseBy          float64 // share of Old; negative is better
	Pairs, Wins      int     // Wins: pairs in which New was better
	State            string  // regressed, gain, unresolved or same
}

// minPairs is how many pairs of runs the pair rule needs before a gain may
// be claimed.
const minPairs = 10

// Compare judges new against old, metric by metric. A metric regressed when
// new's median is worse than old's by more than the metric's bound and by
// more than the interquartile range of old's own runs. A metric whose runs
// of old spread wider than its bound is otherwise unresolved, not unchanged.
// A gain needs the pair rule: at least minPairs pairs, new better in nine
// tenths of them, and medians further apart than old's interquartile range.
func Compare(old, cur *Ledger, workloads []string) []Verdict {
	var out []Verdict
	for _, w := range workloads {
		for _, m := range EndToEnd {
			ov, nv := values(old.Runs, w, m.Name), values(cur.Runs, w, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			v := Verdict{Workload: w, Metric: m.Name, Old: median(ov), New: median(nv), State: "same"}
			v.WorseBy = m.worseBy(v.Old, v.New)
			v.Pairs = min(len(ov), len(nv))
			for i := 0; i < v.Pairs; i++ {
				if m.worseBy(ov[i], nv[i]) < 0 {
					v.Wins++
				}
			}
			bound, spread := m.boundOn(w), iqrShare(ov)
			switch {
			case v.WorseBy > max(bound, spread):
				v.State = "regressed"
			case spread > bound:
				v.State = "unresolved"
			case v.Pairs >= minPairs && v.Wins*10 >= v.Pairs*9 && -v.WorseBy > spread:
				v.State = "gain"
			}
			out = append(out, v)
		}
	}
	return out
}

// PrintCompare writes the verdicts and returns whether nothing regressed.
func PrintCompare(w io.Writer, vs []Verdict) bool {
	ok := true
	fmt.Fprintf(w, "%-12s %-22s %14s %14s %8s %7s  %s\n", "workload", "metric", "old", "new", "worse by", "wins", "verdict")
	for _, v := range vs {
		if v.State == "regressed" {
			ok = false
		}
		fmt.Fprintf(w, "%-12s %-22s %14.4f %14.4f %7.2f%% %3d/%-3d  %s\n",
			v.Workload, v.Metric, v.Old, v.New, v.WorseBy*100, v.Wins, v.Pairs, v.State)
	}
	return ok
}
