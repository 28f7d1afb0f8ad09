package bench

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// SchemaVersion is the version of the ledger's JSON. It changes when a
// metric is redefined, so that two files are never compared across a
// definition.
const SchemaVersion = "cwxbench/1"

// MetricDef is one end-to-end metric: what a user of the system would see.
// Time metrics are estimated by the fastest slice, size metrics and the
// set-up time by the median slice.
//
// Bound is the share of the old value by which the metric may get worse
// before -compare and -aa count it as a regression. It holds for full runs:
// slices of the four workloads interleaved over minutes.
//
// DriverBound is the bound BENCHMARK.json gives the metric for the benchmark
// driver, which measures one workload per invocation. A metric whose spread
// between such invocations exceeds 10 % has none (0): the driver's form
// reports it with the per-layer metrics, unbounded. See README.md.
type MetricDef struct {
	Name, Unit   string
	HigherBetter bool
	Bound        float64
	Time         bool
	DriverBound  float64
}

// EndToEnd are the nine end-to-end metrics, the same for every workload.
var EndToEnd = []MetricDef{
	{"setup_s", "s", false, 0.10, false, 0.25},
	{"ops_per_s", "1/s", true, 0.08, true, 0},
	{"round_p50_ms", "ms", false, 0.08, true, 0},
	{"round_p90_ms", "ms", false, 0.10, true, 0},
	{"server_cpu_us_per_op", "us", false, 0.08, true, 0},
	{"peer_cpu_us_per_op", "us", false, 0.08, true, 0},
	{"wire_bytes_per_op", "B", false, 0.01, false, 0.01},
	{"server_allocs_per_op", "1", false, 0.02, false, 0.25},
	{"server_heap_mb", "MB", false, 0.03, false, 0.03},
}

// boundOn is m's bound on one workload. fed's allocation count is the one
// figure that is not fixed by the script: most of it is the root's watch
// stream rendering the sentinel again for each wake-up that ingest of a
// batch causes, and how many wake-ups conflate depends on how cwxd's threads
// interleave. It gets the widest bound issue 13 allows.
func (m MetricDef) boundOn(workload string) float64 {
	if workload == "fed" && m.Name == "server_allocs_per_op" {
		return 0.10
	}
	return m.Bound
}

// estimate reduces one metric's per-slice values to the reported value.
func (m MetricDef) estimate(vals []float64) float64 {
	if m.Time {
		return fastest(vals, m.HigherBetter)
	}
	return median(vals)
}

// worseBy is how much worse cur is than old, as a share of old; negative
// when cur is better.
func (m MetricDef) worseBy(old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	if m.HigherBetter {
		return (old - cur) / old
	}
	return (cur - old) / old
}

// Estimate is a reported value and the number of slices behind it.
type Estimate struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// WorkloadResult is everything one run learned about one workload.
type WorkloadResult struct {
	Rounds    int                 `json:"rounds"`
	Attempted int64               `json:"ops_attempted"`
	Failed    int64               `json:"ops_failed"`
	Metrics   map[string]Estimate `json:"metrics"`
	Layers    map[string]float64  `json:"layers,omitempty"`
	Errors    []string            `json:"errors,omitempty"`
	Slices    []SliceResult       `json:"slices"`
}

// Meta says where and on what a run was measured.
type Meta struct {
	Host         string  `json:"host"`
	OS           string  `json:"os"`
	CPUs         int     `json:"cpus"`
	Go           string  `json:"go"`
	Commit       string  `json:"commit"`
	Started      string  `json:"started"`
	Seed         int64   `json:"seed"`
	Slices       int     `json:"slices"`
	SliceSeconds float64 `json:"slice_seconds"`
	Threads      int     `json:"generator_threads"`
	WallSeconds  float64 `json:"wall_seconds"`
}

// Run is one full measurement: every slice of every selected workload.
type Run struct {
	Schema    string                     `json:"schema"`
	Meta      Meta                       `json:"meta"`
	Workloads map[string]*WorkloadResult `json:"workloads"`
}

// Correct reports whether every check of every slice passed.
func (r *Run) Correct() bool {
	for _, w := range r.Workloads {
		if len(w.Errors) > 0 || w.Failed > 0 {
			return false
		}
	}
	return true
}

func newMeta(cfg Config, root string) Meta {
	host, _ := os.Hostname()
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return Meta{
		Host: host, OS: runtime.GOOS + "/" + runtime.GOARCH, CPUs: runtime.NumCPU(),
		Go: runtime.Version(), Commit: commit, Started: time.Now().UTC().Format(time.RFC3339),
		Seed: cfg.Seed, Slices: cfg.Slices, SliceSeconds: cfg.SliceSeconds, Threads: cfg.Threads,
	}
}

// Measure runs cfg.Slices untraced slices of every workload, interleaved
// (flat, fed, query_hot, query_churn, flat, …) so that a slow minute on a
// shared host hits all of them alike. With trace it then replays each
// workload's seeded inputs for one traced slice, writes its spans to
// cfg.OutDir and adds the per-layer metrics. progress gets a line per slice.
func Measure(cfg Config, root string, trace bool, progress io.Writer) (*Run, error) {
	start := time.Now()
	run := &Run{Schema: SchemaVersion, Meta: newMeta(cfg, root), Workloads: map[string]*WorkloadResult{}}
	for _, name := range cfg.Workloads {
		run.Workloads[name] = &WorkloadResult{Metrics: map[string]Estimate{}}
	}
	slice := func(name string, traced bool) (SliceResult, error) {
		res, err := RunSlice(cfg, name, traced)
		w := run.Workloads[name]
		if err != nil {
			w.Errors = append(w.Errors, err.Error())
			return res, err
		}
		w.Errors = append(w.Errors, res.Errors...)
		kind := "slice "
		if traced {
			kind = "traced"
		}
		fmt.Fprintf(progress, "# %-11s %s %6d rounds in %.1fs %9.0f ops/s  setup %.2fs\n",
			name, kind, res.Rounds, res.WindowS, res.Metrics["ops_per_s"], res.Metrics["setup_s"])
		return res, nil
	}
	for s := 0; s < cfg.Slices; s++ {
		for _, name := range cfg.Workloads {
			res, err := slice(name, false)
			if err != nil {
				return run, err
			}
			w := run.Workloads[name]
			w.Slices = append(w.Slices, res)
			w.Rounds += res.Rounds
			w.Attempted += res.Attempted
			w.Failed += res.Failed
		}
	}
	for _, name := range cfg.Workloads {
		w := run.Workloads[name]
		for _, m := range EndToEnd {
			vals := make([]float64, len(w.Slices))
			for i, s := range w.Slices {
				vals[i] = s.Metrics[m.Name]
			}
			w.Metrics[m.Name] = Estimate{Value: m.estimate(vals), Unit: m.Unit, Samples: len(vals)}
		}
	}
	if trace {
		for _, name := range cfg.Workloads {
			res, err := slice(name, true)
			if err != nil {
				return run, err
			}
			w := run.Workloads[name]
			var ops []float64
			for _, s := range w.Slices {
				ops = append(ops, s.Metrics["ops_per_s"])
			}
			best := w.Metrics["ops_per_s"].Value
			res.Layers["trace.overhead_pct"] = (best - res.Metrics["ops_per_s"]) / best * 100
			res.Layers["host.slice_spread_pct"] = spreadPct(ops)
			fillLayers(res.Layers)
			w.Layers = res.Layers
		}
	}
	run.Meta.WallSeconds = time.Since(start).Seconds()
	return run, nil
}

// writeSpans is called by a traced slice to leave its span file behind.
func writeSpans(cfg Config, name string, tr *Tracer) error {
	if cfg.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	return tr.WriteFile(filepath.Join(cfg.OutDir, "trace-"+name+".json"))
}

// Print writes every metric by name with its unit.
func (r *Run) Print(w io.Writer, order []string) {
	for _, name := range order {
		wl := r.Workloads[name]
		if wl == nil {
			continue
		}
		fmt.Fprintf(w, "%s: %d slices, %d rounds, ops_attempted %d, ops_failed %d\n",
			name, len(wl.Slices), wl.Rounds, wl.Attempted, wl.Failed)
		for _, m := range EndToEnd {
			e := wl.Metrics[m.Name]
			est := "median"
			if m.Time {
				est = "fastest"
			}
			fmt.Fprintf(w, "  %s/%-22s %14.4f %-4s (%s of %d slices)\n", name, m.Name, e.Value, e.Unit, est, e.Samples)
		}
		for _, m := range LayerMetrics {
			if v, ok := wl.Layers[m.Name]; ok {
				fmt.Fprintf(w, "  %s/%-32s %14.4f %s\n", name, m.Name, v, m.Unit)
			}
		}
		for _, e := range wl.Errors {
			fmt.Fprintf(w, "  FAILED %s: %s\n", name, e)
		}
	}
}
