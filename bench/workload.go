package bench

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// WorkloadNames are the four workloads, in the order their slices are
// interleaved.
var WorkloadNames = []string{"flat", "fed", "query_hot", "query_churn"}

// Scale of the synthetic tree and of a round. Every later performance claim
// is measured at these sizes.
const (
	treeNodes  = 1024
	fedTouched = 256  // node updates one fed round propagates
	flatTicks  = 1024 // agent periods per flat round
	fedSamples = 16   // history depth loaded before fed rounds
	// The query workloads load 64 points into the series their script
	// reads and 4 into the rest: 64 everywhere takes cwxd 4–6 s, which
	// leaves a slice too little of the 10 s before cwxd's first self-monitor
	// tick moves a generation behind the script's back.
	queryFullSamples  = 4
	queryNamedSamples = 60
	scriptRequests    = 8
	barrierLimit      = 2 * time.Second
	// laps is how many separately measured parts a slice's window has; the
	// fastest one counts.
	laps = 3
	// selfMonitorPeriod is cwxd's shipped -self-monitor default. At its first
	// tick the daemon ingests its own telemetry as one more node, which moves a
	// generation behind the script's back and changes the work per op: 1025
	// nodes, one more rebuild. A slice therefore ends, closing counter read
	// included, before its daemon is that old; tickGuard is the room left for
	// that read.
	selfMonitorPeriod = 10 * time.Second
	tickGuard         = 500 * time.Millisecond
)

// ErrNoRoom is returned for a slice that has less than half of its window
// left between the end of set-up and its daemon's first self-monitor tick:
// the host is too slow, or -slice-s too long, for that workload's set-up. It
// is a refusal to measure, not a failed check.
var ErrNoRoom = errors.New("slice does not fit before cwxd's first self-monitor tick")

// Config is what one invocation measures.
type Config struct {
	DaemonBin    string
	OutDir       string // span files go here
	Workloads    []string
	Slices       int
	SliceSeconds float64
	Seed         int64
	Threads      int // generator threads: max(1, nproc/2)
}

// env is what a workload sees of the slice it runs in.
type env struct {
	cfg     Config
	d       *Daemon
	tr      *Tracer            // nil in an untraced slice
	metrics map[string]float64 // the slice's end-to-end metrics so far
	serve   serveCounters      // set before check runs
	layers  map[string]float64
}

// workload is one closed-loop traffic shape. The runner calls setup, then
// warmup rounds, then rounds until the slice's time is up, then drain and
// check. A round is what is timed; it returns the ops it completed.
type workload interface {
	daemonFlags() []string
	setup(e *env) error
	warmupRounds() int
	opsPerRound() int
	round(e *env, r int) error
	drain(e *env) error
	check(e *env) error
	// layers runs after check on a traced slice, while the daemon is still
	// up, and adds the per-layer metrics only this workload can measure.
	layers(e *env) error
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "flat":
		return &flatWorkload{}, nil
	case "fed":
		return &fedWorkload{}, nil
	case "query_hot":
		return &queryWorkload{}, nil
	case "query_churn":
		return &queryWorkload{churn: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, WorkloadNames)
}

// SliceResult is one slice's value for every metric.
type SliceResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Rounds    int                `json:"rounds"`
	WindowS   float64            `json:"window_s"` // SliceSeconds, or what fitted before the daemon's tick
	Attempted int64              `json:"ops_attempted"`
	Failed    int64              `json:"ops_failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Laps holds each lap's value of the time metrics; Metrics has the
	// fastest.
	Laps   []map[string]float64 `json:"laps,omitempty"`
	Layers map[string]float64   `json:"layers,omitempty"`
	Errors []string             `json:"errors,omitempty"`
}

// sliceLimit bounds a slice from exec to kill.
func sliceLimit(sliceSeconds float64) time.Duration {
	return time.Duration((sliceSeconds + 20) * float64(time.Second))
}

// RunSlice measures one slice of one workload against a fresh daemon.
func RunSlice(cfg Config, name string, traced bool) (res SliceResult, err error) {
	res = SliceResult{Workload: name, Traced: traced, Metrics: map[string]float64{}}
	w, err := newWorkload(name)
	if err != nil {
		return res, err
	}
	d, err := StartDaemon(cfg.DaemonBin, w.daemonFlags()...)
	if err != nil {
		return res, err
	}
	defer d.Kill()
	// Killing the daemon closes every socket the workload waits on, so a
	// hung slice ends as a failed one.
	watchdog := time.AfterFunc(sliceLimit(cfg.SliceSeconds), d.Kill)
	defer watchdog.Stop()

	e := &env{cfg: cfg, d: d, metrics: res.Metrics, layers: map[string]float64{}}
	defer w.close()
	if err := w.setup(e); err != nil {
		return res, fmt.Errorf("%s set-up: %w", name, err)
	}
	// Warm-up is a fixed number of rounds, not a fixed time, so every slice
	// reaches the measurements below in the same state.
	round := 0
	fixedRounds := func(phase string) error {
		for end := round + w.warmupRounds(); round < end; round++ {
			if err := w.round(e, round); err != nil {
				return fmt.Errorf("%s %s round %d: %w", name, phase, round, err)
			}
		}
		if err := w.drain(e); err != nil {
			return fmt.Errorf("%s %s drain: %w", name, phase, err)
		}
		return nil
	}
	if err := fixedRounds("warm-up"); err != nil {
		return res, err
	}
	m := res.Metrics
	m["setup_s"] = time.Since(d.Started).Seconds()

	// Size metrics are counted over a second fixed run of rounds, before the
	// timed window: the work is the same in every slice of a seed, so the
	// counts do not depend on how many rounds the host lets the window fit.
	// The forced collection makes HeapAlloc the live heap and starts the
	// count from a collected heap.
	ms0, err := d.MemStats(true)
	if err != nil {
		return res, err
	}
	// Reading the statistics allocates in cwxd as well: the heap profile is
	// rendered around them. A second read straight after the first shows what
	// one read costs, and the count leaves that out.
	msIdle, err := d.MemStats(false)
	if err != nil {
		return res, err
	}
	readCost := float64(msIdle.Mallocs - ms0.Mallocs)
	wire0 := d.WireBytes()
	if err := fixedRounds("count"); err != nil {
		return res, err
	}
	ms1, err := d.MemStats(false)
	if err != nil {
		return res, err
	}
	counted := float64(w.warmupRounds() * w.opsPerRound())
	m["wire_bytes_per_op"] = float64(d.WireBytes()-wire0) / counted
	m["server_allocs_per_op"] = (float64(ms1.Mallocs-msIdle.Mallocs) - readCost) / counted
	m["server_heap_mb"] = float64(ms0.HeapAlloc) / (1 << 20)

	if traced {
		e.tr = NewTracer()
	}
	tel0, err := d.Telemetry()
	if err != nil {
		return res, err
	}

	// The timed window runs as laps, each measured on its own. A slice's
	// value for a time metric is its fastest lap's: the host's slow spells
	// last seconds, and a lap is short enough to fall between them. The
	// window is cut to what is left before the daemon's self-monitor tick.
	window := time.Duration(cfg.SliceSeconds * float64(time.Second))
	if room := time.Until(d.Started.Add(selfMonitorPeriod - tickGuard)); room < window {
		if room < window/2 {
			return res, fmt.Errorf("%s: %w: set-up took %.1f s, which leaves %.1f s of a %.1f s window",
				name, ErrNoRoom, time.Since(d.Started).Seconds(), room.Seconds(), window.Seconds())
		}
		window = room
	}
	res.WindowS = window.Seconds()
	var allMs []float64
	var first, last procSample
	for lap := 0; lap < laps && len(res.Errors) == 0; lap++ {
		lr, err := runLap(e, w, &round, window/laps)
		if err != nil {
			return res, err
		}
		if lap == 0 {
			first = lr.ps0
		}
		last = lr.ps1
		res.Attempted += lr.attempted
		res.Failed += lr.failed
		res.Errors = append(res.Errors, lr.errors...)
		allMs = append(allMs, lr.roundMs...)
		if lr.metrics != nil {
			res.Laps = append(res.Laps, lr.metrics)
		}
	}
	res.Rounds = len(allMs)
	ops := float64(res.Attempted - res.Failed)
	if len(res.Laps) == 0 {
		return res, fmt.Errorf("%s: no lap completed: %v", name, res.Errors)
	}
	for _, def := range EndToEnd {
		if _, perLap := res.Laps[0][def.Name]; !perLap {
			continue
		}
		vals := make([]float64, len(res.Laps))
		for i, lap := range res.Laps {
			vals[i] = lap[def.Name]
		}
		m[def.Name] = fastest(vals, def.HigherBetter)
	}
	// The 90th percentile is taken over the whole window, so that it has at
	// least ten rounds beyond it even when the window was cut short.
	sort.Float64s(allMs)
	m["round_p90_ms"] = percentile(allMs, 90)

	tel1, err := d.Telemetry()
	if err != nil {
		return res, err
	}
	e.serve = serveCounters{
		hits:   tel1["cwx_serve_hits_total"] - tel0["cwx_serve_hits_total"],
		misses: tel1["cwx_serve_misses_total"] - tel0["cwx_serve_misses_total"],
		rounds: float64(res.Rounds),
	}
	if traced {
		ms2, err := d.MemStats(false)
		if err != nil {
			return res, err
		}
		l := e.layers
		l["round_p99_ms"] = percentile(allMs, 99)
		l["cwxd.ctx_switches_per_op"] = float64(last.ctxSwitches-first.ctxSwitches) / ops
		l["cwxd.rss_peak_mb"] = float64(last.rssPeakKB) / 1024
		l["cwxd.gc_cycles"] = float64(ms2.NumGC - ms1.NumGC)
		l["cwxd.alloc_bytes_per_op"] = float64(ms2.TotalAlloc-ms1.TotalAlloc) / ops
		serveLayers(l, tel0, tel1, e.serve)
		res.Layers = l
	}
	if len(res.Errors) == 0 {
		if err := w.check(e); err != nil {
			res.Errors = append(res.Errors, "check: "+err.Error())
		}
	}
	if traced && len(res.Errors) == 0 {
		if err := w.layers(e); err != nil {
			res.Errors = append(res.Errors, "layers: "+err.Error())
		}
		if err := writeSpans(cfg, name, e.tr); err != nil {
			res.Errors = append(res.Errors, "spans: "+err.Error())
		}
	}
	return res, nil
}

// lapResult is one lap of a slice's timed window.
type lapResult struct {
	metrics           map[string]float64 // nil when the lap failed
	roundMs           []float64
	attempted, failed int64
	errors            []string
	ps0, ps1          procSample
}

// runLap runs rounds for d and measures them. A round that fails ends the
// lap and the slice: the session is in an unknown state.
func runLap(e *env, w workload, round *int, d time.Duration) (lr lapResult, err error) {
	if lr.ps0, err = sampleProcess(e.d.Pid()); err != nil {
		return lr, err
	}
	self0, err := selfCPUNs()
	if err != nil {
		return lr, err
	}
	t0 := time.Now()
	for time.Since(t0) < d {
		rt := time.Now()
		rerr := w.round(e, *round)
		lr.roundMs = append(lr.roundMs, float64(time.Since(rt))/1e6)
		*round++
		lr.attempted += int64(w.opsPerRound())
		if rerr != nil {
			lr.failed += int64(w.opsPerRound())
			lr.errors = append(lr.errors, fmt.Sprintf("round %d: %v", *round-1, rerr))
			return lr, nil
		}
	}
	if derr := w.drain(e); derr != nil {
		lr.errors = append(lr.errors, "drain: "+derr.Error())
		return lr, nil
	}
	wall := time.Since(t0)
	if lr.ps1, err = sampleProcess(e.d.Pid()); err != nil {
		return lr, err
	}
	self1, err := selfCPUNs()
	if err != nil {
		return lr, err
	}
	ops := float64(lr.attempted)
	sorted := sortedCopy(lr.roundMs)
	lr.metrics = map[string]float64{
		"ops_per_s":            ops / wall.Seconds(),
		"round_p50_ms":         percentile(sorted, 50),
		"server_cpu_us_per_op": float64(lr.ps1.cpuNs-lr.ps0.cpuNs) / 1e3 / ops,
		"peer_cpu_us_per_op":   float64(self1-self0) / 1e3 / ops,
	}
	return lr, nil
}

// serveCounters are the serving plane's counter deltas over a slice's
// window. Rendering the closing telemetry asks the plane for one status
// snapshot, which is in the delta: a hit on the query workloads, where the
// script's own status request came last, and one extra rebuild on flat and
// fed.
type serveCounters struct{ hits, misses, rounds float64 }

// serveLayers turns the daemon's counter deltas over the window into the
// serving plane's per-layer metrics.
func serveLayers(l, t0, t1 map[string]float64, c serveCounters) {
	delta := func(name string) float64 { return t1[name] - t0[name] }
	if c.hits+c.misses > 0 {
		l["serve.hit_ratio"] = c.hits / (c.hits + c.misses)
	}
	l["serve.rebuilds_per_round"] = c.misses / c.rounds
	l["serve.coalesced"] = delta("cwx_serve_coalesced_total")
	l["serve.watch_pushes_per_round"] = delta("cwx_serve_watch_pushes_total") / c.rounds
	l["ingest.seq_gaps"] = delta("cwx_ingest_seq_gaps_total")
}
