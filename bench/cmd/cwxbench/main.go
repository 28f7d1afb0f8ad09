// Command cwxbench is the repository's benchmark: it builds cwxd, drives a
// fresh daemon per slice over loopback sockets through four serial,
// deterministic workloads, checks what the daemon answered, and prints every
// metric by name with its unit. See bench/README.md.
//
// bench/ is a module of its own, so the commands run from inside it:
//
//	cd bench
//	go run ./cmd/cwxbench                      # full run, ≈3 min
//	go run ./cmd/cwxbench -trace 1             # plus per-layer metrics
//	go run ./cmd/cwxbench -aa 6 -json out.json # A/A table
//	go run ./cmd/cwxbench -compare old.json new.json
//
// The benchmark driver's form, one workload per invocation with the result
// as one JSON object on the last line, goes through bench/run.sh from the
// root of the repository:
//
//	bash bench/run.sh --workload fed --seed 3 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"clusterworx/bench"
)

// onOff is a boolean flag that takes its value as the next argument
// ("-trace 1"), which is how the benchmark driver passes it.
type onOff bool

func (b *onOff) String() string { return strconv.FormatBool(bool(*b)) }
func (b *onOff) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = onOff(v)
	return err
}

// seedFlag takes any number that fits 64 bits, signed or unsigned: a driver
// may draw its seeds from the whole unsigned range.
type seedFlag int64

func (s *seedFlag) String() string { return strconv.FormatInt(int64(*s), 10) }
func (s *seedFlag) Set(v string) error {
	n, err := strconv.ParseInt(v, 0, 64)
	if err != nil {
		var u uint64
		u, err = strconv.ParseUint(v, 0, 64)
		n = int64(u)
	}
	*s = seedFlag(n)
	return err
}

func main() {
	os.Exit(run())
}

func run() (code int) {
	var trace onOff
	seed := seedFlag(1)
	var (
		workloads = flag.String("workloads", strings.Join(bench.WorkloadNames, ","), "comma-separated workloads to run")
		workload  = flag.String("workload", "", "run this one workload and print the driver's JSON result as the last line")
		slices    = flag.Int("slices", 6, "slices per workload; each gets a fresh cwxd")
		sliceS    = flag.Float64("slice-s", 4, "measured seconds per slice; cut to what fits before the daemon's first self-monitor tick, 10 s after it starts")
		seconds   = flag.Float64("seconds", 0, "measured seconds per workload, split evenly over -slices (overrides -slice-s)")
		out       = flag.String("out", "", "directory for the cwxd build and the span files (default bench/out in the repository)")
		jsonOut   = flag.String("json", "", "write the run(s) to this ledger file")
		aa        = flag.Int("aa", 0, "make this many full runs, split them alternately into two sets and compare the sets")
		compare   = flag.Bool("compare", false, "compare two ledger files: cwxbench -compare old.json new.json")
	)
	flag.Var(&seed, "seed", "seeds the node simulators and the change-set generator")
	flag.Var(&trace, "trace", "1: after the untraced slices run one traced slice per workload and report per-layer metrics; spans go to -out")
	flag.Parse()

	names := strings.Split(*workloads, ",")
	if *workload != "" {
		names = []string{*workload}
	}
	if *compare {
		return compareFiles(flag.Args(), names)
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cwxbench:", err)
		return 2
	}
	outDir := filepath.Join(root, "bench", "out")
	if *out != "" {
		if outDir, err = filepath.Abs(*out); err != nil {
			fmt.Fprintln(os.Stderr, "cwxbench:", err)
			return 2
		}
	}
	bin, err := bench.BuildDaemon(root, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cwxbench:", err)
		return 2
	}
	// The generator takes half the machine and leaves the rest to cwxd.
	threads := max(1, runtime.NumCPU()/2)
	runtime.GOMAXPROCS(threads)

	cfg := bench.Config{
		DaemonBin: bin, OutDir: outDir, Workloads: names,
		Slices: *slices, SliceSeconds: *sliceS, Seed: int64(seed), Threads: threads,
	}
	if *seconds > 0 {
		cfg.SliceSeconds = *seconds / float64(cfg.Slices)
	}
	ledger := &bench.Ledger{}
	ok := true
	for i := 0; i < max(1, *aa); i++ {
		r, err := bench.Measure(cfg, root, bool(trace) && i == 0, os.Stdout)
		if errors.Is(err, bench.ErrNoRoom) {
			fmt.Fprintln(os.Stderr, "cwxbench:", err)
			return 2
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cwxbench:", err)
			return 1
		}
		r.Print(os.Stdout, names)
		ok = ok && r.Correct()
		ledger.Runs = append(ledger.Runs, r)
	}
	if *aa > 0 {
		ledger.AA = bench.AATable(ledger.Runs, names)
		if !bench.PrintAA(os.Stdout, ledger.AA) {
			fmt.Println("cwxbench: the two sets of runs disagree by more than a bound")
			ok = false
		}
	}
	if *jsonOut != "" {
		if err := bench.WriteLedger(*jsonOut, ledger); err != nil {
			fmt.Fprintln(os.Stderr, "cwxbench:", err)
			return 2
		}
	}
	if *workload != "" {
		printDriverResult(ledger.Runs[0].Workloads[*workload], bool(trace))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "cwxbench: a correctness check failed")
		return 1
	}
	return 0
}

// printDriverResult prints the one JSON object the benchmark driver reads
// from the last line of standard output.
func printDriverResult(w *bench.WorkloadResult, trace bool) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(w.Errors) == 0 && w.Failed == 0, w.Attempted, w.Failed, map[string]metric{}}
	// An end-to-end metric without a bound for the driver goes with the
	// per-layer metrics.
	for _, m := range bench.EndToEnd {
		if trace == (m.DriverBound == 0) {
			out.Metrics[m.Name] = metric{w.Metrics[m.Name].Value, m.Unit}
		}
	}
	if trace {
		for _, m := range bench.LayerMetrics {
			out.Metrics[m.Name] = metric{w.Layers[m.Name], m.Unit}
		}
	}
	b, _ := json.Marshal(out) //nolint:errcheck // plain numbers and strings
	fmt.Println(string(b))
}

func compareFiles(args, names []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: cwxbench -compare old.json new.json")
		return 2
	}
	var ledgers [2]*bench.Ledger
	for i, path := range args {
		l, err := bench.ReadLedger(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cwxbench:", err)
			return 2
		}
		ledgers[i] = l
	}
	if !bench.PrintCompare(os.Stdout, bench.Compare(ledgers[0], ledgers[1], names)) {
		return 1
	}
	return 0
}

// moduleRoot finds the root of the repository's module, the directory with
// a go.mod and cmd/cwxd, from the working directory upwards (bench/ has a
// go.mod of its own and is passed over). A directory with only the benchmark
// in it has no such root, and the benchmark refuses to run there.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		_, errMod := os.Stat(filepath.Join(dir, "go.mod"))
		_, errCmd := os.Stat(filepath.Join(dir, "cmd", "cwxd"))
		if errMod == nil && errCmd == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no module with cmd/cwxd to benchmark at or above the working directory")
		}
		dir = parent
	}
}
