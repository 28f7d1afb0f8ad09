// This file holds what cwxd's main fills its daemon with: the history
// file, the rules, and the pprof and /metrics endpoint.

package main

import (
	"errors"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only with -pprof
	"os"
	"path/filepath"

	"clusterworx/internal/core"
	"clusterworx/internal/events"
	"clusterworx/internal/history"
)

// historyFile is -history-file: the daemon's history between processes.
type historyFile string

// Load merges the snapshot at path, if there is one. A file that does not
// load is renamed to path+".unreadable" before anything can save over it —
// the first save would otherwise replace it with whatever merged before
// the error — and the daemon starts with what did merge.
func (path historyFile) Load(st *history.Store) error {
	f, err := os.Open(string(path))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err == nil {
		err = st.LoadFrom(f)
		f.Close()
	}
	if err == nil {
		log.Printf("cwxd: history restored from %s", path)
	} else if rerr := os.Rename(string(path), string(path)+".unreadable"); rerr != nil {
		log.Printf("cwxd: history load: %v; keeping the file failed: %v", err, rerr)
	} else {
		log.Printf("cwxd: history load: %v; kept the file as %s.unreadable", err, path)
	}
	return nil
}

// Save replaces the snapshot at path (see saveHistory).
func (path historyFile) Save(st *history.Store) error {
	err := saveHistory(st.SaveTo, string(path))
	if err != nil {
		log.Printf("cwxd: history save: %v", err)
	}
	return err
}

// saveHistory replaces the snapshot at path so that, whatever fails and
// whenever the machine stops, path holds either the previous snapshot or
// the new one, whole: the new bytes go to a temp file that is synced
// before it is renamed over path — a rename can reach the disk before the
// data it names — and the directory is synced after, so the rename itself
// survives. A failed save removes the temp file and leaves path alone.
func saveHistory(save func(io.Writer) error, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // best effort: the save has already failed with err
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// readRules is -rules: the administrator's rule file when given,
// otherwise the protective defaults every deployment ships with.
func readRules(rulesFile string) ([]events.Rule, error) {
	if rulesFile == "" {
		return []events.Rule{
			{Name: "overtemp", Metric: "hw.temp.cpu", Op: events.GT, Threshold: 85, Action: events.ActPowerOff, Notify: true},
			{Name: "fan-failure", Metric: "hw.fan.ok", Op: events.LT, Threshold: 1, Sustain: 2, Notify: true},
			{Name: "swap-storm", Metric: "swap.used.pct", Op: events.GT, Threshold: 90, Notify: true},
			{Name: "load-runaway", Metric: "load.1", Op: events.GT, Threshold: 50, Sustain: 5, Notify: true},
		}, nil
	}
	f, err := os.Open(rulesFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rules, err := events.ParseRules(f)
	if err == nil {
		log.Printf("cwxd: %d event rules loaded from %s", len(rules), rulesFile)
	}
	return rules, err
}

// servePprof serves net/http/pprof and the Prometheus /metrics page.
func servePprof(addr string, srv *core.Server) {
	http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := srv.WriteTelemetry(w); err != nil {
			log.Printf("cwxd: /metrics: %v", err)
		}
	})
	go func() {
		log.Printf("cwxd: pprof and /metrics on http://%s", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("cwxd: pprof server: %v", err)
		}
	}()
}
