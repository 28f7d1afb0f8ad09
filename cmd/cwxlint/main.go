// Command cwxlint runs the repository's invariant analyzers — the
// per-function checks (clockdet, atomicmix) and the whole-program ones
// (lockorder, staticalloc) — see internal/lint.
//
// Usage:
//
//	go run ./cmd/cwxlint [-root dir] [-baseline file] [-update-baseline]
//	    [-json] [-lockgraph file.dot]
//
// Exit code contract (stable, for CI and editor integration):
//
//	0 — clean: no fresh findings (baselined findings do not count)
//	1 — findings: at least one fresh finding was reported
//	2 — the analysis itself failed (load / type-check / build error)
//
// -json emits one self-contained JSON object per finding per line on
// stdout instead of the file:line:col text form. Every run builds the
// module with `go build -gcflags=-m` and feeds the compiler's escape
// decisions to staticalloc. -lockgraph writes the whole-program
// lock-acquisition graph as Graphviz DOT and exits (CI uploads it as a
// build artifact).
//
// Accepted pre-existing findings live in .cwxlint-baseline at the module
// root; -update-baseline rewrites it from the current findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"clusterworx/internal/lint"
)

func main() {
	root := flag.String("root", ".", "module root to analyze")
	baseline := flag.String("baseline", "", "baseline file (default <root>/"+lint.BaselineName+")")
	update := flag.Bool("update-baseline", false, "rewrite the baseline from current findings and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON, one object per line")
	lockgraph := flag.String("lockgraph", "", "write the lock-acquisition graph as DOT to this file and exit")
	flag.Parse()

	if err := run(*root, *baseline, *lockgraph, *update, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "cwxlint:", err)
		os.Exit(2)
	}
}

func run(root, baselinePath, lockgraph string, update, jsonOut bool) error {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if baselinePath == "" {
		baselinePath = filepath.Join(absRoot, lint.BaselineName)
	}

	pkgs, module, err := lint.Load(absRoot)
	if err != nil {
		return err
	}
	cfg := lint.Config{Module: module}

	if lockgraph != "" {
		dot := lint.LockGraphDOT(pkgs, cfg)
		if lockgraph == "-" {
			fmt.Print(dot)
			return nil
		}
		if err := os.WriteFile(lockgraph, []byte(dot), 0o644); err != nil {
			return err
		}
		fmt.Printf("cwxlint: wrote lock-acquisition graph to %s\n", lockgraph)
		return nil
	}

	if cfg.Escapes, err = lint.GoBuildEscapes(absRoot, "./..."); err != nil {
		return err
	}

	diags := lint.Run(pkgs, cfg)

	if update {
		if err := lint.WriteBaseline(baselinePath, absRoot, diags); err != nil {
			return err
		}
		fmt.Printf("cwxlint: wrote %d finding(s) to %s\n", len(diags), baselinePath)
		return nil
	}

	base, err := lint.ReadBaseline(baselinePath)
	if err != nil {
		return err
	}
	fresh, stale := lint.ApplyBaseline(diags, absRoot, base)
	for _, k := range stale {
		fmt.Printf("cwxlint: stale baseline entry (no longer produced): %s\n", k)
	}
	if len(fresh) > 0 {
		for _, d := range fresh {
			if jsonOut {
				fmt.Println(d.JSON(absRoot))
				continue
			}
			rel := d
			if r, err := filepath.Rel(absRoot, d.Pos.Filename); err == nil {
				rel.Pos.Filename = r
			}
			fmt.Println(rel.String())
		}
		if !jsonOut {
			fmt.Printf("cwxlint: %d finding(s) in %d package(s)\n", len(fresh), len(pkgs))
		}
		os.Exit(1)
	}
	if !jsonOut {
		fmt.Printf("cwxlint: ok (%d packages, %d baselined finding(s))\n", len(pkgs), len(diags)-len(fresh))
	}
	return nil
}
