// Command cwxlint runs the repository's invariant analyzers — the
// per-function checks (clockdet, atomicmix) and the whole-program ones
// (lockorder, staticalloc) — see internal/lint.
//
// Usage:
//
//	go run ./cmd/cwxlint [-root dir] [-json] [-lockgraph file.dot]
//
// Exit code contract (stable, for CI and editor integration):
//
//	0 — clean: no findings (a //cwx:allow suppresses one in place)
//	1 — findings: at least one finding was reported
//	2 — the analysis itself failed (load / type-check / build error)
//
// -json emits one self-contained JSON object per finding per line on
// stdout instead of the file:line:col text form. Every run builds the
// module with `go build -gcflags=-m` and feeds the compiler's escape
// decisions to staticalloc. -lockgraph writes the whole-program
// lock-acquisition graph as Graphviz DOT and exits (CI uploads it as a
// build artifact).
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
	jsonOut := flag.Bool("json", false, "emit findings as JSON, one object per line")
	lockgraph := flag.String("lockgraph", "", "write the lock-acquisition graph as DOT to this file and exit")
	flag.Parse()

	if err := run(*root, *lockgraph, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "cwxlint:", err)
		os.Exit(2)
	}
}

func run(root, lockgraph string, jsonOut bool) error {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return err
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

	if diags := lint.Run(pkgs, cfg); len(diags) > 0 {
		for _, d := range diags {
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
			fmt.Printf("cwxlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		}
		os.Exit(1)
	}
	if !jsonOut {
		fmt.Printf("cwxlint: ok (%d packages)\n", len(pkgs))
	}
	return nil
}
