# Standard pre-merge gate. `make check` is what CI (and humans) run
# before merging: formatting, vet, a full build, the repo's invariant
# linter, and the test suite under the race detector.

GO ?= go

.PHONY: check fmt vet build lint lint-escape lockgraph test race determinism bench bench-smoke bench-test fuzz-smoke faultinject examples loc heap-sites

check: fmt vet build lint race

# The `|| { ...; exit 1; }` matters: without it a gofmt crash (e.g. a
# parse error) leaves $$out empty and the gate silently passes.
fmt:
	@out="$$(gofmt -l .)" || { echo "gofmt itself failed"; exit 1; }; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# cwxlint: the dependency-free invariant analyzers — per-function
# (hotpath, clockdet, lockscope, atomicmix) and whole-program
# (lockorder, golife, staticalloc) — see internal/lint. Runs all seven:
# the staticalloc escape gate is on by default (-escapes). Accepted
# pre-existing findings live in .cwxlint-baseline; regenerate it with
# `go run ./cmd/cwxlint -update-baseline`. Exit codes: 0 clean,
# 1 findings, 2 analysis failed.
lint:
	$(GO) run ./cmd/cwxlint

# Escape-regression gate in isolation: staticalloc against a fresh
# -gcflags=-m build, with the six source analyzers still applied (they
# are cheap; the build dominates). CI runs this as its own step so an
# escape regression is named in the job list, not buried in `check`.
lint-escape:
	$(GO) run ./cmd/cwxlint -escapes

# Render the whole-program lock-acquisition graph (lock classes with
# their //cwx:lockrank levels, acquired-while-held edges, inversions in
# red). CI uploads the DOT as a build artifact on every run.
lockgraph:
	$(GO) run ./cmd/cwxlint -lockgraph cwx-lockorder.dot

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run-to-run determinism: one seed, one outcome. Each test compares
# runs of the same input (a reimaged sim, the ctl transcript, a tree
# against its flat control, an uplink's payloads); -count=3 repeats them
# under fresh map-iteration seeds, so any result that leans on Go map
# order fails here instead of flaking later.
determinism:
	$(GO) test -count=3 -run 'TestSimSameSeedSameState|TestGoldenCtl|TestFedLossKillRejoinConverges|TestUplinkSameInputSameBytes' ./internal/core/

# Regenerate the benchmark tables behind EXPERIMENTS.md.
bench:
	$(GO) test -bench=. -benchmem .

# Fast CI sanity pass over the hot-path benchmarks: proves the ingest
# path still runs with 0 allocs/update, the telemetry ablation pair
# still compiles and executes, the history engine's append, summary
# queries and young-series footprint (E19) still run, and the table views
# still rebuild after one write at 1 024 nodes (E20Rebuild*). Not a
# performance measurement (-benchtime 10x), just a smoke test.
bench-smoke:
	$(GO) test -run NONE -bench 'E15IngestParallel64$$|AblationTelemetry|E19HistoryAppend$$|E19HistoryStatsFull$$|E19HistoryCompare$$|E19HistoryYoungStore$$|E19HistoryBytesPerSample$$|E20StatusHit$$|E20MixedReadWriteCached$$|E20Rebuild(Status|Compare|Efficiency)1k$$|E21Flight|E21JournalAppend$$|E22Wire|E23FedPropagationSmall$$|E23FlatPropagationSmall$$|E23UplinkEncode' -benchtime 10x -benchmem .

# The benchmark harness is a module of its own (bench/go.mod), so neither
# tier-1 `go test ./...` nor `make check` reaches its tests: the contract
# test that holds BENCHMARK.json to the package, the generator and
# statistics tests, and an in-process smoke run of every workload's rounds.
bench-test:
	cd bench && $(GO) test ./...

# Short fuzz run over the wire-protocol parsers, the history block codec
# and persistence loader (v3 and v4 files), the wire's value coder, the table views' row renderer (against the fmt verbs it replaces),
# the event rule-file parser, the ICE Box command core and the ctl request
# line (any line: no panic, an OK/ERR block, cached ≡ uncached):
# each target gets ~10s, long enough to re-cover the grammar from the
# checked-in seeds without stalling CI. The saved corpus under internal/transmit/testdata/fuzz
# replays on every plain `go test` as regression inputs.
fuzz-smoke:
	$(GO) test ./internal/transmit/ -fuzz FuzzParseFrame -fuzztime 10s -run NONE
	$(GO) test ./internal/transmit/ -fuzz FuzzReadFrame -fuzztime 10s -run NONE
	$(GO) test ./internal/transmit/ -fuzz FuzzDecodeFrameV2 -fuzztime 10s -run NONE
	$(GO) test ./internal/transmit/ -fuzz FuzzDecodeBatchV2 -fuzztime 10s -run NONE
	$(GO) test ./internal/history/ -fuzz FuzzBlockCodec -fuzztime 10s -run NONE
	$(GO) test ./internal/history/ -fuzz FuzzLoadFrom -fuzztime 10s -run NONE
	$(GO) test ./internal/history/ -fuzz FuzzValueCodec -fuzztime 10s -run NONE
	$(GO) test ./internal/dashboard/ -fuzz FuzzRowMatchesFmt -fuzztime 10s -run NONE
	$(GO) test ./internal/events/ -fuzz FuzzParseRules -fuzztime 10s -run NONE
	$(GO) test ./internal/icebox/ -fuzz FuzzHandleCommand -fuzztime 10s -run NONE
	$(GO) test ./internal/core/ -fuzz FuzzHandleCtl -fuzztime 10s -run NONE

# Fault-injection suite for the loss-tolerant delta protocol: seeded
# loss/blackhole/partition schedules over simnet, under the race
# detector. Seeds are fixed in the tests, so failures reproduce exactly.
faultinject:
	$(GO) test -race -count=1 -v \
		-run 'TestLossToleranceConverges|TestLegacyProtocolDivergesUnderLoss|TestInProcessSimIsSequenced|TestPartitionHealRetransmits|TestMixedVersionClusterConverges|TestHandleFrameConcurrent|TestFedLossKillRejoinConverges|TestBlackholeDropsEverything|TestScheduleAtDrivesFaults|TestLossDropsFraction' \
		./internal/core/ ./internal/simnet/

# Runs the examples that drive a whole simulated cluster through the
# in-process agent link (sequenced frames straight into the server, the
# path cwxd -sim-nodes hosts); each must exit 0.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/thermal-runaway
	$(GO) run ./examples/rolling-update

# Where a root server's bytes per node go: loads the benchmark's tree
# (1 024 nodes × 34 values × 16 samples) in process through a real batch
# session with every allocation sampled, and prints the twelve allocation
# sites holding the most live heap (TestHeapSites, heap_sites_test.go).
# CI uploads the table; a heap PR quotes it before and after.
heap-sites:
	$(GO) test -run 'TestHeapSites$$' -count=1 -memprofilerate 1 . -args -heap-sites cwx-heap-sites.txt
	@cat cwx-heap-sites.txt

# Non-test Go lines per package and in total, for the root module and for
# the benchmark module: the number simplicity acceptances quote ("non-test
# lines"), so nobody recomputes it by hand. Counts every line of every
# .go file not named *_test.go, comments and blanks included; testdata
# directories are not source.
loc:
	@sum() { awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'; }; \
	src="-name *.go ! -name *_test.go ! -path */testdata/*"; set -f; \
	echo "== root module"; find . $$src ! -path './bench/*' -exec wc -l {} + | sum; \
	echo "== bench module"; find bench $$src -exec wc -l {} + | sum
