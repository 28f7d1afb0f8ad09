# Standard pre-merge gate. `make check` is what CI (and humans) run
# before merging: formatting, vet, a full build, the repo's invariant
# linter, and the test suite under the race detector.

GO ?= go

.PHONY: check fmt vet build lint lockgraph test race determinism bench bench-smoke bench-test fuzz-smoke faultinject examples loc heap-sites alloc-sites

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
# (clockdet, atomicmix) and whole-program (lockorder, staticalloc) — see
# internal/lint; each is kept only while no test catches its bug class
# (DESIGN.md "Correctness tooling"). staticalloc reads a fresh
# -gcflags=-m build on every run; the TestAllocGate* tests (`make test`:
# they skip under -race) count the allocations that do not escape. An
# accepted finding is suppressed in place, by `//cwx:allow <analyzer>
# -- reason` on its line or the line above. Exit codes: 0 clean,
# 1 findings, 2 analysis failed.
lint:
	$(GO) run ./cmd/cwxlint

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
# against its flat control — with a leaf killed, or with every tier
# restarted or killed — an uplink's payloads); -count=3 repeats them
# under fresh map-iteration seeds, so any result that leans on Go map
# order fails here instead of flaking later.
determinism:
	$(GO) test -count=3 -run 'TestSimSameSeedSameState|TestGoldenCtl|TestFedLossKillRejoinConverges|TestSimRestartEveryTier|TestUplinkSameInputSameBytes' ./internal/core/

# Regenerate the benchmark tables behind EXPERIMENTS.md.
bench:
	$(GO) test -bench=. -benchmem .

# Fast CI sanity pass over the hot-path benchmarks: proves the ingest
# path still runs with 0 allocs/update, the telemetry ablation pair
# still compiles and executes, the history engine's append, summary
# queries and young-series footprint (E19) still run, and the table views
# and a node's chart still rebuild after one write at 1 024 nodes
# (E20Rebuild*). Not a performance measurement (-benchtime 10x), just a
# smoke test.
bench-smoke:
	$(GO) test -run NONE -bench 'E15IngestParallel64$$|AblationTelemetry|E19HistoryAppend$$|E19HistoryStatsFull$$|E19HistoryCompare$$|E19HistoryYoungStore$$|E19HistoryBytesPerSample$$|E20StatusHit$$|E20MixedReadWriteCached$$|E20Rebuild(Status|Compare|Efficiency|Chart)1k$$|E21Flight|E21JournalAppend$$|E22Wire|E23FedPropagationSmall$$|E23FlatPropagationSmall$$|E23UplinkEncode' -benchtime 10x -benchmem .

# The benchmark harness is a module of its own (bench/go.mod), so neither
# tier-1 `go test ./...` nor `make check` reaches its tests: the contract
# test that holds BENCHMARK.json to the package, the generator and
# statistics tests, and an in-process smoke run of every workload's rounds.
bench-test:
	cd bench && $(GO) test ./...

# Short fuzz run over the wire-protocol parsers, the history block codec
# and persistence loader (v4 files, and the older ones it rejects), a
# node's history under a node-level op stream (frames over its metrics,
# metrics arriving in chunks of their own, queries through handles taken
# before those chunks, against a reference ring per metric), the
# wire's value coder, the table views' row renderer and the chart (against
# the fmt verbs they replace), the event rule-file parser, the ICE Box
# command core, the ctl request line (any line: no panic, an OK/ERR
# block, cached ≡ uncached) and the five a-priori /proc parsers (no
# panic; on the committed 2.4 and 6.18 files, what they accept the
# generic parsers read the same): each target gets ~10s, long enough to
# re-cover the grammar from the checked-in seeds without stalling CI. The saved corpus under internal/transmit/testdata/fuzz
# replays on every plain `go test` as regression inputs.
fuzz-smoke:
	$(GO) test ./internal/transmit/ -fuzz FuzzParseFrame -fuzztime 10s -run NONE
	$(GO) test ./internal/transmit/ -fuzz FuzzReadFrame -fuzztime 10s -run NONE
	$(GO) test ./internal/transmit/ -fuzz FuzzDecodeFrameV2 -fuzztime 10s -run NONE
	$(GO) test ./internal/transmit/ -fuzz FuzzDecodeBatchV2 -fuzztime 10s -run NONE
	$(GO) test ./internal/history/ -fuzz FuzzBlockCodec -fuzztime 10s -run NONE
	$(GO) test ./internal/history/ -fuzz FuzzLoadFrom -fuzztime 10s -run NONE
	$(GO) test ./internal/history/ -fuzz FuzzNodeSeries -fuzztime 10s -run NONE
	$(GO) test ./internal/history/ -fuzz FuzzValueCodec -fuzztime 10s -run NONE
	$(GO) test ./internal/dashboard/ -fuzz FuzzRowMatchesFmt -fuzztime 10s -run NONE
	$(GO) test ./internal/dashboard/ -fuzz FuzzChartMatchesFmt -fuzztime 10s -run NONE
	$(GO) test ./internal/events/ -fuzz FuzzParseRules -fuzztime 10s -run NONE
	$(GO) test ./internal/icebox/ -fuzz FuzzHandleCommand -fuzztime 10s -run NONE
	$(GO) test ./internal/core/ -fuzz FuzzHandleCtl -fuzztime 10s -run NONE
	$(GO) test ./internal/gather/ -fuzz FuzzGatherApriori -fuzztime 10s -run NONE

# Fault-injection suite for the loss-tolerant delta protocol: seeded
# loss/blackhole/partition schedules over simnet, and daemon restarts and
# kills at every tier (Sim.Restart, Sim.Kill), under the race detector.
# Seeds are fixed in the tests, so failures reproduce exactly.
faultinject:
	$(GO) test -race -count=1 -v \
		-run 'TestLossToleranceConverges|TestLegacyProtocolDivergesUnderLoss|TestInProcessSimIsSequenced|TestPartitionHealRetransmits|TestMixedVersionClusterConverges|TestHandleFrameConcurrent|TestFedLossKillRejoinConverges|TestSimRestartEveryTier|TestBlackholeDropsEverything|TestScheduleAtDrivesFaults|TestLossDropsFraction' \
		./internal/core/ ./internal/simnet/

# Runs every example; each must exit 0. Three drive a whole simulated
# cluster through the in-process agent link (sequenced frames straight
# into the server, the path cwxd -sim-nodes hosts); batch-scheduler runs
# the SLURM substrate with a controller failure, and cluster-clone the
# multicast image clone against its unicast baseline.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/thermal-runaway
	$(GO) run ./examples/rolling-update
	$(GO) run ./examples/batch-scheduler
	$(GO) run ./examples/cluster-clone

# Where a root server's bytes per node go: loads the benchmark's tree
# (1 024 nodes × 34 values × 16 samples) in process through a real batch
# session with every allocation sampled, and prints the twelve allocation
# sites holding the most live heap (TestHeapSites, heap_sites_test.go).
# CI uploads the table; a heap PR quotes it before and after.
heap-sites:
	$(GO) test -run 'TestHeapSites$$' -count=1 -memprofilerate 1 . -args -heap-sites cwx-heap-sites.txt
	@cat cwx-heap-sites.txt

# What a read allocates: runs the benchmark's query_churn round in process
# (1 024 nodes, a watcher of the sentinel's values, the 8-request script
# after each write) with every allocation sampled, and prints each
# allocation site of the counted rounds with its count per round
# (TestAllocSites, alloc_sites_test.go). CI uploads the table; a read-path
# PR quotes it before and after.
alloc-sites:
	$(GO) test -run 'TestAllocSites$$' -count=1 -memprofilerate 1 . -args -alloc-sites cwx-alloc-sites.txt
	@cat cwx-alloc-sites.txt

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
