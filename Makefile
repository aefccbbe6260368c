GO ?= go

.PHONY: all build vet fmt lint lint-fast test race allocs fdperf bench bench-smoke chaos crash fuzz-smoke check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file needs reformatting.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The repo's own invariant analyzers (internal/lint): context threading,
# fault-site registration, hot-path allocation discipline, counter merge
# paths, lock safety, exhaustive enum switches, resource lifecycles,
# shard-kernel purity, atomic-field discipline and error-flow hygiene.
# JSON output lands on stdout for CI consumption; exit 1 means findings.
lint:
	$(GO) run ./cmd/fdvet -json .

# A subset pass for tight edit loops: make lint-fast RUN=lifecycle,errflow
# runs just those analyzers (default: all, same as lint but text output).
RUN ?=
lint-fast:
	$(GO) run ./cmd/fdvet -run '$(RUN)' .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation pins skip under the race detector, which makes
# sync.Pool drop a random share of its puts, so they run once more
# without it.
allocs:
	$(GO) test -run AllocsPerRun ./internal/partition/ ./internal/sampling/ ./internal/validate/ ./internal/cover/ ./internal/relation/

# cmd/fdperf is a module of its own, so the root ./... patterns skip it:
# vet and short-test it directly, so a break in the internal APIs it
# imports shows up here rather than in the benchmark driver.
fdperf:
	cd cmd/fdperf && $(GO) vet ./... && $(GO) test -short ./...

# Full benchmark pass: every fdperf workload, each appending one JSON
# summary line to .bench_build/bench.jsonl (cmd/fdperf/README.md
# describes the schema and the flags).
bench:
	bash cmd/fdperf/run.sh -o .bench_build/bench.jsonl

# One iteration of the key benchmarks — catches bit-rot without the cost
# of a full measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Single100k|Refine100k|BenchmarkSingles$$' -benchtime 1x ./internal/partition/
	$(GO) test -run '^$$' -bench 'BenchmarkRowOrder|BenchmarkClusterNeighborSample' -benchtime 1x ./internal/sampling/
	$(GO) test -run '^$$' -bench 'BenchmarkVerifyCover' -benchtime 1x ./internal/check/
	$(GO) test -run '^$$' -bench 'BenchmarkDiscoverWeather|DiscoverCached|TANELattice|BenchmarkCanonicalCover' -benchtime 1x ./
	$(GO) test -run '^$$' -bench 'RankCover/hepatitis' -benchtime 1x ./internal/ranking/
	$(GO) test -run '^$$' -bench 'BenchmarkReadCSV' -benchtime 1x ./internal/relation/

# The fault-injection matrix — every site × every plan × every algorithm —
# under the race detector.
chaos:
	$(GO) test -race -run 'TestChaos' ./internal/integration/

# The durability acceptance gate: SIGKILL a checkpointing fddiscover
# mid-run, resume it, and require a cover byte-identical to an
# uninterrupted run, once for each of the five durable algorithms: each
# hybrid driver; TANE, so a non-hybrid frontier crosses a real kill too;
# DFD with a PLI cache, so the resumed run rebuilds the snapshot's cache
# manifest and continues its walk over it; and FastFDs, whose first
# snapshot follows its pair scan, at a size where its cover enumeration
# still runs for seconds after that snapshot. Exercises the real binary
# and a real process kill, complementing the in-process resume matrix in
# internal/integration.
crash:
	$(GO) run ./cmd/crashcheck -algo dhyfd
	$(GO) run ./cmd/crashcheck -algo hyfd
	$(GO) run ./cmd/crashcheck -algo tane
	$(GO) run ./cmd/crashcheck -algo dfd -rows 6000 -cols 14 -pli-cache 16777216
	$(GO) run ./cmd/crashcheck -algo fastfds -rows 6000 -cols 17

# A ~20s native-fuzzing smoke pass over the CSV reader (its relations
# against a map-based reference encoder, its records and parse errors
# against encoding/csv), the discovery pipeline and the snapshot decoder.
# Longer runs: go test -fuzz='^FuzzReadCSV$' ./internal/relation/ (-fuzz
# takes a regexp and refuses one that matches two targets). The fuzzer
# prints 0 execs/sec while it minimizes a new input; that is not a hang.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzReadCSV$$' -fuzztime 5s -run '^$$' ./internal/relation/
	$(GO) test -fuzz='^FuzzScanCSV$$' -fuzztime 5s -run '^$$' ./internal/relation/
	$(GO) test -fuzz=FuzzDiscoverSmall -fuzztime 5s -run '^$$' ./internal/integration/
	$(GO) test -fuzz=FuzzDecodeSnapshot -fuzztime 5s -run '^$$' ./internal/runstate/

# The default verify path: build, vet, formatting and the invariant
# analyzers, then the full suite twice: plainly, which runs the shape
# matrices the race pass trims to three shapes, and under the race
# detector (which includes the chaos matrix); then the allocation pins
# without it, the fdperf module, the kill-and-resume gate, then the fuzz
# and benchmark smoke passes.
check: build vet fmt lint test race allocs fdperf crash fuzz-smoke bench-smoke
