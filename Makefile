GO ?= go

.PHONY: all build vet fmt lint lint-fast test race allocs fdperf bench bench-pr3 bench-pr4 bench-pr6 bench-pr7 bench-pr8 bench-pr9 bench-smoke chaos crash fuzz-smoke check

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
	$(GO) test -run AllocsPerRun ./internal/partition/

# cmd/fdperf is a module of its own, so the root ./... patterns skip it:
# vet and short-test it directly, so a break in the internal APIs it
# imports shows up here rather than in the benchmark driver.
fdperf:
	cd cmd/fdperf && $(GO) vet ./... && $(GO) test -short ./...

# Full benchmark pass: the partition kernels and the discovery paths,
# folded into BENCH_pr3.json against the pre-PR baselines recorded in
# results/. Same flags as the baseline capture, for comparability.
bench: bench-pr3 bench-pr4 bench-pr6 bench-pr7 bench-pr8 bench-pr9

bench-pr3:
	$(GO) test -run '^$$' -bench 'Single100k|Refine100k|Intersect100k|RefineVsIntersect' -benchmem ./internal/partition/ | tee results/bench_partition.txt
	$(GO) test -run '^$$' -bench 'DiscoverWeather|DiscoverDiabetic|TANELattice|DiscoverCached' -benchtime 3x -benchmem . | tee results/bench_discover.txt
	$(GO) run ./cmd/benchjson \
		-baseline results/bench_baseline_pr3_partition.txt \
		-baseline results/bench_baseline_pr3_discover.txt \
		-current results/bench_partition.txt \
		-current results/bench_discover.txt \
		-o BENCH_pr3.json

# The ranking and sampling kernels, folded into BENCH_pr4.json against the
# seed baselines in results/bench_baseline_pr4_*.txt (captured at the
# pre-PR commit with the same flags).
bench-pr4:
	$(GO) test -run '^$$' -bench 'RankCover|TotalsCover|Histogram' -benchtime 5x -benchmem ./internal/ranking/ | tee results/bench_ranking.txt
	$(GO) test -run '^$$' -bench 'SortedCluster|ClusterNeighborSample|NonRedundant' -benchtime 10x -benchmem ./internal/sampling/ | tee results/bench_sampling.txt
	$(GO) run ./cmd/benchjson \
		-baseline results/bench_baseline_pr4_ranking.txt \
		-baseline results/bench_baseline_pr4_sampling.txt \
		-current results/bench_ranking.txt \
		-current results/bench_sampling.txt \
		-o BENCH_pr4.json

# The fused top-k search against the two-phase discover→rank→truncate
# pipeline, exact and at eps = 0.01, with equivalence checked on every
# cell. Unlike pr3/pr4 this is a paired A/B harness, so it emits the JSON
# itself instead of going through benchjson.
bench-pr6:
	$(GO) run ./cmd/benchpr6 -o BENCH_pr6.json

# What durability costs: plain vs default-interval vs eager-checkpoint
# discovery on flight, gated at ≤5% default-interval overhead on the
# 500×20 cells, plus the supervised-retry counters. Emits its JSON
# directly (paired A/B harness, like pr6).
bench-pr7:
	$(GO) run ./cmd/benchpr7 -o BENCH_pr7.json

# The sharded PLI bootstrap (shard-count scaling curve, byte-identity
# checked per cell) and the out-of-core spill tier (a DFD working set
# >10x the cache budget, covers compared across resident and spill legs,
# peak RSS measured in child processes). Emits its JSON directly.
bench-pr8:
	$(GO) run ./cmd/benchpr8 -o BENCH_pr8.json

# The sharded multi-attribute kernels (Refine/Intersect shard-count
# curves, byte-identity checked per cell) and the off-heap column pager
# (a 600k-row DFD run, covers compared across resident and paged legs,
# peak RSS measured in child processes). Emits its JSON directly.
bench-pr9:
	$(GO) run ./cmd/benchpr9 -o BENCH_pr9.json

# One iteration of the key benchmarks — catches bit-rot without the cost
# of a full measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Intersect100k' -benchtime 1x ./internal/partition/
	$(GO) test -run '^$$' -bench 'BenchmarkDiscoverWeather|DiscoverCached' -benchtime 1x ./
	$(GO) test -run '^$$' -bench 'RankCover/hepatitis' -benchtime 1x ./internal/ranking/
	$(GO) run ./cmd/benchpr6 -smoke -o /dev/null
	$(GO) run ./cmd/benchpr8 -smoke -o /dev/null
	$(GO) run ./cmd/benchpr9 -smoke -o /dev/null

# The fault-injection matrix — every site × every plan × every algorithm —
# under the race detector.
chaos:
	$(GO) test -race -run 'TestChaos' ./internal/integration/

# The durability acceptance gate: SIGKILL a checkpointing fddiscover
# mid-run, resume it, and require a cover byte-identical to an
# uninterrupted run. Exercises the real binary and a real process kill,
# complementing the in-process resume matrix in internal/integration.
crash:
	$(GO) run ./cmd/crashcheck

# A ~10s native-fuzzing smoke pass over the CSV reader and the discovery
# pipeline. Longer runs: go test -fuzz=FuzzReadCSV ./internal/relation/
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime 5s -run '^$$' ./internal/relation/
	$(GO) test -fuzz=FuzzDiscoverSmall -fuzztime 5s -run '^$$' ./internal/integration/

# The default verify path: build, vet, formatting and the invariant
# analyzers, then the full suite under the race detector (which includes
# the chaos matrix), the allocation pins without it, the fdperf module,
# the kill-and-resume gate, then the fuzz and benchmark smoke passes.
check: build vet fmt lint race allocs fdperf crash fuzz-smoke bench-smoke
