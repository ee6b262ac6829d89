# clustermarket build entry points. `make help` lists the targets;
# `make all` is the local pre-push gate (lint + build + test), and the
# remaining targets are the CI legs (race, soaks, coverage, fuzz,
# bench gate) runnable individually.
GO ?= go

.PHONY: all build test race vet lint vulncheck help perfbench-test perfbench-smoke \
	bench bench-baseline bench-compare \
	soak soak-race soak-crash soak-telemetry soak-chaos cover cover-update fuzz bench-ci

all: lint build test ## Lint, build, and test: the local pre-push gate

help: ## List targets
	@awk 'BEGIN {FS = ":.*##"} /^[a-zA-Z_-]+:.*##/ {printf "  %-16s %s\n", $$1, $$2}' $(MAKEFILE_LIST)

build: ## Compile every package
	$(GO) build ./...

test: ## Run the full test suite
	$(GO) test ./...

race: ## Run the full test suite under the race detector
	$(GO) test -race ./...

vet: ## Run go vet
	$(GO) vet ./...

# Static analysis: go vet, then the repo's own marketlint analyzers
# (maporder, replaypure, allocfree, lockdiscipline — see DESIGN.md,
# "Static analysis & contracts") driven through vet's -vettool unit
# protocol. staticcheck joins when installed; the CI lint job pins and
# caches it, while a bare dev container skips it rather than failing.
MARKETLINT := bin/marketlint
lint: vet ## go vet + marketlint (+ staticcheck when installed)
	$(GO) build -o $(MARKETLINT) ./cmd/marketlint
	$(GO) vet -vettool=$(MARKETLINT) ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (the CI lint job runs it)"; \
	fi

# The benchmark harness is a Go module of its own, so `go test ./...`
# never reaches its tests (tail rule, pin drift, BENCHMARK.json against
# the harness's declarations); this target runs them.
perfbench-test: ## Vet and test the perfbench harness module
	cd perfbench && $(GO) vet . && $(GO) test .

# A short traced planet-clear run of the benchmark: it fails unless the
# cleared outcomes equal the float-exact goldens in perfbench/pins.json
# and every traced tick's prices are bit-equal to an outside rebuild of
# its batch — the goldens of the production clearing path.
perfbench-smoke: ## Short traced planet-clear run: pinned outcomes + bit-equal prices
	bash perfbench/run.sh --workload planet-clear --seed 1 --seconds 5 --trace 1

vulncheck: ## govulncheck against the checked-in ignore list
	./scripts/vulncheck.sh

# One pass over every benchmark; doubles as a smoke check of the
# reproduced paper results (shape metrics are reported alongside timing).
bench:
	$(GO) test -run 'xxx' -bench . -benchtime 1x ./...

# Record the current benchmark output as a baseline for comparison:
# one pass over the full suite, then the sharded-intake scaling sweep
# (BenchmarkParallelSubmit across worker counts) appended to the same
# file. Parametrized so re-running for a new PR cannot silently clobber
# an earlier baseline: make bench-baseline BENCH_OUT=BENCH_prN.json
BENCH_OUT ?= BENCH_pr10.json
bench-baseline:
	$(GO) test -run 'xxx' -bench . -benchtime 1x ./... | tee $(BENCH_OUT)
	$(GO) test -run 'xxx' -bench 'ParallelSubmit|ConcurrentSubmit' -benchtime 2000x -cpu 1,4,8 . | tee -a $(BENCH_OUT)

# Compare two recorded baselines (default: the previous PR's against
# this PR's). Informational by default — single-iteration CI timings are
# noise — pass BENCH_FAIL_OVER=N to fail on a >N% ns/op regression.
BENCH_OLD ?= BENCH_pr9.json
BENCH_NEW ?= BENCH_pr10.json
BENCH_FAIL_OVER ?= 0
bench-compare:
	$(GO) run ./cmd/benchdiff -old $(BENCH_OLD) -new $(BENCH_NEW) -fail-over $(BENCH_FAIL_OVER)

# Regression gate for CI: record a fresh single-pass baseline on the CI
# machine and compare it against the last committed baseline with a
# tolerant threshold. Single-iteration timings swing wildly, so only a
# blowup (accidental quadratic, lost fast path) trips the gate — real
# perf work still uses bench-baseline on quiet hardware.
BENCH_GATE_BASE ?= BENCH_pr10.json
BENCH_GATE_OVER ?= 400
bench-ci:
	$(MAKE) bench-baseline BENCH_OUT=BENCH_ci.json
	$(GO) run ./cmd/benchdiff -old $(BENCH_GATE_BASE) -new BENCH_ci.json -fail-over $(BENCH_GATE_OVER)

# Scenario soak: every catalog scenario on both backends, with the
# shared invariant kernel checked after every epoch. Exit code 2 means
# an invariant broke. soak-race runs the same under the race detector —
# the CI smoke configuration.
SOAK_FLAGS ?= -scenario all -backend both -seed 42
soak:
	$(GO) run ./cmd/marketsim $(SOAK_FLAGS)
soak-race:
	$(GO) run -race ./cmd/marketsim $(SOAK_FLAGS) -epochs 6

# Crash-recovery soak: the crash-recovery scenario on both backends,
# journaled, killed without flushing before epoch 4's settlement wave,
# and resurrected from the WAL — exit code 3 if the recovered run's
# fingerprint diverges from the in-memory baseline by even one bit.
SOAK_CRASH_FLAGS ?= -scenario crash-recovery -backend both -seed 42 -crash-epoch 4
soak-crash:
	$(GO) run -race ./cmd/marketsim $(SOAK_CRASH_FLAGS) -journal-dir "$$(mktemp -d)"

# Chaos soak: every catalog scenario on both backends, journaled, each
# with two extra legs under a seeded-random fault schedule (disk faults,
# region partitions, gossip loss) — exit code 2 if any invariant breaks
# under fire, exit code 3 if the two same-seed chaos legs are not
# bit-identical. The scripted disk-fault and partition-storm scenarios
# additionally verify faults-heal fingerprint identity against the
# fault-free baseline on every soak run.
SOAK_CHAOS_FLAGS ?= -scenario all -backend both -seed 42 -chaos -chaos-seed 7
soak-chaos:
	$(GO) run -race ./cmd/marketsim $(SOAK_CHAOS_FLAGS) -epochs 6 -journal-dir "$$(mktemp -d)"

# Telemetry soak: every catalog scenario on both backends with a
# firehose subscriber attached, requiring each run's report to be
# reconstructible bit-identically from the event stream alone — exit
# code 3 if the stream reconstruction's fingerprint diverges.
SOAK_TELEMETRY_FLAGS ?= -scenario all -backend both -seed 42 -telemetry
soak-telemetry:
	$(GO) run -race ./cmd/marketsim $(SOAK_TELEMETRY_FLAGS) -epochs 6

# Coverage with a checked-in floor (COVERAGE_FLOOR) and per-package
# deltas against COVERAGE_baseline.txt. cover-update rewrites the
# baseline after intentional changes.
cover:
	./scripts/cover.sh
cover-update:
	./scripts/cover.sh -update

# Native fuzz smoke: each target briefly, as in CI. Longer local runs:
# go test -fuzz FuzzParse ./internal/bidlang
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) -run 'xxx' ./internal/bidlang
	$(GO) test -fuzz 'FuzzQueryParams$$' -fuzztime $(FUZZTIME) -run 'xxx' ./internal/webui
	$(GO) test -fuzz FuzzEventsQueryParams -fuzztime $(FUZZTIME) -run 'xxx' ./internal/webui
