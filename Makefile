# Tier-1 flow: `make ci` is what a checkin must keep green.
GO ?= go

.PHONY: build test race vet bench-module bench bench-hotpath bench-grid bench-shard bench-hybrid bench-policy bench-workload bench-check cache-clear cover ci conformance update-golden fuzz-smoke

build:
	$(GO) build ./...

# vet runs as part of test so the goroutine code in the sweep engine
# stays warning-clean alongside the unit suite.
test: vet
	$(GO) test ./...

# race exercises the parallel sweep engine and RunSeedsParallel under the
# race detector; -short keeps the long simulations out so it stays fast.
# The explicit -timeout covers single-core machines, where the race
# detector's serialization makes the suite many times slower.
race:
	$(GO) test -race -timeout 30m ./internal/... -short

vet:
	$(GO) vet ./...

# bench-module vets and smoke-tests bench/, the repository's benchmark. It
# is a nested module (BENCHMARK.json runs it from its own directory), so
# `go build ./...` and `go test ./...` above never compile its imports of
# eac/internal/...; without this target an internal signature change that
# breaks the harness would only surface at the next benchmark run.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# cover runs the unit suite with coverage and prints the per-function
# summary plus the total. -short keeps the long simulations out.
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# bench regenerates every figure/table (quick mode) and runs the hot-path
# microbenchmarks; see bench_test.go for flags (-eac.workers, -eac.paper).
# BenchmarkObsOverhead additionally appends its disabled-vs-enabled
# observability cost record to results/BENCH_obs.json.
bench:
	$(GO) test -bench=. -benchmem -timeout 60m

# bench-hotpath reruns the single-run macro-benchmarks (one congested
# link, one 10-node chain; fixed seeds) and rewrites
# results/BENCH_hotpath.json with the pinned pre-overhaul baseline next
# to the fresh numbers. See bench_hotpath_test.go for how the baseline
# was measured and when to re-pin it.
bench-hotpath:
	$(GO) test -run '^$$' -bench BenchmarkHotPath -benchmem -benchtime 5x -timeout 30m .

# bench-grid measures the grid throughput layer: a full conformance-scale
# sweep with the result cache cold vs warm (byte-identical CSVs enforced
# inside the benchmark) and per-cell allocations with and without
# workspace reuse. Rewrites results/BENCH_grid.json and appends headline
# records to results/BENCH_index.json, as bench-hotpath and the obs
# benchmark do.
bench-grid:
	$(GO) test -run '^$$' -bench BenchmarkGrid -benchmem -benchtime 5x -timeout 30m .

# bench-shard measures the sharded conservative-parallel executor on the
# MetroStar large-topology preset: one full single-seed run per iteration
# under the serial plan and under 2/4/8 shards. Rewrites
# results/BENCH_shard.json (wall clock, per-shard executed events, and
# the load-balance speedup bound) and appends headline records to
# results/BENCH_index.json. See bench_shard_test.go for the single-core
# caveat on wall-clock ratios.
bench-shard:
	$(GO) test -run '^$$' -bench BenchmarkShard -benchmem -benchtime 3x -timeout 30m .

# bench-hybrid measures the hybrid fluid/packet engine against the pure
# packet engine on the MetroStar preset at 10^5 concurrent hosts: one
# full single-seed run per iteration under each engine. Rewrites
# results/BENCH_hybrid.json (wall clock per engine and the speedup
# ratio, asserted >= 50x at full scale) and appends headline records to
# results/BENCH_index.json.
bench-hybrid:
	$(GO) test -run '^$$' -bench BenchmarkHybrid -benchmem -benchtime 3x -timeout 30m .

# bench-policy measures the admission-policy layer on the basic
# bottleneck scenario: one full single-seed run per iteration under the
# static default, the token-bucket rate limiter, and the epoch-adaptive
# policy. The static row is the regression gate for the policy-layer
# indirection (its output is byte-identical to the pre-policy path).
# Rewrites results/BENCH_policy.json and appends headline records to
# results/BENCH_index.json.
bench-policy:
	$(GO) test -run '^$$' -bench BenchmarkPolicy -benchmem -benchtime 3x -timeout 30m .

# bench-workload measures the temporal workload engine on the same basic
# bottleneck scenario: one full single-seed run per iteration with a
# stationary process, the on/off square wave, a spike schedule, and a
# replayed trace. The stationary row is the regression gate for the
# thinning hook on the arrival path (no modulation active = no new work).
# Rewrites results/BENCH_workload.json and appends to BENCH_index.json.
bench-workload:
	$(GO) test -run '^$$' -bench BenchmarkWorkload -benchmem -benchtime 3x -timeout 30m .

# bench-check is the regression gate over results/BENCH_index.json: the
# newest entry of each (benchmark, metric) series is compared against its
# predecessor under per-series tolerances (baseline-normalized where a
# record carries an interleaved baseline) and the target exits nonzero on
# any regression. Run it after any `make bench-*` target before
# committing the refreshed index.
bench-check:
	$(GO) run ./cmd/benchcheck

# cache-clear wipes the content-addressed result cache (default location,
# or EAC_CACHE_DIR). Do this after bumping scenario.ResultsVersion or
# whenever cached metrics are suspect; entries are also individually
# checksummed, so corruption never needs a manual clear.
cache-clear:
	$(GO) run ./cmd/experiments -cache-clear

# conformance runs the validation harness on its own: golden-figure
# regression, simulator<->fluid cross-validation, and the invariant
# suite. The same tests are part of `make test`; this target is the
# focused loop while editing experiments. See TESTING.md.
conformance:
	$(GO) test ./internal/conformance/... -v

# update-golden regenerates the golden CSVs after an intentional change
# to experiment output. Inspect the diff before committing.
update-golden:
	$(GO) test ./internal/conformance -run TestGolden -update

# fuzz-smoke gives each native fuzz target a short budget (Go runs one
# -fuzz pattern per invocation, hence one line per target). A finding
# fails the run and writes its reproducer under the package's
# testdata/fuzz/ directory, which should be committed.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzEventHeap$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netsim -run '^$$' -fuzz '^FuzzDropTail$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netsim -run '^$$' -fuzz '^FuzzPriorityPushout$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netsim -run '^$$' -fuzz '^FuzzRED$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netsim -run '^$$' -fuzz '^FuzzVirtualQueue$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/admission -run '^$$' -fuzz '^FuzzProbeLossFraction$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/admission -run '^$$' -fuzz '^FuzzEpochAdaptive$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stats -run '^$$' -fuzz '^FuzzWelford$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stats -run '^$$' -fuzz '^FuzzWindowMax$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzSchedule$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime $(FUZZTIME)

# The conformance harness runs inside `make test` (it is part of the
# ordinary suite); bench-module and fuzz-smoke are the extra tier-1 steps.
ci: build test race bench-module fuzz-smoke
