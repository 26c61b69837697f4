# Tier-1 flow: `make ci` is what a checkin must keep green.
GO ?= go

.PHONY: build test race vet bench bench-module cache-clear cover ci conformance update-golden fuzz-smoke

build:
	$(GO) build ./...

# vet runs as part of test so the goroutine code in the sweep engine
# stays warning-clean alongside the unit suite.
test: vet
	$(GO) test ./...

# race exercises the parallel sweep engine and RunSeedsObserved under the
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

# bench is the one benchmark: bench/run.sh builds the nested bench/ module
# into .bench_build/ and runs the suite (the BENCHMARK.json workloads, each
# a whole run in a re-executed child; end-to-end and per-layer metrics to
# stdout and bench/out/result.json). Every speed number the docs quote is a
# metric this target prints; bench/README.md defines them.
bench:
	bash bench/run.sh

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
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzRing$$' -fuzztime $(FUZZTIME)
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

# The conformance harness runs inside `make test`; bench-module and
# fuzz-smoke are the extra tier-1 steps. `make bench` measures and is not
# part of ci: the pipeline's parent-vs-change run of BENCHMARK.json is the
# performance gate.
ci: build test race bench-module fuzz-smoke
