# Tier-1 flow: `make ci` is what a checkin must keep green.
GO ?= go

.PHONY: build test race vet bench bench-module cache-clear cover ci conformance update-golden fuzz-smoke counts

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
	$(GO) run ./cmd/eacsim figure -cache-clear

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
# -fuzz pattern per invocation, hence one run per target). The targets are
# whatever `go test -list '^Fuzz'` finds, so a new one joins without an edit
# here; finding none is a failure. A finding fails the run and writes its
# reproducer under the package's testdata/fuzz/ directory, which should be
# committed.
FUZZTIME ?= 10s
fuzz-smoke:
	@out=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$out"; exit 1; }; \
	targets=$$(echo "$$out" | awk '/^Fuzz/ {f[n++] = $$1} /^ok/ {for (i = 0; i < n; i++) print $$2 "," f[i]; n = 0}'); \
	test -n "$$targets" || { echo "fuzz-smoke: go test -list found no Fuzz targets" >&2; exit 1; }; \
	for t in $$targets; do \
		echo "fuzz-smoke: $${t#*,} in $${t%,*}"; \
		$(GO) test $${t%,*} -run '^$$' -fuzz "^$${t#*,}\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# counts prints the sizes the roadmap and the change log quote: Go lines
# outside bench/ (non-test, test, and non-test per package) and the byte
# sizes of the four docs and CHANGES.md. .bench_build/, the benchmark's
# build directory, is left out: on a host that has compared two commits it
# holds a second copy of the tree.
GOSRC = find . \( -path ./bench -o -path ./.bench_build \) -prune -o -name '*.go'
counts:
	@echo "non-test Go outside bench/: $$($(GOSRC) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "test Go outside bench/:     $$($(GOSRC) -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "non-test Go per package:"
	@for d in $$($(GOSRC) ! -name '*_test.go' -printf '%h\n' | sort -u); do \
		printf '  %-34s %5d\n' "$${d#./}" "$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"; \
	done
	@echo "bytes:"
	@wc -c README.md DESIGN.md EXPERIMENTS.md TESTING.md | sed 's/total/four docs/'
	@wc -c CHANGES.md

# The conformance harness runs inside `make test`; bench-module and
# fuzz-smoke are the extra tier-1 steps. `make bench` measures and is not
# part of ci: the pipeline's parent-vs-change run of BENCHMARK.json is the
# performance gate.
ci: build test race bench-module fuzz-smoke
