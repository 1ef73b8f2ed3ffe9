# Developer entry points. `make check` is the full pre-commit gate:
# vet, build, the whole test suite under the race detector, and a short
# benchmark smoke run (catches benchmarks that no longer compile or
# assert stale path counts without waiting for steady-state timings).

GO ?= go

.PHONY: check vet lint build test race race-short bench bench-smoke fuzz-short \
	bench-regress bench-baseline routes-guard chaos-short cohort-short loc \
	perfbench-check

check: lint build perfbench-check routes-guard chaos-short cohort-short race-short race fuzz-short bench-smoke bench-regress

# API.md's endpoint table and the registered mux patterns must stay
# equal in both directions — a new route lands with its documentation
# or not at all.
routes-guard:
	$(GO) test -run 'TestRouteInventoryMatchesDocs' ./internal/server/

vet:
	$(GO) vet ./...

# Static analysis: vet always; staticcheck when installed (CI installs
# it — see .github/workflows/ci.yml; locally it is optional and skipped
# with a note rather than failing the build).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

# perfbench/ is its own module (replace repro => ../), so the root
# ./... patterns never compile it: vet and test it here, so an API change
# in the main module that breaks the load harness fails the gate.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fast race gate over the request-lifecycle surface (engine cancellation
# + HTTP layer); the tight -timeout doubles as a hang detector for the
# cancellation and semaphore paths.
race-short:
	$(GO) test -race -timeout 90s ./internal/explore/... ./internal/server/...

# The resilience gate: the chaos fault-injection suite (reload-source,
# handler-entry and mid-stream faults), the overload/brownout/breaker
# behaviours and the shutdown-under-load drain, all under the race
# detector. CI uploads the log on failure.
chaos-short:
	$(GO) test -race -timeout 120s ./internal/chaos/ ./internal/admission/
	$(GO) test -race -timeout 120s \
		-run 'Chaos|Queue|Shed|Brownout|Degraded|Breaker|Stale|Healthz|StatsOverload|OverloadMix|ShutdownUnderLoad' \
		./internal/server/

# The batch-simulation gate: the scenario/cohort engine plus the cohort
# endpoint's streaming, cancellation, coalescing and cohort-of-1
# equivalence tests, under the race detector. CI uploads the log on
# failure.
cohort-short:
	$(GO) test -race -timeout 120s ./internal/cohort/
	$(GO) test -race -timeout 120s -run 'Cohort|WhatIf' ./internal/server/

# Bounded fuzz smoke over the ingestion parsers (grammar round-trip,
# prerequisite extraction, lenient/strict differential). go test allows
# one -fuzz target per invocation, hence one line per target. The
# minimize budget is capped in execs: the default (60s per interesting
# input) can stall a 5s smoke run for a minute on a fresh build cache.
fuzz-short:
	$(GO) test -run '^$$' -fuzz 'FuzzParse$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/expr/
	$(GO) test -run '^$$' -fuzz 'FuzzParsePrereq$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/registrar/
	$(GO) test -run '^$$' -fuzz 'FuzzParseCatalogDumpLenient$$' -fuzztime 5s -fuzzminimizetime 100x ./internal/registrar/

# Full benchmark run with allocation stats (slow; EXPERIMENTS.md numbers).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# One quick iteration of the hot-path benchmarks.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Table1GoalPruning|Classify|Selections|RequirementRemaining' -benchtime 10x ./...

# Benchmark-regression gate: run the streaming/heap benchmarks and
# compare against the checked-in baseline (BENCH_baseline.json) with
# cmd/benchguard (allocs and B/op may grow ≤25%, ns ≤3x). When benchstat is
# installed (CI installs it), a human-readable delta is printed too.
# Keep the -bench pattern and -benchtime in sync with bench-baseline —
# allocs/op amortisation depends on the iteration count.
BENCH_GATE = GoalStream$$|GoalMaterialize$$|FrontierHeapGeneric$$|FrontierHeapBoxed$$|ExploreCold$$|ExploreWarm$$|ExploreCoalesced$$|CohortReplanCold$$|CohortReplanWarm$$|CohortSharedCold$$|CohortSharedWarm$$|CohortSynthesize$$|DAGCount$$|DAGWhatIf$$|MultiHorizonProbe$$
BENCH_DIR  = .bench
BENCH_RUN  = $(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchmem -benchtime 20x ./internal/explore/ ./internal/server/ ./internal/cohort/

bench-regress:
	@mkdir -p $(BENCH_DIR)
	$(BENCH_RUN) | tee $(BENCH_DIR)/current.txt | $(GO) run ./cmd/benchguard -baseline BENCH_baseline.json
	@if command -v benchstat >/dev/null 2>&1; then \
		$(GO) run ./cmd/benchguard -baseline BENCH_baseline.json -extract > $(BENCH_DIR)/baseline.txt; \
		benchstat $(BENCH_DIR)/baseline.txt $(BENCH_DIR)/current.txt; \
	else \
		echo "bench-regress: benchstat not installed, delta report skipped (gate enforced by benchguard)"; \
	fi

# Go line counts per package, non-test (GoFiles) and test (TestGoFiles +
# XTestGoFiles) as go list reports them, with a total row — the
# reproducible source of the line deltas CHANGES.md records.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}|{{join .GoFiles " "}}|{{join .TestGoFiles " "}} {{join .XTestGoFiles " "}}' ./... | \
	while IFS='|' read -r head src tests; do \
		set -- $$head; n=0; m=0; \
		for f in $$src; do n=$$((n + $$(wc -l < "$$2/$$f"))); done; \
		for f in $$tests; do m=$$((m + $$(wc -l < "$$2/$$f"))); done; \
		echo "$$1 $$n $$m"; \
	done | awk '{ printf "%-36s %8d %8d\n", $$1, $$2, $$3; n += $$2; m += $$3 } \
		BEGIN { printf "%-36s %8s %8s\n", "package", "non-test", "test" } \
		END { printf "%-36s %8d %8d\n", "total", n, m }'

# Rewrite BENCH_baseline.json from a fresh run on this machine.
bench-baseline:
	$(BENCH_RUN) | $(GO) run ./cmd/benchguard -baseline BENCH_baseline.json -update
