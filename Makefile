GO ?= go

.PHONY: all build check vet lint lint-baseline test race smoke race-smoke bench bench-gate bench-trace telemetry-smoke experiments-output clean

all: build

build:
	$(GO) build ./...

# check is the verification gate: static analysis (vet + the simlint
# invariant suite), the full test suite under the race detector (the
# trace ring is the shared-state hot spot), a sanitized smoke run of
# every architecture, and a race-checked smoke of the runner pool.
check: vet lint race smoke race-smoke

vet:
	$(GO) vet ./...

# lint runs the project's own go/types-based analyzers (determinism,
# cycleflow, hotalloc, statreg, sharedmut, neutral, cachekey) over the
# whole module, emitting SARIF for code scanning and the sharedmut
# ownership classification alongside the terminal findings. See
# cmd/simlint and the "Correctness tooling" section of the README.
lint:
	$(GO) run ./cmd/simlint -sarif simlint.sarif -ownership-out ownership.json

# lint-baseline regenerates the committed suppression ledger from the
# current findings and fails if it no longer matches the checked-in
# file — run it (and commit the diff) after deliberately accepting or
# burning down inventoried debt.
lint-baseline:
	$(GO) run ./cmd/simlint -write-baseline
	git diff --exit-code .simlint-baseline.json

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# smoke runs one reduced-size workload per traffic pattern on all three
# architectures with the runtime sanitizer on: every memory transaction
# is checked for MESI legality, directory/L1 agreement, inclusion,
# cycle monotonicity and MSHR drain, and any violation panics with an
# event trail.
smoke:
	$(GO) run ./cmd/cmpsim -workload eqntott -quick -sanitize
	$(GO) run ./cmd/cmpsim -workload fft -quick -sanitize
	$(GO) run ./cmd/cmpsim -workload mp3d -quick -sanitize

# race-smoke drives the internal/runner worker pool under the race
# detector on real simulations, not just the unit tests: all three
# architectures of a sanitized quick workload run concurrently on 4
# workers, proving the pool's job isolation (no shared tracer, checker,
# or counter state).
race-smoke:
	$(GO) run -race ./cmd/cmpsim -workload eqntott -quick -sanitize -jobs 4

# bench runs the figure-benchmark matrix (internal/benchfig) through
# cmd/benchjson and writes BENCH_figures.json: ns/op and simulated
# cycles/sec per figure, with and without the quiescence-skipping
# scheduler, plus the skip speedup. CI uploads the file as an artifact
# so every PR leaves a perf trajectory to regress against.
bench:
	$(GO) run ./cmd/benchjson

# bench-gate is the CI perf gate: re-measure the figure matrix
# (median of 3 samples per cell) and diff against the committed
# baseline. Sim cycle counts must match exactly (determinism anchor);
# Mipsy MemBound rows must keep a >= 2x skip speedup and the MXS
# MemBound row a >= 1.5x one; every other row's dimensionless speedup
# must stay within ±30% of its baseline value.
bench-gate:
	$(GO) run ./cmd/benchjson -gate BENCH_figures.json -samples 3

# telemetry-smoke scrapes the live /metrics endpoint in the middle of
# a parallel campaign and reconciles it against the final run report —
# the ISSUE 6 acceptance criterion, as a hermetic Go test.
telemetry-smoke:
	$(GO) test -race -run TestTelemetryHTTPSmoke -v .

# experiments-output regenerates the full-campaign capture that
# EXPERIMENTS.md describes. The file is a generated artifact —
# .gitignore'd, like simlint.sarif and ownership.json — so reproduce
# it locally rather than expecting it in the tree (~30 s on one core).
experiments-output:
	$(GO) run ./cmd/experiments > experiments_output.txt

# bench-trace proves the disabled-instrumentation acceptance bar:
# BenchmarkTracerDisabled and BenchmarkProfDisabled must report 0
# allocs/op (CI greps the output for exactly that).
bench-trace:
	$(GO) test -run '^$$' -bench 'BenchmarkTracer|BenchmarkProf' -benchmem .

clean:
	$(GO) clean ./...
