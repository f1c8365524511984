GO ?= go

.PHONY: build test race vet fuzz-seeds golden-update staticcheck e2e e2e-cluster serve check bench bench-smoke bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race is the tier the determinism and cache-concurrency tests are written
# for: runBatch at Parallelism 8, single-flight cache fills, concurrent
# writers to one cache directory.
race:
	$(GO) test -race ./...

# vet also covers the nested perfbench module: the root ./... pattern stops
# at its go.mod, yet it imports internal/service and would otherwise break
# unseen when a service API changes.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# fuzz-seeds replays every checked-in fuzz seed corpus as plain tests (no
# fuzzing engine) under the race detector, catching trace-format,
# batch-decoder, submit-decoder, traceparent-parser, pangloss-delta-cache and
# vamp-region-map regressions deterministically; the page-table seeds replay
# mapping scripts against the map-backed reference table.
fuzz-seeds:
	$(GO) test -race -run=Fuzz ./internal/trace/ ./internal/service/ ./internal/vm/ ./internal/dtrace/ ./internal/prefetch/pangloss/ ./internal/prefetch/vamp/

# bench runs the pinned workload×prefetcher microbenchmark suite and writes
# BENCH_<date>.json (see cmd/pbench -h for comparing against a baseline).
bench:
	$(GO) run ./cmd/pbench

# bench-compare runs the full pinned suite against the most recent committed
# full-format BENCH_<date>.json and prints per-row and geomean deltas. It
# never gates: throughput on shared machines is informational. The result is
# written to BENCH_compare.json (untracked) so CI can archive it.
bench-compare:
	$(GO) run ./cmd/pbench -out BENCH_compare.json \
		-compare "$$(ls BENCH_2*-*.json 2>/dev/null | grep -v _smoke | sort | tail -1)"

# bench-smoke is the CI regression gate: a shortened run compared against the
# committed smoke-format reference, failing when allocations per access
# regress past 2x. Throughput is reported but not gated (CI machines vary too
# much); alloc counts are deterministic enough to gate.
bench-smoke:
	$(GO) run ./cmd/pbench -smoke -out BENCH_smoke.json \
		-compare BENCH_2026-08-07_smoke.json -max-allocs-ratio 2

# golden-update regenerates the checked-in figure snapshots and the
# full-stats digest golden (TestGoldenStatsDigest) after an intentional
# behaviour change. Inspect the diff before committing: a digest line names
# the job whose results moved.
golden-update:
	$(GO) test ./internal/experiments -run TestGolden -update

# staticcheck runs when the binary is available (CI installs it; locally
# `go install honnef.co/go/tools/cmd/staticcheck@latest`) and is skipped
# otherwise so check works in hermetic environments.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# e2e drives the daemon end to end: an httptest psimd serving real
# simulations to concurrent experiment clients, with byte-parity and
# cross-client dedup assertions.
e2e:
	$(GO) test -race -run 'TestE2E' -v ./internal/service/

# e2e-cluster drives a 3-node in-process cluster: byte-identical figures vs
# a local run, zero duplicate simulations cluster-wide (cross-node cache
# fills), and survival of a node killed mid-batch.
e2e-cluster:
	$(GO) test -race -run 'TestE2ECluster' -v ./internal/service/

# serve runs the simulation daemon on localhost:8080.
serve:
	$(GO) run ./cmd/psimd

# check is the full CI gate.
check: vet staticcheck build test race fuzz-seeds
