GO ?= go

.PHONY: build test race vet fuzz-seeds golden-update staticcheck e2e e2e-cluster serve check

build:
	$(GO) build ./...

# test includes the deterministic allocation gates: per-access allocations
# over whole runs (TestAllocsPerAccessGate), bytes per run when it recycles
# its predecessor's cache, VM, core and prefetcher storage, five single-core
# runs and a 4-core mix (TestRunBytesBudget), construction cost per fresh
# system (TestConstructionBudget) and the zero-allocation steady state
# (TestSteadyStateZeroAllocs); and the recycle tests: FuzzCacheRecycle's,
# FuzzVMRecycle's and FuzzPrefetcherRecycle's scripted twins
# (TestCacheRecycleScripts, TestVMRecycleScripts,
# TestPrefetcherRecycleScripts: every prefetcher of the factory table at
# 4KB and 2MB indexing, and the IPCP), TestCoreRecycle, the released-storage
# panics (TestAccessAfterReleasePanics, TestTranslateAfterReleasePanics) and
# the bounded pool tables (TestPoolTableBounded, internal/slabpool).
test:
	$(GO) test ./...

# race is the tier the determinism and cache-concurrency tests are written
# for: runBatch at Parallelism 8, single-flight cache fills, concurrent
# writers to one cache directory, and cache, VM, core and prefetcher
# storage (SPP, PPF, Pangloss, the 2MB-region vamp) recycled across
# goroutines running single-core jobs and 4-core mixes
# (TestRecycleConcurrent).
race:
	$(GO) test -race ./...

# vet also covers the nested perfbench module: the root ./... pattern stops
# at its go.mod, yet it imports internal/service and would otherwise break
# unseen when a service API changes. It fails when any file in the tree is
# not gofmt-formatted, listing the files.
vet:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# fuzz-seeds replays every checked-in fuzz seed corpus as plain tests (no
# fuzzing engine) under the race detector, catching trace-format,
# batch-decoder, submit-decoder, traceparent-parser, pangloss-delta-cache and
# vamp-region-map regressions deterministically; the page-table seeds replay
# mapping scripts against the map-backed reference table and the TLB seeds
# lookup/insert/flush scripts against the timestamp LRU model, the vamp seeds
# compare every scan with the per-distance reference, the cache seeds replay
# fill/touch scripts against the timestamp LRU model and access, fill and
# prefetch scripts on recycled storage against fresh storage, the vm recycle
# seeds (FuzzVMRecycle) replay translate, walk, lookup, frame and flush
# scripts on recycled allocator, page-table and TLB storage against fresh
# storage, the prefetcher recycle seeds (FuzzPrefetcherRecycle, one per
# factory base at 4KB and 2MB indexing and one for the IPCP) replay access,
# train and feedback scripts on released tables, which must equal a fresh
# instance's, and compare the candidates recycled and fresh instances
# propose, the spp seeds replay
# train/lookahead scripts against the map-backed pattern-table model
# (FuzzSPPPatternTable) and access and global-history scripts against the
# map-backed, timestamp-LRU signature-table model (FuzzSPPSignatureTable:
# one-way and four-way sets, colliding regions, bootstraps, region 0 and the
# largest region a way packs), the ppf seeds (FuzzPPFRecords) replay
# classify, PrefetchUseful, PrefetchUnused and DemandMiss scripts against the
# map-backed record and plain-int weight model (record collisions, rejects
# and saturation, tables past what a byte indexes), and the telemetry seeds
# replay push scripts against the shared ring's slice model.
fuzz-seeds:
	$(GO) test -race -run=Fuzz ./internal/trace/ ./internal/service/ ./internal/vm/ ./internal/dtrace/ ./internal/prefetch/pangloss/ ./internal/prefetch/vamp/ ./internal/cache/ ./internal/prefetch/spp/ ./internal/prefetch/ppf/ ./internal/telemetry/ ./internal/sim/

# golden-update regenerates the checked-in figure snapshots, the
# full-stats digest golden (TestGoldenStatsDigest) and the workload stream
# golden (TestWorkloadStreamGolden: a digest of each catalogue generator's
# first accesses) after an intentional behaviour change. Inspect the diff
# before committing: a digest line names the job, or the workload and seed,
# whose output moved.
golden-update:
	$(GO) test ./internal/experiments -run TestGolden -update
	$(GO) test ./internal/trace -run TestWorkloadStreamGolden -update

# staticcheck runs when the binary is available (CI installs it; locally
# `go install honnef.co/go/tools/cmd/staticcheck@latest`) and is skipped
# otherwise so check works in hermetic environments.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# e2e drives the daemon end to end (TestE2EServerParity): an httptest psimd
# serving real simulations to concurrent experiment clients, with byte-parity
# and cross-client dedup assertions. The TestE2ECluster* tests run in race and
# e2e-cluster, not here.
e2e:
	$(GO) test -race -run '^TestE2EServerParity$$' -v ./internal/service/

# e2e-cluster drives a 3-node in-process cluster: byte-identical figures vs
# a local run, zero duplicate simulations cluster-wide (owners answer
# peers' repeat requests from their stores), and survival of a node killed
# mid-batch.
e2e-cluster:
	$(GO) test -race -run 'TestE2ECluster' -v ./internal/service/

# serve runs the simulation daemon on localhost:8080.
serve:
	$(GO) run ./cmd/psimd

# check is the full CI gate.
check: vet staticcheck build test race fuzz-seeds
