# Convenience entry points; every target is plain go-toolchain underneath,
# so nothing here is required — see scripts/check.sh for the CI gauntlet.

GO ?= go

.PHONY: build test lint lint-fast check bench bench-json bench-ingest bench-wal bench-kernel bench-ooc bench-cluster

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs ptmlint (all rules plus the suppression audit) in human-readable
# form. scripts/check.sh runs the same pass with -format=sarif and archives
# the report.
lint:
	$(GO) run ./cmd/ptmlint ./...

# lint-fast runs only the syntax-level per-package rules — everything
# except the whole-program analyses (privflow taint tracking, the four
# concguard concurrency rules, and the three perfguard performance
# contracts), whose interprocedural fixpoints and compiler-diagnostic
# harvesting dominate lint wall time. Use it as the editor/pre-commit
# loop; `make lint` and scripts/check.sh remain the full gate.
lint-fast:
	$(GO) run ./cmd/ptmlint -rules=cryptorand,pow2size,lockedfields,errdrop,goroutinehygiene ./...

check:
	scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-json records the join-kernel benchmark baseline (fused vs
# materialized) at the repo root. scripts/check.sh archives the committed
# baseline into $$ARTIFACT_DIR. Override BENCH_OUT to write elsewhere
# (e.g. `make bench-json BENCH_OUT=/tmp/after.json` for an A/B diff
# against the committed file).
BENCH_OUT ?= BENCH_pr3.json

bench-json:
	$(GO) test -run=NONE \
		-bench='BenchmarkJoinPoint|BenchmarkJoinPointToPoint|BenchmarkEstimatePoint|BenchmarkAndAll' \
		-benchmem ./internal/core/ ./internal/bitmap/ \
		| $(GO) run ./cmd/benchjson > $(BENCH_OUT)

# bench-ingest records the ingest-plane baseline (mutex vs atomic RSU
# ingest, single vs batched vs pipelined upload, global vs sharded central
# store) as BENCH_pr4.json. -cpu=1,4,8 captures the contention story.
bench-ingest:
	$(GO) test -run=NONE \
		-bench='BenchmarkIngest(Mutex|Atomic)|BenchmarkUpload(Single|Batched|Pipelined)|BenchmarkStore(Global|Sharded)|BenchmarkRotation' \
		-benchmem -cpu=1,4,8 \
		./internal/rsu/ ./internal/transport/ ./internal/central/ \
		| $(GO) run ./cmd/benchjson > BENCH_pr4.json

# bench-kernel records the unrolled-join / cache-blocking / estimate-
# cache baseline as BENCH_pr8.json: the multi-operand AND kernels with
# throughput (bytes folded per ns, from b.SetBytes), the machine's
# streaming ceiling (BenchmarkBandwidthBaseline: copy + popcount sweep)
# as the %-of-peak denominator, and the estimate cache's hit-vs-cold
# ratio. benchjson stamps GOAMD64 and the host's popcnt capability into
# the document header so baselines from different machines stay
# comparable. Override KERNEL_BENCH_OUT for A/B runs.
KERNEL_BENCH_OUT ?= BENCH_pr8.json

bench-kernel:
	$(GO) test -run=NONE \
		-bench='BenchmarkAndAll|BenchmarkBandwidthBaseline|BenchmarkEstimateCache' \
		-benchmem ./internal/bitmap/ ./internal/core/ \
		| $(GO) run ./cmd/benchjson > $(KERNEL_BENCH_OUT)

# bench-wal records the durability-plane baseline as BENCH_pr5.json: raw
# append throughput per sync policy, fsync amortization under concurrent
# appenders (group commit), and WAL-backed vs in-memory ingest — the
# price of the Ack-means-durable promise against the PR 4 no-WAL
# baseline. -cpu=1,4,8 shows group commit collapsing the fsync cost.
bench-wal:
	$(GO) test -run=NONE \
		-bench='BenchmarkAppend(Serial|GroupCommit)|BenchmarkIngest(Memory|Durable)' \
		-benchmem -cpu=1,4,8 \
		./internal/wal/ ./internal/central/ \
		| $(GO) run ./cmd/benchjson > BENCH_pr5.json

# bench-ooc records the memory-hierarchy baseline as BENCH_pr9.json: the
# same m=2^24 AND join (4 and 20 periods) against the resident store, the cold
# tier with a warm block cache, and the cold tier with a degenerate
# cache (every span madvise-evicted between iterations). Each row
# carries its tier/pagecache/budget/m/t parameters (benchjson lifts the
# key=value name segments into structured params) plus cache
# hit/miss/eviction counters per op. Override OOC_BENCH_OUT for A/B runs.
OOC_BENCH_OUT ?= BENCH_pr9.json

bench-ooc:
	$(GO) test -run=NONE \
		-bench='BenchmarkOOCJoin' \
		-benchmem ./internal/store/ \
		| $(GO) run ./cmd/benchjson > $(OOC_BENCH_OUT)

# bench-cluster records the cluster-plane baseline as BENCH_pr10.json:
# routed upload-to-ack throughput for single-node vs replicated rings,
# the shipper's per-round cost of pushing sealed WAL segments to R-1
# followers, and point-to-point queries on the colocated (server-side
# fused join) vs cross-partition (router fetch-and-join) paths. Every
# row carries nodes=/replicas= params via cmd/benchjson so the
# replication tax is a structured diff, not a name convention. Override
# CLUSTER_BENCH_OUT for A/B runs.
CLUSTER_BENCH_OUT ?= BENCH_pr10.json

bench-cluster:
	$(GO) test -run=NONE \
		-bench='BenchmarkCluster(Upload|Ship|QueryP2P)' \
		-benchmem ./internal/cluster/router/ \
		| $(GO) run ./cmd/benchjson > $(CLUSTER_BENCH_OUT)
