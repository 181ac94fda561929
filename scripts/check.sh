#!/bin/sh
# check.sh — the full verification gauntlet for the ptm repo.
#
# Runs, in order:
#   1. gofmt -l            (every tracked .go file is gofmt-clean)
#   2. go build            (everything compiles)
#   3. go vet              (toolchain static checks)
#   4. ptmlint             (repo-specific invariants; see DESIGN.md),
#                          archiving a SARIF 2.1.0 report for CI surfaces
#   5. concguard           (the four concurrency-contract rules alone,
#                          archiving their SARIF report separately so the
#                          lock-discipline gate is auditable on its own)
#   6. perfguard           (the three hot-path performance-contract rules
#                          alone — noalloc, inline, bce — archiving their
#                          SARIF report, escape-flow codeFlows included,
#                          so the allocation gate is auditable on its own)
#   7. go test -race       (unit + integration tests under the race
#                          detector, -shuffle=on to surface order
#                          dependence between tests)
#   8. race stress smoke   (the WAL, RSU, estimate-cache, and tiered-store
#                          concurrency stress tests again under -race
#                          -count=2 — the dynamic complement of the static
#                          concguard contracts)
#   9. e2ebench module     (go vet + go test inside the nested e2ebench
#                          module, which root ./... does not reach, so a
#                          program API change that breaks the benchmark
#                          fails here)
#  10. fuzz smoke          (a few seconds per fuzz target, seeds + mutation)
#  11. crash smoke         (kill -9 a WAL-backed centrald mid-stream)
#  12. out-of-core smoke   (tiered centrald over a 10x-budget dataset:
#                          peak-RSS bound + estimates identical to the
#                          all-resident daemon)
#  13. cluster smoke       (3-node cluster, R=2: kill -9 the partition
#                          leader mid-ingest, fail over, revive, join,
#                          drain — zero acked-record loss and estimates
#                          byte-identical to a single-node reference)
#
# Usage: scripts/check.sh [fuzztime]
#   fuzztime  per-target fuzzing budget for the smoke stage (default 5s)
#
# The SARIF report lands in $ARTIFACT_DIR/ptmlint.sarif (default:
# a .artifacts directory at the repo root, git-ignored).
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${1:-5s}"

step() {
	printf '==> %s\n' "$*"
}

step "gofmt -l (every tracked .go file)"
# Tracked files only: the root package, examples/ and e2ebench/ are
# checked, build caches such as .bench_build/ are not.
gofiles="$(git ls-files '*.go')"
if [ -z "$gofiles" ]; then
	printf 'gofmt: git ls-files found no .go files (not a git checkout?)\n' >&2
	exit 1
fi
# $gofiles is split on purpose: one path per word (no tracked path has a space).
unformatted="$(gofmt -l $gofiles)"
if [ -n "$unformatted" ]; then
	printf 'gofmt: the following files need formatting:\n%s\n' "$unformatted" >&2
	exit 1
fi

step "go build ./..."
go build ./...

step "go vet ./..."
go vet ./...

step "ptmlint ./..."
ARTIFACT_DIR="${ARTIFACT_DIR:-.artifacts}"
mkdir -p "$ARTIFACT_DIR"
# The SARIF report is written even when findings exist (exit 1), so the
# artifact documents exactly what failed the gate.
if ! go run ./cmd/ptmlint -format=sarif ./... > "$ARTIFACT_DIR/ptmlint.sarif"; then
	status=$?
	step "ptmlint findings (see $ARTIFACT_DIR/ptmlint.sarif)"
	go run ./cmd/ptmlint ./... || true
	exit "$status"
fi

step "concguard (lockorder, guardedby, atomicmix, rcu)"
if ! go run ./cmd/ptmlint -rules=lockorder,guardedby,atomicmix,rcu -format=sarif ./... > "$ARTIFACT_DIR/concguard.sarif"; then
	status=$?
	step "concguard findings (see $ARTIFACT_DIR/concguard.sarif)"
	go run ./cmd/ptmlint -rules=lockorder,guardedby,atomicmix,rcu ./... || true
	exit "$status"
fi

step "perfguard (noalloc, inline, bce)"
if ! go run ./cmd/ptmlint -rules=noalloc,inline,bce -format=sarif ./... > "$ARTIFACT_DIR/perfguard.sarif"; then
	status=$?
	step "perfguard findings (see $ARTIFACT_DIR/perfguard.sarif)"
	go run ./cmd/ptmlint -rules=noalloc,inline,bce ./... || true
	exit "$status"
fi

step "go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

step "race stress smoke (-race -count=2, WAL group commit + RSU ingest + estimate cache)"
go test -race -count=2 -run '^TestGroupCommitConcurrentAppends$' ./internal/wal/
go test -race -count=2 -run '^(TestConcurrentReportStorm|TestReportsRaceRotation|TestDifferentialAtomicVsSequential)$' ./internal/rsu/
go test -race -count=2 -run '^TestEstCacheConcurrentQueryIngest$' ./internal/central/
go test -race -count=2 -run '^TestTieredConcurrentSoak$' ./internal/store/

step "e2ebench module (go vet + go test)"
(cd e2ebench && go vet ./... && go test ./...)

# Archive the committed benchmark baselines (regenerate with `make
# bench-json` / `make bench-ingest`) next to the lint report so CI
# surfaces them all.
for bench in BENCH_*.json; do
	[ -f "$bench" ] || continue
	step "archiving $bench -> $ARTIFACT_DIR/"
	cp "$bench" "$ARTIFACT_DIR/$bench"
done

step "fuzz smoke ($FUZZTIME per target)"
# Each fuzz target runs alone: `go test -fuzz` accepts a single match.
go test -run=NONE -fuzz='^FuzzUnmarshal$' -fuzztime="$FUZZTIME" ./internal/bitmap/
go test -run=NONE -fuzz='^FuzzFusedJoin$' -fuzztime="$FUZZTIME" ./internal/bitmap/
go test -run=NONE -fuzz='^FuzzFusedJoinWide$' -fuzztime="$FUZZTIME" ./internal/bitmap/
go test -run=NONE -fuzz='^FuzzUnmarshal$' -fuzztime="$FUZZTIME" ./internal/record/
go test -run=NONE -fuzz='^FuzzRoundTrip$' -fuzztime="$FUZZTIME" ./internal/record/
go test -run=NONE -fuzz='^FuzzIndex$' -fuzztime="$FUZZTIME" ./internal/vhash/
go test -run=NONE -fuzz='^FuzzReadFrame$' -fuzztime="$FUZZTIME" ./internal/transport/
go test -run=NONE -fuzz='^FuzzQueryDecoders$' -fuzztime="$FUZZTIME" ./internal/transport/
go test -run=NONE -fuzz='^FuzzServerDispatch$' -fuzztime="$FUZZTIME" ./internal/transport/
go test -run=NONE -fuzz='^FuzzUploadBatch$' -fuzztime="$FUZZTIME" ./internal/transport/
go test -run=NONE -fuzz='^FuzzReplay$' -fuzztime="$FUZZTIME" ./internal/wal/
go test -run=NONE -fuzz='^FuzzSnapshotLoad$' -fuzztime="$FUZZTIME" ./internal/central/
go test -run=NONE -fuzz='^FuzzSegmentLoad$' -fuzztime="$FUZZTIME" ./internal/store/
go test -run=NONE -fuzz='^FuzzClusterFrames$' -fuzztime="$FUZZTIME" ./internal/cluster/

step "crash-recovery smoke (WAL-backed centrald, kill -9 mid-stream)"
scripts/crashsmoke.sh

step "out-of-core smoke (tiered centrald, 10x-budget dataset, RSS bound + estimate equality)"
scripts/oocsmoke.sh

step "cluster smoke (3-node cluster, kill -9 + failover + revive + join + drain)"
scripts/clustersmoke.sh

step "all checks passed"
