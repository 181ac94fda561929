#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from
# the repository root:
#
#   bash e2ebench/run.sh --workload period-upload --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, and the WALs, stores and span files of a
# run all live under .bench_build/ in the current directory; nothing is
# written elsewhere.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$bench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --workdir "$out/work" "$@"
