#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of
# the repository:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory, including Go's build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (perfbench/ and the repo's go.mod must be here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)

# The exact-count ledger compares runs of identical code only, so the
# code is identified by a digest of every Go source and module file in
# the tree, uncommitted edits included.
export PERFBENCH_SOURCE="$(cd "$root" && find . \( -path ./.bench_build -o -path ./.git \) -prune -o \
	\( -name '*.go' -o -name go.mod -o -name go.sum \) -type f -print0 |
	LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)"
PERFBENCH_COMMIT=none
if [[ -e "$root/.git" ]]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
fi
export PERFBENCH_COMMIT

exec "$out/perfbench-bin" "$@"
