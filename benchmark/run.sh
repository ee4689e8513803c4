#!/usr/bin/env bash
# Builds the statebench benchmark from the sources of the checkout it is
# run from and runs it once. Run it from the repository root:
#
#   bash benchmark/run.sh --workload paper-quick --seed 42 --seconds 20 --trace 0
#
# Every build artefact (the Go build cache included) stays under
# .bench_build/ in that directory. Without the repository's sources the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="${root}/.bench_build"
mkdir -p "${out}/bin" "${out}/tmp"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" GOMODCACHE="${out}/gopath/pkg/mod"
export GOTMPDIR="${out}/tmp" TMPDIR="${out}/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="${out}/config" XDG_CACHE_HOME="${out}/cache"

commit=unknown
if git -C "${root}" rev-parse --short HEAD >/dev/null 2>&1; then
	commit=$(git -C "${root}" rev-parse --short HEAD)
fi

go -C "${root}/benchmark" build -buildvcs=false -o "${out}/bin/statebench-bench" . 1>&2
# setup_s counts from here: process start-up and package init included.
start_ns=$(date +%s%N)
exec env STATEBENCH_BENCH_COMMIT="${commit}" STATEBENCH_BENCH_START_NS="${start_ns}" \
	"${out}/bin/statebench-bench" -out "${out}" "$@"
