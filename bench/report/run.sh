#!/usr/bin/env bash
# Builds bench_report from source into build-bench/ (Release) and runs it
# with the given arguments, from the repository root:
#
#   bash bench/report/run.sh --workload smart8x8_local --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/../.."
cmake -S bench/report -B build-bench >&2
cmake --build build-bench -j 4 >&2
exec build-bench/bench_report "$@"
