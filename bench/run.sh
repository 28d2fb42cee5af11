#!/usr/bin/env bash
# Build-and-run entry of the round benchmark (BENCHMARK.json's command).
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result JSON
#   bash bench/run.sh
#       CI entry: vet, then the full set with seed 1 (every workload
#       untraced and traced), non-zero on any oracle, ledger or schema failure
#   bash bench/run.sh -selfcheck
#       the full set twice, A/B verdicts against BENCHMARK.json's bounds
#
# Everything the build leaves behind stays in .bench_build/ under the
# checkout, the Go build cache included.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
if [ -z "${HOME:-}" ] && [ -z "${GOPATH:-}" ]; then
	export GOPATH="$build/gopath"
fi

if [ $# -eq 0 ]; then
	go vet ./bench/...
	set -- -seed 1 -out bench-result.json -trace-out bench-trace.json
fi
go build -o "$build/roundbench" ./bench
exec "$build/roundbench" "$@"
