#!/usr/bin/env bash
# Builds the perfbench binary and the bidiagd daemon from the sources of
# the checkout it is run in, then runs the benchmark with the given
# arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload values-square --seed 1 --seconds 15 --trace 0
#
# Every build product and the Go build cache live under .bench_build/ in
# the checkout, so the benchmark reads and writes nothing outside it.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/bidiagd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a bidiag checkout" >&2
	exit 2
fi

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bidiagd" ./cmd/bidiagd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -bidiagd "$out/bidiagd" "$@"
