#!/usr/bin/env bash
# Builds the benchmark and the trustd daemon from the checkout's source, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload market-trust-aware --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, trustd
# data directories) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/tmp" "$out/run"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps telemetry
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off

(cd "$root/perfbench" &&
	go build -o "$out/bin/perfbench" . &&
	go build -o "$out/bin/trustd" trustcoop/cmd/trustd) >&2

exec "$out/bin/perfbench" -trustd "$out/bin/trustd" -workdir "$out/run" "$@"
