#!/usr/bin/env bash
# Builds the ptload benchmark from the checkout it sits in and runs it,
# passing every argument through:
#
#   bash bench/run.sh --workload echo --seed 1 --seconds 8 --trace 0
#
# Run it from the repository root. The binary and every Go cache go
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local \
	GOFLAGS=-mod=readonly XDG_CONFIG_HOME="$out/config" GOENV=off

go -C "$(dirname "$0")" build -o "$out/ptload" ./ptload
exec "$out/ptload" "$@"
