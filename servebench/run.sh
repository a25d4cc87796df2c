#!/usr/bin/env bash
# Builds the serving benchmark from source and runs one workload. Run it
# from the repository root:
#
#   bash servebench/run.sh --workload agg-steady --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced runs' span files go
# under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
