#!/bin/sh
# Build the benchmark from the checkout's sources and run it:
#
#   bash perfbench/run.sh --workload figs-analytic --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the runs write
# (Go build cache, binary, determinism records, span traces) goes under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -eu
if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ] || ! grep -q '^module deltasched$' go.mod; then
	echo "perfbench: run from the root of a deltasched checkout" >&2
	exit 2
fi
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
# Keep the toolchain offline and its caches and settings in the build
# directory.
export CARGO_TARGET_DIR="$out" GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
# -trimpath: the binary, which keys the determinism records, then depends
# on the sources and the toolchain only, not on where the checkout is.
go build -C perfbench -trimpath -o "$out/perfbench" .
exec "$out/perfbench" "$@"
