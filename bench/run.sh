#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the build
# and the run write inside the checkout. Run from the repository root:
#
#   bash bench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR when set, else to .bench_build.
# Arguments are passed to the benchmark unchanged; see bench/README.md.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/work"

# The toolchain must not fetch anything: no module downloads, no toolchain
# switch, no user-level go env file.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp

(cd bench && go build -o "$out/miragebench" .)
exec "$out/miragebench" -workdir "$out/work" "$@"
