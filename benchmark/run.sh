#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it there with the given flags, e.g.
#
#   bash benchmark/run.sh -workload stencil-df10k -seconds 20
#
# The Go build cache, GOPATH, temporary files and config live under
# .bench_build/ too, so a run reads and writes only inside the checkout
# and never reaches for the network.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd benchmark && go build -o "$out/msgbench" .)
exec "$out/msgbench" "$@"
