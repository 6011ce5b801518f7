#!/usr/bin/env bash
# Builds the benchmark and the matchserve binary it drives from the
# checkout's sources, then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-kernels --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the repository root (binaries, Go build cache, scratch stores, span files).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/perfbench" ]]; then
  echo "perfbench: run from the root of a MATCH checkout (go.mod, internal/ and perfbench/ missing)" >&2
  exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
  GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
  GOFLAGS=-mod=mod GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/matchserve" match/cmd/matchserve) >&2

exec "$out/bin/perfbench" -root "$root" -matchserve "$out/bin/matchserve" "$@"
