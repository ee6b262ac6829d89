#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload front-door --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the current directory (the Go build cache, its temporary files and
# the go command's config directory included), so the run writes nothing
# outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/go-tmp"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/go-tmp"
# The go command keeps its env file and telemetry counters under the
# user config directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export GOMODCACHE="$out/go-mod"
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# A first build writes the whole build cache; flush it so its writeback
# does not slow the measured run's fsyncs.
sync
exec "$out/perfbench" -out "$out" "$@"
