#!/usr/bin/env bash
# Builds the tree's cmd/serve and this benchmark into .bench_build, then
# runs the benchmark with the given arguments, for example
#   bash perfbench/run.sh --workload analyze-cold --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Every build and run file stays under
# .bench_build; see perfbench/README.md.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/serve and perfbench/ not all found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/serve" ./cmd/serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -serve "$out/serve" -workdir "$out" "$@"
