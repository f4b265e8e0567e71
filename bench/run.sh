#!/usr/bin/env bash
# The one entry point of the qaload benchmark (see bench/README.md).
#
#   bench/run.sh                          # four workloads untraced, then traced → bench/out/result.json
#   bench/run.sh --workload entity_cold --seed 7 --seconds 20 --trace 0
#   bench/run.sh --aa 5                   # A/A: spread of every gated metric against its bound
#
# It builds qaserve and qaload from the sources of this checkout (never
# timed), then hands every argument to qaload. Everything it writes —
# binaries, the Go build cache, span files, the update_mix data dir —
# stays under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

if [[ ! -f go.mod || ! -d cmd/qaserve ]]; then
	echo "bench/run.sh: $root holds no qaserve sources (go.mod, cmd/qaserve): nothing to benchmark" >&2
	exit 2
fi

out=$root/bench/out
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
export TMPDIR=$out/tmp

go build -o "$out/bin/qaserve" ./cmd/qaserve
(cd cmd/qaload && go build -o "$out/bin/qaload" .)

exec "$out/bin/qaload" -qaserve "$out/bin/qaserve" -out "$out" "$@"
