#!/usr/bin/env bash
# Captures CPU and allocation profiles of an in-process benchmark — by
# default §2.3's rank-order candidate execution, the target of the
# per-question execution sessions — and prints the top consumers with
# the benchmark setup (multi-thousand-entity KB construction) filtered
# out, which otherwise swamps the report.
#
# To profile the shipped server under load instead, start qaserve with
# -debug-addr 127.0.0.1:6060 and point pprof at it mid-run:
#   go tool pprof -top 'http://127.0.0.1:6060/debug/pprof/profile?seconds=10'
#
# Usage:   scripts/profile.sh [outdir]
# Env:     BENCH=BenchmarkExtractSequential   benchmark to profile
#          BENCHTIME=1000x                    iterations
#
# For allocation work on the cold miss path, profile the entity_cold
# stream with no answer cache (one pass is 1606 questions):
#   BENCH=BenchmarkAnswerCold BENCHTIME=16060x scripts/profile.sh
#
# Inspect interactively afterwards:
#   go tool pprof <outdir>/cpu.prof
#   go tool pprof -sample_index=alloc_objects <outdir>/mem.prof
#
# Before/after flamegraph diff (how the PR 9 shape-cache numbers were
# taken): profile the same BENCH on the base commit and on the change
# into two outdirs, then diff the profiles directly —
#   go tool pprof -http=:8080 -diff_base before/cpu.prof after/cpu.prof
# The PR 9 fan-out diff shows the compile-side frames (buildShape,
# filter/projection wiring, sort.Ints boxing) collapsing into the plan
# cache's lookup (since PR 25 a qacache.Get under sparql.(*Session).planFor),
# and the default-order sort's Term.Compare /
# materialization frames replaced by the flat rank-key sort.
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="${1:-/tmp/qa-profiles}"
bench="${BENCH:-BenchmarkExtractSequential}"
benchtime="${BENCHTIME:-1000x}"
mkdir -p "$outdir"

# Fail fast (and clearly) when BENCH names no benchmark: go test would
# otherwise exit 0 having profiled nothing, and pprof would then choke
# on the empty profiles. (Capture first rather than piping into
# `grep -q`: under pipefail, grep's early exit SIGPIPEs go test and the
# pipeline reports failure exactly when the benchmark exists.)
listed="$(go test -run '^$' -list "^${bench}\$" .)"
if ! grep -q '^Benchmark' <<<"$listed"; then
  echo "profile.sh: BENCH=${bench} matches no benchmark in the root package" >&2
  echo "profile.sh: list them with: go test -run '^\$' -list 'Benchmark.*' ." >&2
  exit 1
fi

go test -run '^$' -bench "^${bench}\$" -benchtime "$benchtime" \
  -cpuprofile "$outdir/cpu.prof" -memprofile "$outdir/mem.prof" .

echo
echo "=== CPU (focused on the question path) ==="
go tool pprof -top -nodecount=25 -focus 'AnswerCtx|ExtractSessionCtx|ExecuteCtx' "$outdir/cpu.prof"
echo
echo "=== Allocations (focused on the question path) ==="
go tool pprof -top -nodecount=15 -sample_index=alloc_objects \
  -focus 'AnswerCtx|ExtractSessionCtx|ExecuteCtx' "$outdir/mem.prof"
echo
echo "profiles written to $outdir"
