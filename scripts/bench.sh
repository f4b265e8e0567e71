#!/usr/bin/env bash
# Runs the tentpole benchmarks — the ID-space engine vs. the retained
# term-space reference path (PR 1: the BenchmarkBGPJoin* / *TermSpace
# pairs in internal/sparql), rank-order candidate execution
# (BenchmarkExtractSequential; the speculative pool PR 2 ran beside it
# lost at GOMAXPROCS=2 and went in PR 16), the wait-free
# snapshot-read pair (PR 3: BenchmarkBGPJoinIdle vs
# BenchmarkBGPJoinUnderLoad), the staged pipeline + serving layer
# (PR 4: BenchmarkServeAnswerCached vs BenchmarkServeAnswerUncached
# measures the answer cache through the full HTTP handler — the cached
# path must come in >= 10x faster), and the durability layer
# (PR 6: BenchmarkWALAppend is the per-batch
# append+fsync+apply commit cost, BenchmarkWALRecovery is what a
# crashed qaserve runs before core.New: wal.Recover over the built-in
# KB's segment plus a 64-record log tail, then kb.FromStore over the
# store it returns, with the segment's IDs and no second store), and the
# resilience layer (PR 8: BenchmarkAdmissionAcquireRelease is the
# adaptive limiter's uncontended per-request hot path,
# BenchmarkChaosHitDisabled is the inert fault-point tax every stage
# boundary pays in production), and the plan-shape cache (PR 9:
# internal/sparql's BenchmarkPlanCacheHit vs BenchmarkPlanCacheMiss is
# the per-candidate compile cost with the shape cache warm vs.
# detached, and
# BenchmarkRankSort the ORDER-BY-less deterministic sort now running
# over the term-rank permutation; BenchmarkExtractSequential
# additionally reports planhit% — the plan-cache hit rate over the
# measured loop),
# and the sharded scatter-gather tier (PR 10:
# BenchmarkGatherHealthy is the scatter/merge overhead of a 4-shard
# gather over the full query workload, BenchmarkGatherOneSlowShard the
# tail one latency-injected shard imposes with hedging live,
# BenchmarkGatherDegraded the cost of answering from the survivors
# under allow_partial; BenchmarkTermRanksChurnIncremental vs
# BenchmarkTermRanksChurnFullRebuild is the per-batch win of the
# incremental term-rank maintenance), and the index-driven §2.2 mapping
# (PR 14: BenchmarkNEDResolveFuzzy is the fuzzy entity fallback over a
# stream of distinct partial names, BenchmarkPropmapMap the whole §2.2
# stage over the entity-template extractions — neither stream repeats
# inside a memo's reach, so only the index can win them), and the
# inline shard call (PR 15: BenchmarkDomainRunHealthy is the fixed
# cost one healthy shard call pays crossing its failure domain,
# BenchmarkGatherSingleStore the BenchmarkGatherHealthy workload on a
# plain snapshot session — the baseline the gather is a factor of),
# and the boot path (PR 21: BenchmarkKBBuild is the built-in KB as two
# write batches, BenchmarkKBBuildScale/x{1,4,16} the same build at 1×,
# 4× and 16× the synthetic sizes with ns/triple and B/triple — flat
# means linear — and BenchmarkCoreBoot what core.New still costs over a
# KB that is already built: pattern mining and the §2.2 indexes).
#
# Shape cache or not: every benchmark that executes a query runs its
# join on every iteration — the plan cache holds shapes, never results
# (the bound-result memo went in PR 25). BenchmarkExtractSequential,
# BenchmarkRankSort and BenchmarkBGPJoinIdle/UnderLoad go through the
# process-wide cache, so from the second iteration on they compile from
# a shape hit. The executor benchmarks run on a session with the cache
# detached (NewSnapshotSession(sn).WithPlanCache(nil), as qaload's
# sparql.exec_us probe does), so each iteration also builds the shape:
# internal/sparql's BenchmarkBGPJoin3, BGPJoin3Limit and
# BGPJoinDistinctOrderBy beside their *TermSpace twins, and the root
# BenchmarkSPARQLTwoPatternJoin, SPARQLFilterScan and SPARQLScale.
#
# These are `go test -bench` recipes, not a record: the script prints
# what the benchmarks print and writes nothing. The numbers a PR claims
# come from the end-to-end benchmark (bench/run.sh, BENCHMARK.json); the
# BENCH_PR*.json files this script used to mint were single samples
# nothing ever diffed, and went in PR 21.
#
# The BenchmarkAnswerCtx / BenchmarkAnswerThroughput comparability pair
# (the stage-framework-overhead bound) runs in its own `go test`
# process: inside the full suite the pair is separated by benchmarks
# that build multi-thousand-entity KBs, so the later benchmark pays GC
# against a much larger live heap and reads up to ~35% slower than the
# earlier one for reasons that have nothing to do with the stage
# loop (243µs vs 179µs were once recorded for identical code
# paths; measured in a fresh process the two agree within noise).
#
# The shard benchmarks depend on GOMAXPROCS; `go test` prints it as
# the -N suffix of each name.
#
# Usage: scripts/bench.sh [smoke]
#
#   smoke    a fast CI sanity pass (-benchtime=20x) over the key
#            benchmarks: exercises every tentpole path. This is the
#            single place the CI smoke regex lives;
#            .github/workflows/ci.yml just calls it.
#   (none)   full run at BENCHTIME (default 1s) per benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

# The benchmark selections, defined once for every mode. The root
# selections run against the repo's root package; bench_pkgs covers
# the benchmarks that live in their own packages (sparql's ID-space vs
# term-space pairs and plan-cache compile pair, the shard tier and the
# store's term-rank churn pair).
bench_full='BenchmarkStoreScan(Terms|IDs)$|BenchmarkBGPJoin|BenchmarkSPARQL(TwoPatternJoin|FilterScan|Scale)$|BenchmarkTable2QALDEvaluation|BenchmarkExtractSequential$|BenchmarkServeAnswer(Cached|Uncached)$|BenchmarkWAL(Append|Recovery)$|BenchmarkAdmissionAcquireRelease$|BenchmarkChaosHitDisabled$|BenchmarkRankSort$|BenchmarkNEDResolveFuzzy$|BenchmarkPropmapMap$|BenchmarkKBBuild$|BenchmarkKBBuildScale|BenchmarkCoreBoot$'
bench_pair='BenchmarkAnswer(Throughput|Ctx)$'
bench_pkgs='BenchmarkBGPJoin(3|3Limit|DistinctOrderBy)(TermSpace)?$|BenchmarkPlanCache(Hit|Miss)$|BenchmarkDomainRunHealthy$|BenchmarkGather(SingleStore|Healthy|OneSlowShard|Degraded)$|BenchmarkTermRanksChurn(Incremental|FullRebuild)$'
bench_smoke='BenchmarkStore|BenchmarkExtractSequential$|BenchmarkBGPJoin(Idle|UnderLoad)$|BenchmarkAnswerCtx$|BenchmarkServeAnswer(Cached|Uncached)$|BenchmarkWAL(Append|Recovery)$|BenchmarkAdmissionAcquireRelease$|BenchmarkChaosHitDisabled$|BenchmarkRankSort$|BenchmarkNEDResolveFuzzy$|BenchmarkPropmapMap$|BenchmarkKBBuild$|BenchmarkKBBuildScale/x1$|BenchmarkCoreBoot$'
bench_pkgs_smoke='BenchmarkBGPJoin(3|3Limit|DistinctOrderBy)(TermSpace)?$|BenchmarkPlanCache(Hit|Miss)$|BenchmarkDomainRunHealthy$|BenchmarkGather(SingleStore|Healthy|Degraded)$|BenchmarkTermRanksChurnIncremental$'

if [ "${1:-}" = "smoke" ]; then
  go test -run '^$' -bench "$bench_smoke" -benchtime=20x -benchmem .
  exec go test -p 1 -run '^$' -bench "$bench_pkgs_smoke" -benchtime=5x -benchmem \
    ./internal/sparql/ ./internal/shard/ ./internal/store/
fi

benchtime="${BENCHTIME:-1s}"

go test -run '^$' -bench "$bench_full" -benchmem -benchtime="$benchtime" .

# Fresh process for the comparable pair (see the header comment).
go test -run '^$' -bench "$bench_pair" -benchmem -benchtime="$benchtime" .

# The package-local benchmarks (ID-space vs term-space pairs, plan-cache
# compile pair, shard tier, term-rank churn), one package at a time (-p 1): run side by
# side on a two-core host they take each other's CPU, and the gather ÷
# single-store factor is read off two of them.
go test -p 1 -run '^$' -bench "$bench_pkgs" -benchmem -benchtime="$benchtime" \
  ./internal/sparql/ ./internal/shard/ ./internal/store/
