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
# resilience layer (internal/qaserve's BenchmarkAdmitRelease is the
# admission every request pays, uncontended at the default limit;
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
# KB that is already built: pattern mining and the §2.2 indexes,
# BenchmarkNewLinker the NED gazetteer and page-link index alone,
# BenchmarkCorpus and BenchmarkMine the corpus and the miner alone, and
# internal/shard's BenchmarkNewCluster the built-in KB partitioned
# across 4 shards, qaserve -shards 4's shard_partition phase), and
# the cold miss path (BenchmarkAnswerCold: the entity_cold question
# stream in process with no answer cache; its B/op and allocs/op are
# what core's TestColdPathAllocations gates, ≈ 6.1 KB / 38 allocs since
# §2.1 keeps one token record per word and §2.2 points at the Mapper's
# rows, ≈ 8.0 KB / 58 before; BenchmarkDependencyParse: §2.1's parse
# alone over the same entity stream plus the QALD questions, ≈ 5 µs /
# 1.1 KB / 7 allocs, ≈ 8.5 µs / 2.1 KB / 24 while each stage copied
# and re-lowered the words; and
# BenchmarkExtractSequential's one fan-out, whose object-property
# candidates Table 1 skips, reads ≈ 20 µs / 20 allocs — ≈ 29 µs / 36
# while every candidate's text was printed), and the write path
# (internal/store's
# BenchmarkApplyBatchFlip: one update_mix write, 8 deletes and 8 inserts
# on a predicate with 512 objects at ≈ 6.5k triples; ≈ 12.7 KB / 51
# allocs, what TestApplyBatchAllocations gates; and
# BenchmarkApplyBatchFreshTerm: a write that replaces one subject's
# literal with a new one, so it adds a term, on the built-in KB (x1) and
# after 16k more terms (+16k) — the two stay within a quarter of each
# other, what TestFreshTermWriteScales gates; and the root
# BenchmarkStoreLookup: term→ID resolution, hit on every built-in term
# and miss), and the RDF text
# readers (internal/sparql's BenchmarkParseUpdate: one update_mix body,
# 8 deletes and 8 inserts, through ParseUpdate — ≈ 10 µs / 5.4 KB / 11
# allocs, ≈ 13 µs / 5.9 KB / 61 allocs with the brace scan it replaced;
# internal/turtle's BenchmarkLoadNTriples: the built-in KB's 880 KB
# dump in the N-Triples mode kb.Load uses — ≈ 2.1 ms / 1.1 MB / 1 alloc,
# ≈ 11.7 ms / 8.2 MB / 84k allocs with the separate reader it replaced).
#
# Shape cache or not: every benchmark that executes a query runs its
# join on every iteration — the plan cache holds shapes, never results
# (the bound-result memo went in PR 25). There is no process-wide shape
# cache: a core.System owns one, so the benchmarks that answer through
# a System (AnswerCtx, AnswerCold, AnswerThroughput, AnswerEndToEnd)
# compile from its shapes, and BenchmarkExtractSequential attaches a
# cache of its own (its planhit% reads it); from the second iteration
# on they compile from a shape hit. Every other benchmark that executes
# a query runs on a session with no cache (NewSnapshotSession(sn), as
# qaload's sparql.exec_us probe does, or sparql.ExecuteCtx), so each
# iteration also builds the shape: BenchmarkRankSort,
# BenchmarkBGPJoinIdle/UnderLoad, internal/sparql's BenchmarkBGPJoin3,
# BGPJoin3Limit and BGPJoinDistinctOrderBy beside their *TermSpace
# twins, and the root BenchmarkSPARQLTwoPatternJoin, SPARQLFilterScan
# and SPARQLScale.
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
# term-space pairs and plan-cache compile pair, the shard tier, the
# store's term-rank churn pair and its write-path flip, qaserve's
# admission, the UPDATE parser and the N-Triples loader).
bench_full='BenchmarkStore(Scan(Terms|IDs)|Lookup)$|BenchmarkBGPJoin|BenchmarkSPARQL(TwoPatternJoin|FilterScan|Scale)$|BenchmarkTable2QALDEvaluation|BenchmarkExtractSequential$|BenchmarkServeAnswer(Cached|Uncached)$|BenchmarkWAL(Append|Recovery)$|BenchmarkChaosHitDisabled$|BenchmarkRankSort$|BenchmarkNEDResolveFuzzy$|BenchmarkPropmapMap$|BenchmarkKBBuild$|BenchmarkKBBuildScale|BenchmarkCoreBoot$|BenchmarkNewLinker$|BenchmarkCorpus$|BenchmarkMine$|BenchmarkAnswerCold$|BenchmarkDependencyParse$'
bench_pair='BenchmarkAnswer(Throughput|Ctx)$'
bench_pkgs='BenchmarkBGPJoin(3|3Limit|DistinctOrderBy)(TermSpace)?$|BenchmarkPlanCache(Hit|Miss)$|BenchmarkDomainRunHealthy$|BenchmarkNewCluster$|BenchmarkGather(SingleStore|Healthy|OneSlowShard|Degraded)$|BenchmarkTermRanksChurn(Incremental|FullRebuild)$|BenchmarkApplyBatch(Flip$|FreshTerm)|BenchmarkAdmitRelease$|BenchmarkParseUpdate$|BenchmarkLoadNTriples$'
bench_smoke='BenchmarkStore|BenchmarkExtractSequential$|BenchmarkBGPJoin(Idle|UnderLoad)$|BenchmarkAnswerCtx$|BenchmarkServeAnswer(Cached|Uncached)$|BenchmarkWAL(Append|Recovery)$|BenchmarkChaosHitDisabled$|BenchmarkRankSort$|BenchmarkNEDResolveFuzzy$|BenchmarkPropmapMap$|BenchmarkKBBuild$|BenchmarkKBBuildScale/x1$|BenchmarkCoreBoot$|BenchmarkNewLinker$|BenchmarkCorpus$|BenchmarkMine$|BenchmarkAnswerCold$|BenchmarkDependencyParse$'
bench_pkgs_smoke='BenchmarkBGPJoin(3|3Limit|DistinctOrderBy)(TermSpace)?$|BenchmarkPlanCache(Hit|Miss)$|BenchmarkDomainRunHealthy$|BenchmarkNewCluster$|BenchmarkGather(SingleStore|Healthy|Degraded)$|BenchmarkTermRanksChurnIncremental$|BenchmarkApplyBatch(Flip$|FreshTerm)|BenchmarkAdmitRelease$|BenchmarkParseUpdate$|BenchmarkLoadNTriples$'

if [ "${1:-}" = "smoke" ]; then
  go test -run '^$' -bench "$bench_smoke" -benchtime=20x -benchmem .
  exec go test -p 1 -run '^$' -bench "$bench_pkgs_smoke" -benchtime=5x -benchmem \
    ./internal/sparql/ ./internal/shard/ ./internal/store/ ./internal/qaserve/ ./internal/turtle/
fi

benchtime="${BENCHTIME:-1s}"

go test -run '^$' -bench "$bench_full" -benchmem -benchtime="$benchtime" .

# Fresh process for the comparable pair (see the header comment).
go test -run '^$' -bench "$bench_pair" -benchmem -benchtime="$benchtime" .

# The package-local benchmarks (ID-space vs term-space pairs, plan-cache
# compile pair, shard tier, term-rank churn, write path, admission, RDF
# text readers), one package at a time (-p 1): run side by
# side on a two-core host they take each other's CPU, and the gather ÷
# single-store factor is read off two of them.
go test -p 1 -run '^$' -bench "$bench_pkgs" -benchmem -benchtime="$benchtime" \
  ./internal/sparql/ ./internal/shard/ ./internal/store/ ./internal/qaserve/ ./internal/turtle/
