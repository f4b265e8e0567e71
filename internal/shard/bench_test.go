package shard

import (
	"context"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/kb"
	"repro/internal/sparql"
	"repro/internal/store"
)

// benchCluster builds the benchmark fixture: a 4-shard cluster over a
// mid-sized graph plus the query workload.
func benchCluster(b *testing.B, cfg Config) (*Cluster, []*sparql.Query) {
	b.Helper()
	src, props := testStore(newRand(99), 300, 5)
	return NewCluster(src, 4, cfg), workload(props)
}

// BenchmarkNewCluster: the built-in KB partitioned across 4 shards —
// what qaserve -shards 4 spends in its shard_partition boot phase. Each
// shard is one write batch: the source dictionary interned in ID order,
// then its subjects' ID triples.
func BenchmarkNewCluster(b *testing.B) {
	src := kb.Build(kb.DefaultConfig()).Store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewCluster(src, 4, Config{})
	}
}

// BenchmarkDomainRunHealthy: one subject-bound posting-list read
// through the whole failure domain of a healthy shard — breaker, timer
// arm and stop, inline attempt. The read itself is a bucket probe, so
// this is the fixed cost every shard call pays.
func BenchmarkDomainRunHealthy(b *testing.B) {
	c, _ := benchCluster(b, Config{})
	ctx := context.Background()
	v := c.NewView(ctx)
	d, sn := c.domains[0], v.shards[0]
	op := shardOp{opPosting, [3]store.ID{shardSubject(0, 4), 1, 0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.run(ctx, sn, op); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatherSingleStore: BenchmarkGatherHealthy's workload on a
// plain snapshot session with the same plan-cache setting — the
// baseline the gather's cost is a factor of.
func BenchmarkGatherSingleStore(b *testing.B) {
	c, qs := benchCluster(b, fastConfig())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runWorkload(b, ctx, sparql.NewSnapshotSession(c.src.Snapshot()), qs)
	}
}

// BenchmarkGatherHealthy: the full workload through a healthy 4-shard
// gather view (the scatter/merge overhead; BenchmarkGatherSingleStore
// is its baseline).
func BenchmarkGatherHealthy(b *testing.B) {
	c, qs := benchCluster(b, fastConfig())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := c.NewView(ctx)
		runWorkload(b, ctx, sparql.NewViewSession(v), qs)
	}
}

// BenchmarkGatherOneSlowShard: shard 1 pays an injected latency on
// half its attempts. Measures the tail a slow shard imposes on the
// gather.
func BenchmarkGatherOneSlowShard(b *testing.B) {
	c, qs := benchCluster(b, fastConfig())
	in := chaos.New(1, chaos.Rule{
		Point: "shard.query.1", Kind: chaos.KindLatency,
		Latency: time.Millisecond, Prob: 0.5,
	})
	ctx := chaos.With(context.Background(), in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := c.NewView(ctx)
		runWorkload(b, ctx, sparql.NewViewSession(v), qs)
	}
}

// BenchmarkGatherDegraded: shard 1 is dead and the caller opted into
// partial answers — the cost of answering from the surviving shards.
func BenchmarkGatherDegraded(b *testing.B) {
	cfg := fastConfig()
	cfg.MaxAttempts = 1
	cfg.BreakerThreshold = 1 << 30 // keep every iteration on the failure path
	c, qs := benchCluster(b, cfg)
	in := chaos.New(1, chaos.Rule{Point: "shard.query.1", Kind: chaos.KindError, Prob: 1})
	ctx := WithPartialOK(chaos.With(context.Background(), in))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := c.NewView(ctx)
		runWorkload(b, ctx, sparql.NewViewSession(v), qs)
	}
}
