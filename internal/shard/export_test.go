package shard

import "repro/internal/store"

// EmptyShardForTest replaces shard i with a dictionary-only (empty)
// replica: the oracle for degraded answers — a request that skipped
// shard i must equal a healthy request against this cluster.
func (c *Cluster) EmptyShardForTest(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh := store.New()
	sh.Batch(0, func(b *store.Batch) { internAll(b, c.src.Snapshot().TermsView()) })
	c.shards[i] = sh
}

// ShardOf exposes the routing hash to tests.
func ShardOf(sid store.ID, n int) int { return shardOf(sid, n) }

// ShardLen returns shard i's triple count (partitioning tests).
func (c *Cluster) ShardLen(i int) int { return c.shards[i].Snapshot().Len() }

// Breaker exposes shard i's breaker to the transition tests.
func (c *Cluster) Breaker(i int) *breaker { return c.domains[i].br }

// NewBreakerForTest builds a bare breaker from cfg.
func NewBreakerForTest(cfg Config) *breaker { return newBreaker(withDefaults(cfg)) }
