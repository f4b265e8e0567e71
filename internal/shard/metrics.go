// Per-shard observability counters, drained by the serving tier into
// the qaserve_shard_* metric families.

package shard

import "sync/atomic"

// shardMetrics are one domain's cumulative counters (atomics: bumped
// on hot paths without the domain mutex).
type shardMetrics struct {
	attempts       atomic.Uint64 // every launched attempt
	retries        atomic.Uint64 // backoff retries after a failed attempt
	failures       atomic.Uint64 // calls that exhausted the ladder
	breakerRejects atomic.Uint64 // calls rejected by an open breaker
}

// ShardStats is the exported snapshot of one shard's failure-domain
// counters and breaker state.
type ShardStats struct {
	Attempts       uint64
	Retries        uint64
	Failures       uint64
	BreakerRejects uint64
	Breaker        BreakerState
}

// Stats snapshots every shard's counters, in shard order.
func (c *Cluster) Stats() []ShardStats {
	out := make([]ShardStats, len(c.domains))
	for i, d := range c.domains {
		out[i] = ShardStats{
			Attempts:       d.m.attempts.Load(),
			Retries:        d.m.retries.Load(),
			Failures:       d.m.failures.Load(),
			BreakerRejects: d.m.breakerRejects.Load(),
			Breaker:        d.br.State(),
		}
	}
	return out
}
